/**
 * Ablation A1 — register-file configurations (DESIGN.md design-choice
 * ablation): the resource-constrained 6-window "Gold"-class file vs
 * the full 8-window design the paper argues for, vs the no-window
 * ablation (software save/restore).  Shows what the extra windows buy
 * and what removing them costs.
 *
 * Runs on the batch-simulation engine: the whole sweep is submitted as
 * one declarative job set and executed twice — on 1 worker and on the
 * full pool — to print the wall-clock win and to prove the engine's
 * determinism contract (both runs must render identical artifacts).
 */

#include <chrono>
#include <iostream>
#include <thread>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "workloads/workloads.hh"

using namespace risc1;

namespace {

double
millis(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

int
bench::runTableWindowConfigs()
{
    bench::banner(
        "A1", "Register-file ablation: 6 windows vs 8 vs none",
        "the full 8-window file removes most residual overflow traps "
        "of the smaller file; dropping windows entirely reintroduces "
        "per-call memory traffic");

    // One job per (workload, register-file configuration), in table
    // order: the engine returns results in submission order, so rows
    // read straight out of the result vector.
    static const char *const cfgNames[] = {"full-8w", "gold-6w", "no-win"};
    std::vector<sim::SimJob> jobs;
    for (const auto &w : allWorkloads()) {
        if (!w.callIntensive)
            continue;
        MachineConfig full; // 8 windows
        MachineConfig gold;
        gold.windows = WindowConfig::gold();
        MachineConfig none;
        none.windowedCalls = false;
        for (const MachineConfig &cfg : {full, gold, none}) {
            sim::SimJob job;
            job.id = cat(w.id, "/", cfgNames[jobs.size() % 3]);
            job.source = w.riscSource;
            job.config.risc = cfg;
            job.expected = w.expected;
            jobs.push_back(std::move(job));
        }
    }

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto serial = sim::runBatch(jobs, {1});
    const auto t1 = Clock::now();
    const auto parallel = sim::runBatch(jobs, {});
    const auto t2 = Clock::now();

    for (const auto &r : parallel) {
        if (r.status != sim::JobStatus::Ok) {
            std::cerr << "job '" << r.id << "' failed: " << r.error
                      << "\n";
            return 1;
        }
    }
    if (sim::resultSetToJson("A1", serial) !=
        sim::resultSetToJson("A1", parallel)) {
        std::cerr << "determinism violation: 1-worker and N-worker "
                     "results differ\n";
        return 1;
    }

    Table table({"workload", "cfg", "cycles", "ovf", "unf",
                 "call mem words", "vs full"});

    for (std::size_t i = 0; i < parallel.size(); i += 3) {
        const RunStats &fullStats =
            target::riscStats(*parallel[i].stats).run;
        for (std::size_t k = 0; k < 3; ++k) {
            const sim::SimResult &r = parallel[i + k];
            const RunStats &s = target::riscStats(*r.stats).run;
            const std::uint64_t callWords =
                s.spillWords + s.fillWords + s.softSaveWords +
                s.softRestoreWords;
            const std::string workloadId =
                r.id.substr(0, r.id.find('/'));
            table.addRow({
                workloadId,
                cfgNames[k],
                Table::num(s.cycles),
                Table::num(s.windowOverflows),
                Table::num(s.windowUnderflows),
                Table::num(callWords),
                Table::num(static_cast<double>(s.cycles) /
                               static_cast<double>(fullStats.cycles),
                           2),
            });
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\n'call mem words' = spill/fill traffic (windowed) "
                 "or software save/restore\ntraffic (no-win); 'vs "
                 "full' = cycle ratio against the 8-window design.\n";

    const std::string artifact =
        sim::writeArtifact("bench/out/table_window_configs.json", "A1",
                           parallel);

    const double serialMs = millis(t1 - t0);
    const double parallelMs = millis(t2 - t1);
    std::cout << "\nbatch engine: " << jobs.size() << " jobs; 1 worker "
              << Table::num(serialMs, 1) << " ms, "
              << sim::resolveWorkers({}) << " workers "
              << Table::num(parallelMs, 1) << " ms ("
              << Table::num(serialMs / parallelMs, 2) << "x speedup on "
              << std::thread::hardware_concurrency()
              << " hardware threads)\nartifact: " << artifact << "\n";
    return 0;
}
