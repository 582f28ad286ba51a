/**
 * Extension X1 — instruction-cache sensitivity (the follow-on study
 * the paper's fetch-bandwidth discussion motivates, pursued by the
 * Berkeley project after RISC I): sweep a direct-mapped i-cache from
 * 64 B to 8 KiB and report miss rate and cycle overhead.  Small
 * caches already capture the loop-dominated workloads, blunting the
 * E2b fetch premium.
 *
 * Runs on the batch-simulation engine using its snapshot-fork path:
 * each workload is assembled and loaded exactly once, the loaded
 * machine state is captured as a Machine snapshot, and all sweep
 * points (no-cache baseline plus every cache size) fork from that one
 * snapshot instead of re-running the assembler per configuration.
 */

#include <iostream>
#include <vector>

#include "asm/assembler.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "target/machine_target.hh"
#include "workloads/workloads.hh"

using namespace risc1;

int
bench::runFigIcacheSweep()
{
    bench::banner(
        "X1", "Instruction-cache sweep (extension study)",
        "a small on-chip i-cache captures the loops, removing most of "
        "the fixed-size-instruction fetch premium");

    const std::vector<std::uint32_t> sizes = {64,  128,  256, 512,
                                              1024, 4096, 8192};

    // Per workload: assemble once, snapshot the freshly loaded
    // machine, and fork every sweep point (1 baseline + |sizes| cache
    // configurations) from that shared snapshot.
    std::vector<sim::SimJob> jobs;
    for (const auto &w : allWorkloads()) {
        Machine loaded;
        loaded.loadProgram(assembleRisc(w.riscSource));
        const auto snap = std::make_shared<target::RiscTargetSnapshot>(
            loaded.snapshot());

        sim::SimJob baseline;
        baseline.id = cat(w.id, "/no-cache");
        baseline.base = snap;
        baseline.expected = w.expected;
        jobs.push_back(std::move(baseline));

        for (const auto size : sizes) {
            sim::SimJob job;
            job.id = cat(w.id, "/", size, "B");
            job.base = snap;
            job.config.risc.caches.l1i = mem::LevelConfig{size, 16, 4};
            job.expected = w.expected;
            jobs.push_back(std::move(job));
        }
    }

    const auto results = sim::runBatch(jobs);
    for (const auto &r : results) {
        if (r.status != sim::JobStatus::Ok) {
            std::cerr << "job '" << r.id << "' failed: " << r.error
                      << "\n";
            return 1;
        }
    }

    std::vector<std::string> headers = {"workload", "no-cache cycles"};
    for (const auto size : sizes)
        headers.push_back(std::to_string(size) + "B miss%");
    Table table(std::move(headers));

    const std::size_t perWorkload = 1 + sizes.size();
    std::size_t i = 0;
    for (const auto &w : allWorkloads()) {
        std::vector<std::string> row = {
            w.id,
            Table::num(target::riscStats(*results[i].stats).run.cycles)};
        for (std::size_t k = 1; k < perWorkload; ++k)
            row.push_back(bench::percent(
                1.0 - target::riscStats(*results[i + k].stats)
                          .caches.l1i.value_or(mem::LevelStats{})
                          .hitRate()));
        i += perWorkload;
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nMiss penalty modelled at 4 cycles; geometry: "
                 "direct-mapped, 16-byte lines.\nStatic code is "
                 "small (<300 bytes/workload), so caches >= 512 B hold "
                 "entire\nprograms and miss only on cold start.\n";

    const std::string artifact = sim::writeArtifact(
        "bench/out/fig_icache_sweep.json", "X1", results);
    std::cout << "artifact: " << artifact << "\n";
    return 0;
}
