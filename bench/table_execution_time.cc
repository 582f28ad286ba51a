/**
 * Experiment E3 — relative execution time (paper Table: "benchmark
 * execution time, RISC I vs VAX-11/780 and others").  RISC I executes
 * more instructions, but each takes one short cycle; the microcoded
 * CISC averages several cycles per instruction, so RISC I finishes
 * ~2-4x sooner at equal cycle time.
 *
 * Runs on the batch-simulation engine: both machines' runs for every
 * workload are one declarative job set executed on the worker pool,
 * and the per-job results land as a JSON artifact in bench/out/.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "workloads/workloads.hh"

using namespace risc1;

int
bench::runTableExecutionTime()
{
    bench::banner(
        "E3", "Execution time: RISC I vs the CISC baseline (cycles)",
        "RISC I runs ~2-4x faster despite executing more instructions "
        "(its CPI is near 1; the microcoded CISC is ~5-10)");

    // Jobs in pairs: (RISC, CISC) per workload, submission order =
    // table order.
    std::vector<sim::SimJob> jobs;
    for (const auto &w : allWorkloads()) {
        sim::SimJob risc;
        risc.id = cat(w.id, "/risc");
        risc.source = w.riscSource;
        risc.expected = w.expected;
        jobs.push_back(std::move(risc));

        sim::SimJob cisc;
        cisc.id = cat(w.id, "/cisc");
        cisc.backend = "vax";
        cisc.source = w.vaxSource;
        cisc.expected = w.expected;
        jobs.push_back(std::move(cisc));
    }

    const auto results = sim::runBatch(jobs);
    for (const auto &r : results) {
        if (r.status != sim::JobStatus::Ok) {
            std::cerr << "job '" << r.id << "' failed: " << r.error
                      << "\n";
            return 1;
        }
    }

    Table table({"workload", "RISC instrs", "RISC cycles", "RISC CPI",
                 "CISC instrs", "CISC cycles", "CISC CPI",
                 "instr ratio", "speedup"});

    double speedupProduct = 1.0;
    int count = 0;
    std::uint64_t riscCycles = 0, vaxCycles = 0;
    std::size_t i = 0;
    for (const auto &w : allWorkloads()) {
        const RunStats &r = target::riscStats(*results[i].stats).run;
        const VaxStats &v =
            target::vaxStats(*results[i + 1].stats).vax;
        i += 2;
        const double riscCpi = static_cast<double>(r.cycles) /
                               static_cast<double>(r.instructions);
        const double vaxCpi = static_cast<double>(v.cycles) /
                              static_cast<double>(v.instructions);
        const double speedup = static_cast<double>(v.cycles) /
                               static_cast<double>(r.cycles);
        table.addRow({
            w.id,
            Table::num(r.instructions),
            Table::num(r.cycles),
            Table::num(riscCpi, 2),
            Table::num(v.instructions),
            Table::num(v.cycles),
            Table::num(vaxCpi, 2),
            Table::num(static_cast<double>(r.instructions) /
                           static_cast<double>(v.instructions),
                       2),
            Table::num(speedup, 2),
        });
        speedupProduct *= speedup;
        ++count;
        riscCycles += r.cycles;
        vaxCycles += v.cycles;
    }

    table.addSeparator();
    table.addRow({
        "ALL", "", Table::num(riscCycles), "", "",
        Table::num(vaxCycles), "", "",
        Table::num(static_cast<double>(vaxCycles) /
                       static_cast<double>(riscCycles),
                   2),
    });
    table.print(std::cout);

    std::cout << "\ngeometric-mean speedup: "
              << Table::num(std::pow(speedupProduct, 1.0 / count), 2)
              << "x (cycles at equal cycle time)\n";

    const std::string artifact = sim::writeArtifact(
        "bench/out/table_execution_time.json", "E3", results);
    std::cout << "artifact: " << artifact << "\n";
    return 0;
}
