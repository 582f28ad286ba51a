/**
 * Extension X3 — snapshot fork fan-out: copy-on-write vs deep copy.
 *
 * The paper's comparative method needs large populations of scenario
 * runs forked off one warmed machine (riscdiff seed sweeps, riscload
 * session fleets).  Before the copy-on-write page store every fork
 * deep-copied the machine's dirty pages, so memory — not CPU — capped
 * the fan-out.  This experiment measures both regimes directly: warm
 * one machine until it has dirtied a spread of pages, then fork it
 * 1 → 10,000 ways with Target::fork() (shared pages) and with
 * materialized deep copies (the old semantics), recording wall-clock
 * fork latency and the process RSS growth per forked scenario.
 *
 * Unlike the table experiments, the output is timing- and
 * allocator-dependent, so it is NOT golden-covered; the artifact
 * (bench/out/BENCH_fork.json) is uploaded by CI, and the run itself
 * enforces two gates (EXPERIMENTS.md X3):
 *
 *   - the 10k-way copy-on-write fleet's incremental RSS stays under
 *     kCowRssBudgetBytes, and
 *   - per forked scenario, copy-on-write costs at least 10x less
 *     incremental memory than the deep-copy baseline.
 *
 * RSS is read from /proc/self/status (VmRSS); on platforms without
 * it the gates are skipped (latency is still reported).
 */

#include <chrono>
#include <filesystem>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiments.hh"
#include "target/machine_target.hh"
#include "target/registry.hh"

using namespace risc1;

namespace {

/** RSS budget for the 10,000-way copy-on-write fleet (bytes). */
constexpr std::uint64_t kCowRssBudgetBytes = 512ull << 20;

/** Required deep-copy : copy-on-write per-fork memory ratio. */
constexpr double kMinMemoryRatio = 10.0;

constexpr std::uint32_t kFlagAddr = 0x7000;
constexpr std::uint32_t kFlagValue = 0xabcd;

/**
 * Warm-up program: dirty 128 pages (512 KiB — a realistic warmed
 * working set against the 1 MiB machine), raise a flag, then loop a
 * small checksum so forks remain runnable.
 */
constexpr const char *kProgram = R"(
start:  ldi   r5, 0x20000
        ldi   r6, 128
        ldi   r4, 4096
warm:   stl   r6, (r5)
        add   r5, r5, r4
        dec   r6
        cmp   r6, 0
        bne   warm
        nop
        ldi   r5, 0x7000
        ldi   r6, 0xabcd
        stl   r6, (r5)
        clr   r1
        ldi   r6, 50
loop:   add   r1, r1, r6
        dec   r6
        cmp   r6, 0
        bne   loop
        nop
        halt
)";

/** Current VmRSS in bytes, or 0 when /proc is unavailable. */
std::uint64_t
readRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kib = 0;
        fields >> kib;
        return kib * 1024;
    }
    return 0;
}

target::TargetOptions
smallMachine()
{
    // 1 MiB keeps the fixed per-machine page tables small so the
    // 10k-way fleet measures sharing, not table overhead; the window
    // save areas move below the 1 MiB line to match.
    target::TargetOptions options;
    options.risc.memorySize = 1u << 20;
    options.risc.saveAreaTop = 0x000f8000;
    options.risc.softAreaTop = 0x000f0000;
    return options;
}

/** Deep-copy an image: fresh Page objects, nothing shared. */
MemoryImage
materialize(const MemoryImage &image)
{
    MemoryImage copy;
    copy.entries.reserve(image.entries.size());
    for (const auto &entry : image.entries) {
        MemoryImage::Entry e;
        e.base = entry.base;
        e.length = entry.length;
        e.page = std::make_shared<Page>(*entry.page);
        copy.entries.push_back(std::move(e));
    }
    return copy;
}

struct Sample
{
    std::string mode;       ///< "cow" or "deep"
    std::size_t fanout = 0;
    double createMs = 0.0;  ///< wall-clock to build the whole fleet
    double perForkUs = 0.0;
    std::uint64_t rssDeltaBytes = 0;
    double perForkBytes = 0.0;
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

/**
 * Release freed arena memory back to the OS so each fleet's RSS delta
 * measures its own allocations, not what earlier fleets left retained
 * in the allocator.
 */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

Sample
measureFleet(const std::string &mode, std::size_t fanout,
             const target::Target &base,
             const target::TargetOptions &options)
{
    trimHeap();
    const std::uint64_t rss0 = readRssBytes();
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::unique_ptr<target::Target>> fleet;
    fleet.reserve(fanout);
    if (mode == "cow") {
        for (std::size_t i = 0; i < fanout; ++i)
            fleet.push_back(base.fork());
    } else {
        const auto snap = base.snapshot();
        const auto &riscSnap =
            dynamic_cast<const target::RiscTargetSnapshot &>(*snap);
        for (std::size_t i = 0; i < fanout; ++i) {
            // The pre-copy-on-write semantics: every fork owns a
            // private copy of every dirty page.
            MachineSnapshot deep = riscSnap.machineSnapshot();
            deep.pages = materialize(deep.pages);
            auto clone = target::makeTarget("risc", options);
            clone->restore(target::RiscTargetSnapshot(std::move(deep)));
            fleet.push_back(std::move(clone));
        }
    }

    Sample s;
    s.mode = mode;
    s.fanout = fanout;
    s.createMs = msSince(t0);
    s.perForkUs = s.createMs * 1000.0 / double(fanout);
    const std::uint64_t rss1 = readRssBytes();
    s.rssDeltaBytes = rss1 > rss0 ? rss1 - rss0 : 0;
    s.perForkBytes = double(s.rssDeltaBytes) / double(fanout);

    // Sanity: the fleet really carries the warmed state.
    if (fleet.back()->peekWord(kFlagAddr) != kFlagValue)
        fatal("forked machine lost the warmed memory image");
    return s;
}

} // namespace

int
bench::runFigForkFanout()
{
    bench::banner(
        "X3", "Snapshot fork fan-out: copy-on-write vs deep copy",
        "forking a scenario costs the pages it touches, not the "
        "machine's memory size, so population studies scale by CPU "
        "rather than RAM");

    const target::TargetOptions options = smallMachine();
    auto base = target::makeTarget("risc", options);
    base->load(kProgram);
    int guard = 0;
    while (base->peekWord(kFlagAddr) != kFlagValue) {
        base->step();
        if (++guard > 100'000)
            fatal("warm-up did not reach the flag");
    }
    const MemoryUsage warmed = base->memUsage();
    std::cout << "warmed machine: "
              << (warmed.residentBytes + warmed.sharedBytes) / 1024
              << " KiB of dirty pages in a "
              << options.risc.memorySize / 1024 << " KiB machine\n\n";

    const bool haveRss = readRssBytes() != 0;
    if (!haveRss)
        std::cout << "note: VmRSS unavailable on this platform; "
                     "memory gates skipped\n\n";

    // Copy-on-write fleets first so the deep-copy runs' allocator
    // high-water never distorts their RSS deltas.
    const std::vector<std::size_t> cowLevels = {1, 10, 100, 1000, 10000};
    // Deep copies are capped at 1000 forks (10k would need ~5 GiB);
    // the per-fork cost is scale-invariant, which is what the ratio
    // gate compares.  The cap is reported, never silent.
    const std::vector<std::size_t> deepLevels = {1, 10, 100, 1000};

    std::vector<Sample> samples;
    for (const std::size_t n : cowLevels)
        samples.push_back(measureFleet("cow", n, *base, options));
    for (const std::size_t n : deepLevels)
        samples.push_back(measureFleet("deep", n, *base, options));
    std::cout << "deep-copy fan-out capped at "
              << deepLevels.back()
              << " (per-fork cost is scale-invariant)\n\n";

    Table table({"mode", "fan-out", "create ms", "us/fork",
                 "RSS delta KiB", "KiB/fork"});
    for (const auto &s : samples)
        table.addRow({s.mode, Table::num(std::uint64_t(s.fanout)),
                      Table::num(s.createMs, 2),
                      Table::num(s.perForkUs, 2),
                      Table::num(s.rssDeltaBytes / 1024),
                      Table::num(s.perForkBytes / 1024.0, 2)});
    table.print(std::cout);

    const Sample &cowMax = samples[cowLevels.size() - 1];
    const Sample &deepMax = samples.back();
    const double ratio = cowMax.perForkBytes > 0.0
                             ? deepMax.perForkBytes / cowMax.perForkBytes
                             : 0.0;
    std::cout << "\nper-fork memory, deep/cow: "
              << Table::num(ratio, 1) << "x   (gate: >= "
              << Table::num(kMinMemoryRatio, 0) << "x)\n"
              << "cow 10k-way RSS delta: "
              << cowMax.rssDeltaBytes / (1024 * 1024)
              << " MiB   (budget: " << kCowRssBudgetBytes / (1024 * 1024)
              << " MiB)\n";

    bool ok = true;
    if (haveRss && cowMax.rssDeltaBytes > kCowRssBudgetBytes) {
        std::cerr << "FAIL: 10k-way copy-on-write fan-out used "
                  << cowMax.rssDeltaBytes << " bytes of RSS (budget "
                  << kCowRssBudgetBytes << ")\n";
        ok = false;
    }
    if (haveRss && ratio < kMinMemoryRatio) {
        std::cerr << "FAIL: copy-on-write per-fork memory is only "
                  << Table::num(ratio, 1)
                  << "x below the deep-copy baseline (need "
                  << Table::num(kMinMemoryRatio, 0) << "x)\n";
        ok = false;
    }

    JsonWriter json;
    json.beginObject()
        .field("experiment", "fig_fork_fanout")
        .field("backend", "risc")
        .field("memoryBytes", std::uint64_t(options.risc.memorySize))
        .field("dirtyBytes", warmed.residentBytes + warmed.sharedBytes)
        .field("rssAvailable", haveRss)
        .field("cowRssBudgetBytes", kCowRssBudgetBytes)
        .field("minMemoryRatio", kMinMemoryRatio)
        .field("memoryRatio", ratio)
        .field("pass", ok);
    json.key("samples").beginArray();
    for (const auto &s : samples) {
        json.beginObject()
            .field("mode", s.mode)
            .field("fanout", std::uint64_t(s.fanout))
            .field("createMs", s.createMs)
            .field("perForkUs", s.perForkUs)
            .field("rssDeltaBytes", s.rssDeltaBytes)
            .field("perForkBytes", s.perForkBytes)
            .endObject();
    }
    json.endArray().endObject();
    std::filesystem::create_directories("bench/out");
    const char *path = "bench/out/BENCH_fork.json";
    std::ofstream out(path);
    out << json.str() << "\n";
    std::cout << "artifact: " << path << "\n";
    return ok && out ? 0 : 1;
}
