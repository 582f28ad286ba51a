/**
 * riscsim — the command-line driver: assemble and run a RISC I (or
 * CISC baseline) assembly file and report results.
 *
 *   $ ./riscsim prog.s                 # run on RISC I
 *   $ ./riscsim --cisc prog.s          # run on the CISC baseline
 *   $ ./riscsim --windows 4 prog.s     # window-count override
 *   $ ./riscsim --no-windows prog.s    # single-window ablation
 *   $ ./riscsim --trace prog.s         # per-instruction trace
 *   $ ./riscsim --trace-jsonl t.jsonl prog.s  # machine-readable trace
 *   $ ./riscsim --disasm prog.s        # disassemble, don't run
 *   $ ./riscsim --reorganize prog.s    # fill delay slots, then run
 *   $ ./riscsim --l1i 1024,16,4 prog.s # fit a memory hierarchy
 *   $ ./riscsim --l1d 4096,16,4 --l2 65536,32,20,wb prog.s
 *
 * Cache-level specs (--l1i/--l1d/--l2, either backend) use the same
 * `size,line,missPenalty[,wt|wb]` form and parser as riscbatch job
 * files (docs/MEMORY.md), so the two front-ends cannot drift.
 *
 * Tracing goes through the observability layer (src/obs/): --trace
 * prints one line per executed instruction (plus window traps and
 * interrupts) to stdout, --trace-jsonl writes the same event stream as
 * JSON lines to a file; both work on either backend.  See
 * docs/OBSERVABILITY.md for the formats.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/reorganizer.hh"
#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/machine.hh"
#include "isa/disasm.hh"
#include "mem/config.hh"
#include "obs/trace.hh"
#include "vax/vassembler.hh"
#include "vax/vdisasm.hh"
#include "vax/vmachine.hh"

using namespace risc1;

namespace {

int
usage()
{
    std::cerr << "usage: riscsim [--cisc] [--windows N] [--no-windows] "
                 "[--trace] [--disasm]\n               "
                 "[--trace-jsonl FILE] [--max-steps N] "
                 "[--l1i SPEC] [--l1d SPEC] [--l2 SPEC] <file.s>\n"
                 "       cache SPEC: size,line,missPenalty[,wt|wb]\n";
    return 2;
}

/** Per-level cache summary, same layout on either backend. */
void
printMemStats(const mem::HierarchyStats &stats)
{
    const auto show = [](const char *name,
                         const std::optional<mem::LevelStats> &s) {
        if (!s)
            return;
        std::printf("%s:          %llu hits, %llu misses (hit rate "
                    "%.3f), %llu writebacks, %llu penalty cycles\n",
                    name,
                    static_cast<unsigned long long>(s->hits),
                    static_cast<unsigned long long>(s->misses),
                    s->hitRate(),
                    static_cast<unsigned long long>(s->writebacks),
                    static_cast<unsigned long long>(s->penaltyCycles));
    };
    show("l1i", stats.l1i);
    show("l1d", stats.l1d);
    show("l2 ", stats.l2);
}

/**
 * The tracer requested on the command line, plus the sinks and streams
 * it writes through (sinks are non-owning, so they live here).
 */
struct CliTrace
{
    bool enabled() const { return text || jsonl; }

    /** Build the Trace; valid until this object is destroyed. */
    obs::Trace *
    build(bool textOut, const std::string &jsonlPath)
    {
        if (textOut)
            text.emplace(std::cout);
        if (!jsonlPath.empty()) {
            jsonlFile.open(jsonlPath, std::ios::trunc);
            if (!jsonlFile)
                fatal("cannot open trace file '" + jsonlPath + "'");
            jsonl.emplace(jsonlFile);
        }
        if (!enabled())
            return nullptr;
        trace.emplace(/*capacity=*/64);
        if (text)
            trace->addSink(*text);
        if (jsonl)
            trace->addSink(*jsonl);
        return &*trace;
    }

    void
    finish()
    {
        if (trace)
            trace->flush();
    }

    std::optional<obs::TextSink> text;
    std::ofstream jsonlFile;
    std::optional<obs::JsonlSink> jsonl;
    std::optional<obs::Trace> trace;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '" + path + "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
runRisc(const std::string &source, unsigned windows, bool windowed,
        bool trace, const std::string &traceJsonl, bool disasmOnly,
        bool reorganize, std::uint64_t maxSteps,
        const mem::HierarchyConfig &caches)
{
    MachineConfig config;
    config.windows.numWindows = windows;
    config.windowedCalls = windowed;
    config.caches = caches;
    // Pass 1 refuses a location counter past this machine's memory.
    Program program = assembleRisc(source, config.memorySize);
    if (reorganize) {
        ReorgResult result = fillDelaySlots(program);
        std::cout << "reorganiser: " << result.slotsFilled << " of "
                  << result.candidates << " nop slot(s) filled\n";
        program = std::move(result.program);
    }

    if (disasmOnly) {
        for (const auto &seg : program.segments) {
            if (seg.kind != SegmentKind::Code)
                continue;
            for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4) {
                std::uint32_t word = 0;
                for (int b = 3; b >= 0; --b)
                    word = (word << 8) |
                           seg.bytes[i + static_cast<std::size_t>(b)];
                const std::uint32_t addr =
                    seg.base + static_cast<std::uint32_t>(i);
                std::printf("%08x:  %08x  %s\n", addr, word,
                            disassembleWord(word).c_str());
            }
        }
        return 0;
    }

    Machine machine(config);
    machine.loadProgram(program);
    CliTrace tracer;
    machine.setTrace(tracer.build(trace, traceJsonl));
    machine.run(maxSteps);
    tracer.finish();

    std::cout << machine.stats().summary();
    printMemStats(machine.memHierarchyStats());
    std::cout << "registers:\n";
    for (unsigned r = 0; r < 32; r += 4) {
        for (unsigned c = 0; c < 4; ++c)
            std::printf("  r%-2u = %10u", r + c, machine.reg(r + c));
        std::printf("\n");
    }
    return 0;
}

int
runCisc(const std::string &source, bool trace,
        const std::string &traceJsonl, bool disasmOnly,
        std::uint64_t maxSteps, const mem::HierarchyConfig &caches)
{
    VaxConfig config;
    config.caches = caches;
    const Program program = assembleVax(source, config.memorySize);
    if (disasmOnly) {
        for (const auto &seg : program.segments) {
            if (seg.kind != SegmentKind::Code)
                continue;
            for (const auto &line :
                 vaxDisassembleBlock(seg.bytes, seg.base))
                std::printf("%08x:  %s\n", line.address,
                            line.text.c_str());
        }
        return 0;
    }

    VaxMachine machine(config);
    machine.loadProgram(program);
    CliTrace tracer;
    machine.setTrace(tracer.build(trace, traceJsonl));
    machine.run(maxSteps);
    tracer.finish();

    const VaxStats &s = machine.stats();
    std::cout << "cycles:       " << s.cycles << "\n"
              << "instructions: " << s.instructions << "\n"
              << "CPI:          "
              << static_cast<double>(s.cycles) /
                     static_cast<double>(s.instructions)
              << "\n"
              << "calls:        " << s.calls << "\n"
              << "data refs:    " << s.dataAccesses() << "\n";
    printMemStats(machine.memHierarchyStats());
    std::cout << "registers:\n";
    for (unsigned r = 0; r < 16; r += 4) {
        for (unsigned c = 0; c < 4; ++c)
            std::printf("  r%-2u = %10u", r + c, machine.reg(r + c));
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool cisc = false, trace = false, disasmOnly = false;
    bool reorganize = false;
    bool windowed = true;
    unsigned windows = 8;
    std::uint64_t maxSteps = 200'000'000;
    std::string path, traceJsonl;
    mem::HierarchyConfig caches;

    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "--cisc") {
                cisc = true;
            } else if (arg == "--trace") {
                trace = true;
            } else if (arg == "--trace-jsonl" && i + 1 < args.size()) {
                traceJsonl = args[++i];
            } else if (arg == "--disasm") {
                disasmOnly = true;
            } else if (arg == "--reorganize") {
                reorganize = true;
            } else if (arg == "--no-windows") {
                windowed = false;
            } else if (arg == "--windows" && i + 1 < args.size()) {
                windows = static_cast<unsigned>(std::stoul(args[++i]));
            } else if (arg == "--max-steps" && i + 1 < args.size()) {
                maxSteps = std::stoull(args[++i]);
            } else if (arg == "--l1i" && i + 1 < args.size()) {
                caches.l1i =
                    mem::parseLevelSpec(args[++i], "--l1i");
            } else if (arg == "--l1d" && i + 1 < args.size()) {
                caches.l1d =
                    mem::parseLevelSpec(args[++i], "--l1d");
            } else if (arg == "--l2" && i + 1 < args.size()) {
                caches.l2 =
                    mem::parseLevelSpec(args[++i], "--l2");
            } else if (!arg.empty() && arg[0] == '-') {
                return usage();
            } else {
                path = arg;
            }
        }
        if (path.empty())
            return usage();

        const std::string source = readFile(path);
        return cisc ? runCisc(source, trace, traceJsonl, disasmOnly,
                              maxSteps, caches)
                    : runRisc(source, windows, windowed, trace,
                              traceJsonl, disasmOnly, reorganize,
                              maxSteps, caches);
    } catch (const FatalError &e) {
        std::cerr << "riscsim: " << e.what() << "\n";
        return 1;
    }
}
