/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload sweep|diff|serve --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--setup-only 1]
 *
 * Links the risc1, risc1_sim and risc1_server libraries and calls only
 * their public functions.  Prints a run record, the metric table, and
 * as its last line one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones (tracing off);
 * with --trace 1 they are the per-layer ones, and the run also writes
 * a Chrome trace and a per-layer table under --out-dir.  Exits 1 when
 * any operation failed, a correctness gate tripped or a metric is not
 * finite, 2 on bad usage.  An untraced run takes its setup_s samples
 * from fresh processes of itself run with --setup-only 1, which set up
 * once and print "setup_s <seconds> failed <warm-up failures>".
 * See perfbench/README.md.
 */
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Layers the traced run attributes self time to. */
const char *const kTracedLayers[] = {"sim", "target", "asm", "dispatch",
                                     "lang", "server"};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep|diff|serve --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--setup-only 1]\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, Options &opts)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                opts.workload = value;
                haveWorkload = true;
            } else if (key == "--seed") {
                opts.seed = std::stoull(value);
            } else if (key == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1")
                    return false;
                opts.trace = value == "1";
            } else if (key == "--out-dir") {
                opts.outDir = value;
            } else if (key == "--setup-only") {
                if (value != "1")
                    return false;
                opts.setupOnly = true;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload &&
           (opts.workload == "sweep" || opts.workload == "diff" ||
            opts.workload == "serve") &&
           opts.seconds > 0.0 && opts.seconds <= 120.0;
}

std::string
fileStem(const Options &opts)
{
    return risc1::cat(opts.outDir, "/", opts.workload, "-seed", opts.seed);
}

/** Numbers in the result line: every digit measured; null if not finite. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string
jsonMetrics(const Metrics &m)
{
    std::string s = "{";
    for (const Metric &x : m.items()) {
        if (s.size() > 1)
            s += ", ";
        s += risc1::cat("\"", x.name, "\": {\"value\": ", number(x.value),
                        ", \"unit\": \"", x.unit, "\"}");
    }
    return s + "}";
}

bool
debugBuild()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

/**
 * Confine the process to the first kWorkers CPUs it may use, before
 * any thread starts (every thread inherits the mask).  Probes on a
 * 4-vCPU VM put the serve p50 at 0.074-0.143 ms across runs when
 * threads roamed all four vCPUs and 0.108-0.120 ms when confined to
 * two: where a wake-up lands changes its cost by a factor of two.
 * @return the CPUs kept, as "a,b" ("" when the mask was left alone).
 */
std::string
confineCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) < int(kWorkers))
        return "";
    cpu_set_t mine;
    CPU_ZERO(&mine);
    std::string list;
    for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < int(kWorkers);
         ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        CPU_SET(cpu, &mine);
        list += risc1::cat(kept++ ? "," : "", cpu);
    }
    if (::sched_setaffinity(0, sizeof mine, &mine) != 0)
        return "";
    return list;
}

/** The run record: what a noisy result needs to be triaged. */
std::string
runRecord(const Options &opts, const Outcome &out, double stealMsDelta,
          const std::string &cpus)
{
    std::string s = risc1::cat(
        "{\"workload\": \"", opts.workload, "\", \"seed\": ", opts.seed,
        ", \"seconds\": ", number(opts.seconds),
        ", \"trace\": ", opts.trace ? 1 : 0,
        ", \"build_type\": \"", PERFBENCH_BUILD_TYPE,
        "\", \"cxx_flags\": \"", PERFBENCH_CXX_FLAGS,
        "\", \"compiler\": \"", PERFBENCH_COMPILER,
        "\", \"debug_build\": ", debugBuild() ? "true" : "false",
        ", \"sanitized_build\": ", sanitizedBuild() ? "true" : "false",
        ", \"nproc\": ", std::thread::hardware_concurrency(),
        ", \"cpus\": \"", cpus, "\"",
        ", \"engine_workers\": ", kWorkers,
        ", \"host.steal_ms\": ", number(stealMsDelta));
    for (const Metric &x : out.record.items())
        s += risc1::cat(", \"", x.name, "\": ", number(x.value));
    return s + "}";
}

/**
 * One set-up of @p opts.workload in each of kSetups - 1 fresh processes
 * of this binary, one after another.  Each pays the process-wide costs
 * a first set-up pays (lazy initialisation, caches filled on first use)
 * that a second set-up in one process would not.  Adds their warm-up
 * failures to @p failed.  @return their set-up times in seconds.
 */
std::vector<double>
freshSetups(const Options &opts, std::uint64_t &failed)
{
    const char *const self = "/proc/self/exe";
    std::vector<std::string> args = {
        self, "--workload", opts.workload, "--seed",
        std::to_string(opts.seed), "--seconds", "1", "--trace", "0",
        "--out-dir", opts.outDir, "--setup-only", "1"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::vector<double> seconds;
    for (int i = 1; i < kSetups; ++i) {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        ::posix_spawn_file_actions_init(&actions);
        ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        ::posix_spawn_file_actions_addclose(&actions, fds[0]);
        ::posix_spawn_file_actions_addclose(&actions, fds[1]);
        pid_t pid = 0;
        const int rc = ::posix_spawn(&pid, self, &actions, nullptr,
                                     argv.data(), environ);
        ::posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        std::string text;
        char buf[512];
        ssize_t n = 0;
        while (rc == 0 && ((n = ::read(fds[0], buf, sizeof buf)) > 0 ||
                           (n < 0 && errno == EINTR)))
            if (n > 0)
                text.append(buf, std::size_t(n));
        ::close(fds[0]);
        int status = 0;
        while (rc == 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        const std::size_t line = text.rfind("setup_s ");
        double s = 0.0;
        unsigned long long f = 0;
        if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
            line == std::string::npos ||
            std::sscanf(text.c_str() + line, "setup_s %lf failed %llu", &s,
                        &f) != 2)
            throw std::runtime_error("a --setup-only process failed");
        seconds.push_back(s);
        failed += f;
    }
    return seconds;
}

Outcome
runWorkload(const Options &opts)
{
    return opts.workload == "sweep" ? runSweep(opts)
           : opts.workload == "diff" ? runDiff(opts)
                                     : runServe(opts);
}

} // namespace

void
finishTrace(const Options &opts, const char *metric, double untraced,
            double traced, bool higherIsBetter, Metrics &out)
{
    const auto totals = layerTotals();
    const std::string tracePath = fileStem(opts) + "-trace.json";
    const std::string tablePath = fileStem(opts) + "-layers.txt";
    writeChromeTrace(tracePath);

    std::string table = risc1::cat(
        "layer      spans      busy_ms      self_ms      wait_ms\n");
    for (const auto &[layer, t] : totals) {
        char line[160];
        std::snprintf(line, sizeof line, "%-9s %6llu %12.3f %12.3f %12.3f\n",
                      layer.c_str(), (unsigned long long)t.count, t.busyMs,
                      t.selfMs, t.waitMs);
        table += line;
    }
    const double worse = higherIsBetter ? untraced - traced
                                        : traced - untraced;
    const double overheadPct = untraced > 0.0 ? worse / untraced * 100.0
                                              : 0.0;
    table += risc1::cat("tracing overhead: ", number(overheadPct), " % on ",
                        metric, " (untraced ", number(untraced),
                        ", traced ", number(traced), "), ", spanCount(),
                        " spans\n");
    std::ofstream(tablePath) << table;
    std::printf("%s", table.c_str());
    std::printf("trace: %s (Chrome trace-event JSON; open in "
                "ui.perfetto.dev)\n", tracePath.c_str());

    out.set("trace.overhead_pct", overheadPct, "%");
    for (const char *layer : kTracedLayers) {
        const auto it = totals.find(layer);
        out.set(risc1::cat("trace.self_ms.", layer),
                it == totals.end() ? 0.0 : it->second.selfMs, "ms");
    }
    clearSpans();
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    if (!parseOptions(argc, argv, opts))
        return usage();

    if (opts.setupOnly) {
        try {
            const Outcome out = runWorkload(opts);
            std::printf("setup_s %.9g failed %llu\n", out.setupS,
                        (unsigned long long)out.failed);
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
            return 1;
        }
    }

    const std::string cpus = confineCpus();
    try {
        std::filesystem::create_directories(opts.outDir);
        // Spin before the first set-up too: an idle vCPU takes a while
        // to run at full speed, and set-up would absorb it.
        const IdleSpinners spinners;
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        std::uint64_t setupFailed = 0;
        std::vector<double> setups;
        if (!opts.trace)
            setups = freshSetups(opts, setupFailed);
        const double steal0 = stealMs();
        Outcome out = runWorkload(opts);
        setups.push_back(out.setupS);
        out.failed += setupFailed;
        out.endToEnd.set("setup_s", median(setups), "s");
        if (opts.trace) {
            commonLayerMetrics(opts, out.layers);
            requestPathLayerMetrics(opts, out.layers);
            if (opts.workload != "diff")
                langLayerMetrics(opts.seed, 48, out.layers);
            if (opts.workload != "serve")
                serveLayerMetrics(opts, 2.0, out);
        }
        const double steal = stealMs() - steal0;
        if (opts.trace)
            out.layers.set("host.steal_ms", steal, "ms");

        const Metrics &shown = opts.trace ? out.layers : out.endToEnd;
        const std::string record = runRecord(opts, out, steal, cpus);
        std::ofstream(risc1::cat(opts.outDir, "/", opts.workload, "-seed",
                                 opts.seed, "-record.json"))
            << record << "\n";
        std::printf("run_record: %s\n", record.c_str());
        for (const Metric &m : shown.items())
            std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        bool finite = true;
        for (const Metric &m : shown.items()) {
            if (!std::isfinite(m.value)) {
                std::printf("perfbench: %s is not finite\n", m.name.c_str());
                finite = false;
            }
        }
        const bool correct = out.failed == 0 && out.gatesOk && finite;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    correct ? "true" : "false",
                    (unsigned long long)out.attempted,
                    (unsigned long long)out.failed,
                    jsonMetrics(shown).c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
