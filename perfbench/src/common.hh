/**
 * @file
 * Shared plumbing for the perfbench binary: run options, the metric
 * sink every workload fills, host probes (peak RSS, hypervisor steal),
 * percentiles, and the seeded input generator.
 */
#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p t0 to now. */
double msSince(Clock::time_point t0);

/** Milliseconds between two time points. */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Set up once, report the set-up time and stop (one setup_s sample). */
    bool setupOnly = false;
    /** Directory for the Chrome trace and the per-layer table. */
    std::string outDir = ".bench_build/out";
};

/** Engine workers every workload uses (sweep, diff and serve). */
inline constexpr unsigned kWorkers = 2;

/**
 * Set-ups per untraced run, each in a fresh process (the run's own and
 * kSetups - 1 --setup-only ones); the reported setup_s is their median.
 */
inline constexpr int kSetups = 5;

/**
 * Sweep and diff report their rates at the fast decile of their units
 * (a sweep variant's passes, windows of diff seeds): this share of
 * units ran faster.  Other guests' load on the host only ever slows a
 * unit down, and on a shared 4-vCPU VM it slowed passes by up to 30 %
 * in phases of seconds to minutes, which move the median of a run's
 * units further than its fast decile.
 */
inline constexpr double kFastDecile = 0.10;

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric sink; set() replaces an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &items() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when a correctness gate other than a failed op tripped. */
    bool gatesOk = true;
    double setupS = 0.0;  ///< this process's one set-up
    Metrics endToEnd;  ///< tracing off (the --trace 0 result)
    Metrics layers;    ///< per-layer metrics (the --trace 1 result)
    Metrics record;    ///< extra run-record fields (noise triage)
};

/**
 * The end-to-end metrics of BENCHMARK.json but setup_s, which main()
 * adds from the set-ups of several processes: ops_per_s,
 * sim_minstr_per_s and peak_rss_mib.
 */
void endToEnd(double opsPerS, double minstrPerS, Metrics &m);

/**
 * While alive, one SCHED_IDLE thread per kept CPU spins, so a vCPU
 * never halts and a wake-up is the guest scheduler's, not the
 * hypervisor's.  Any runnable thread preempts it at once.
 */
class IdleSpinners
{
  public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners &) = delete;
    IdleSpinners &operator=(const IdleSpinners &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** Linear-interpolation percentile (obs::percentileSorted), p in [0,1]. */
double percentile(std::vector<double> values, double p);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMib();

/** Cumulative hypervisor steal over all CPUs since boot, in ms. */
double stealMs();

/** FNV-1a fold of one 32-bit word (riscdiff's digest flavour). */
std::uint32_t fnvFold(std::uint32_t h, std::uint32_t v);

/** FNV-1a offset basis. */
inline constexpr std::uint32_t kFnvBasis = 2166136261u;

/** The seeded generator all workload inputs come from. */
using Rng = std::mt19937_64;

/** A generator for stream @p stream of workload seed @p seed. */
Rng seededRng(std::uint64_t seed, std::uint64_t stream);

/** Set this thread's timer slack to 1 ns (PR_SET_TIMERSLACK). */
void tightenTimerSlack();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
