#include "common.hh"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/registry.hh"

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back(Metric{name, value, unit});
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return risc1::obs::percentileSorted(values, p);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

void
endToEnd(double opsPerS, double minstrPerS, Metrics &m)
{
    m.set("ops_per_s", opsPerS, "1/s");
    m.set("sim_minstr_per_s", minstrPerS, "Minstr/s");
    m.set("peak_rss_mib", peakRssMib(), "MiB");
}

IdleSpinners::IdleSpinners()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof mask, &mask) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &mask))
            continue;
        threads_.emplace_back([this, cpu] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            ::sched_setaffinity(0, sizeof one, &one);
            sched_param none{};
            ::sched_setscheduler(0, SCHED_IDLE, &none);
            while (!stop_.load(std::memory_order_relaxed))
                __builtin_ia32_pause();
        });
    }
}

IdleSpinners::~IdleSpinners()
{
    stop_.store(true);
    for (auto &t : threads_)
        t.join();
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double
stealMs()
{
    // First line: "cpu user nice system idle iowait irq softirq steal ..."
    // in USER_HZ ticks (100 per second on Linux).
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    if (cpu != "cpu")
        return 0.0;
    double field[8] = {};
    for (double &f : field)
        in >> f;
    return field[7] * 10.0;
}

std::uint32_t
fnvFold(std::uint32_t h, std::uint32_t v)
{
    for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 16777619u;
    }
    return h;
}

Rng
seededRng(std::uint64_t seed, std::uint64_t stream)
{
    std::seed_seq seq{std::uint32_t(seed), std::uint32_t(seed >> 32),
                      std::uint32_t(stream), 0x52495343u};
    return Rng(seq);
}

void
tightenTimerSlack()
{
    // The default 50 us slack lets a timed sleep overshoot by most of a
    // cheap command's latency; 1 ns makes the sender wake on time.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

} // namespace perfbench
