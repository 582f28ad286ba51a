/**
 * riscserved — the long-lived simulation-as-a-service daemon
 * (docs/SERVER.md).
 *
 * Keeps many machine sessions resident, multiplexes their `run`
 * commands onto one sim::Engine worker pool with quota-sliced
 * round-robin turns, and spools idle sessions to disk past a
 * configurable TTL.  Speaks the framed JSON protocol over a
 * Unix-domain socket and/or localhost TCP.
 *
 *     riscserved --unix riscserved.sock
 *     riscserved --tcp 7031 --workers 4 --ttl-ms 5000
 *
 * Flags:
 *     --unix PATH        listen on a Unix-domain socket (short paths!)
 *     --tcp PORT         listen on 127.0.0.1:PORT (0 = ephemeral; the
 *                        "ready" line prints the bound port)
 *     --workers N        engine worker threads (0 = hardware threads)
 *     --quota N          max instructions per scheduling turn
 *     --ttl-ms N         idle eviction threshold (-1 never, 0 asap)
 *     --spool DIR        eviction spool directory
 *     --max-sessions N   session cap (also sizes the engine run queue)
 *     --mem BYTES        default per-session memory
 *
 * Telemetry (docs/OBSERVABILITY.md):
 *     --event-log PATH       structured JSONL event log (appended)
 *     --event-log-level L    debug|info|warn (default info)
 *     --slow-ms MS           log commands slower than MS as warn
 *                            `slow.command` events (0 = off)
 *     --metrics-dump PATH    write the Prometheus text exposition to
 *                            PATH after the drain completes
 *
 * Prints one "riscserved: ready ..." line once listening — scripts
 * wait for it.  SIGINT/SIGTERM drain gracefully: pending runs are
 * failed with "server shutting down", every worker joins, exit 0.
 */

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "server/protocol.hh"
#include "server/server.hh"

using namespace risc1;

namespace {

int g_signalPipe[2] = {-1, -1};

void
onSignal(int sig)
{
    const unsigned char byte = static_cast<unsigned char>(sig);
    // Async-signal-safe: just poke the main thread awake.
    [[maybe_unused]] const ssize_t n =
        ::write(g_signalPipe[1], &byte, 1);
}

int
usage()
{
    std::cerr
        << "usage: riscserved (--unix PATH | --tcp PORT) [--workers N]\n"
           "                  [--quota N] [--ttl-ms N] [--spool DIR]\n"
           "                  [--max-sessions N] [--mem BYTES]\n"
           "                  [--event-log PATH] [--event-log-level "
           "debug|info|warn]\n"
           "                  [--slow-ms MS] [--metrics-dump PATH]\n";
    return 2;
}

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    if (value.empty() || value.size() > 18 ||
        value.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(value);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServiceConfig svc;
    server::ServerConfig net;
    std::string metricsDumpPath;
    svc.spoolDir = "riscserved.spool";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return ++i < argc ? argv[i] : nullptr;
        };
        std::uint64_t n = 0;
        if (arg == "--unix") {
            const char *v = value();
            if (!v)
                return usage();
            net.unixPath = v;
        } else if (arg == "--tcp") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n > 65535)
                return usage();
            net.tcp = true;
            net.tcpPort = static_cast<std::uint16_t>(n);
        } else if (arg == "--workers") {
            const char *v = value();
            if (!v || !parseU64(v, n))
                return usage();
            svc.workers = static_cast<unsigned>(n);
        } else if (arg == "--quota") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            svc.quota = n;
        } else if (arg == "--ttl-ms") {
            const char *v = value();
            if (!v)
                return usage();
            std::string s = v;
            const bool neg = !s.empty() && s[0] == '-';
            if (neg)
                s.erase(0, 1);
            if (!parseU64(s, n))
                return usage();
            svc.ttlMs = neg ? -std::int64_t(n) : std::int64_t(n);
        } else if (arg == "--spool") {
            const char *v = value();
            if (!v)
                return usage();
            svc.spoolDir = v;
        } else if (arg == "--max-sessions") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            svc.maxSessions = n;
        } else if (arg == "--mem") {
            const char *v = value();
            if (!v || !parseU64(v, n) || n == 0)
                return usage();
            svc.defaultMemBytes = n;
        } else if (arg == "--event-log") {
            const char *v = value();
            if (!v)
                return usage();
            svc.eventLogPath = v;
        } else if (arg == "--event-log-level") {
            const char *v = value();
            if (!v)
                return usage();
            svc.eventLogLevel = v;
        } else if (arg == "--slow-ms") {
            const char *v = value();
            if (!v || !parseU64(v, n))
                return usage();
            svc.slowMs = double(n);
        } else if (arg == "--metrics-dump") {
            const char *v = value();
            if (!v)
                return usage();
            metricsDumpPath = v;
        } else {
            return usage();
        }
    }
    if (net.unixPath.empty() && !net.tcp)
        return usage();

    if (::pipe(g_signalPipe) != 0) {
        std::cerr << "riscserved: pipe: " << std::strerror(errno)
                  << "\n";
        return 1;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    try {
        server::Service service(svc);
        server::SocketServer sockets(service, net);
        sockets.start();

        std::cout << "riscserved: ready";
        if (!net.unixPath.empty())
            std::cout << " unix:" << net.unixPath;
        if (net.tcp)
            std::cout << " tcp:127.0.0.1:" << sockets.tcpPort();
        std::cout << " workers=" << service.engine().workers()
                  << " quota=" << svc.quota << " ttlMs=" << svc.ttlMs
                  << std::endl;

        unsigned char sig = 0;
        while (::read(g_signalPipe[0], &sig, 1) < 0 && errno == EINTR) {
        }
        std::cout << "riscserved: signal " << int(sig)
                  << " received, draining" << std::endl;

        // Drain order: fail pending runs first (their error replies
        // still reach connected clients), then tear down the sockets.
        service.stop();
        sockets.stop();
        if (!metricsDumpPath.empty()) {
            std::ofstream dump(metricsDumpPath);
            if (!dump) {
                std::cerr << "riscserved: cannot write metrics dump "
                          << metricsDumpPath << "\n";
                return 1;
            }
            dump << service.registry().prometheus();
            std::cout << "riscserved: metrics dumped to "
                      << metricsDumpPath << std::endl;
        }
        std::cout << "riscserved: drained, exiting" << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "riscserved: " << e.what() << "\n";
        return 1;
    }
}
