/**
 * End-to-end socket transport tests (server/server.hh + client.hh):
 * an in-process SocketServer serving a real Service over Unix-domain
 * and localhost TCP sockets.  Covers the whole wire path — framing,
 * pipelined ids, async run replies, malformed/oversized frames
 * closing the connection, concurrent connections, and graceful stop.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_value.hh"
#include "common/logging.hh"
#include "server/client.hh"
#include "server/frame.hh"
#include "server/protocol.hh"
#include "server/server.hh"

using namespace risc1;
using namespace risc1::server;

namespace {

/** A running daemon (Service + SocketServer) torn down in order. */
class TestDaemon
{
  public:
    explicit TestDaemon(ServerConfig serverConfig,
                        ServiceConfig serviceConfig = makeServiceConfig())
        : service_(serviceConfig),
          server_(service_, std::move(serverConfig))
    {
        server_.start();
    }

    ~TestDaemon()
    {
        service_.stop();
        server_.stop();
        std::error_code ec;
        std::filesystem::remove_all(service_.config().spoolDir, ec);
    }

    Service &service() { return service_; }
    SocketServer &server() { return server_; }

    static ServiceConfig
    makeServiceConfig()
    {
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.quota = 2000;
        cfg.spoolDir = "server_socket_spool";
        return cfg;
    }

  private:
    Service service_;
    SocketServer server_;
};

/** Short relative socket path (sockaddr_un caps at ~107 bytes). */
std::string
socketPath(const char *tag)
{
    return std::string("rs_test_") + tag + ".sock";
}

/** Lines in /proc/self/maps: the process's mapped regions. */
std::size_t
mappedRegions()
{
    std::ifstream maps("/proc/self/maps");
    EXPECT_TRUE(maps.is_open());
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

} // namespace

TEST(ServerSocket, UnixSocketFullSession)
{
    const std::string path = socketPath("unix");
    {
        ServerConfig cfg;
        cfg.unixPath = path;
        TestDaemon daemon(cfg);

        Client client = Client::connectUnix(path);
        EXPECT_TRUE(client.callOk("{\"cmd\":\"ping\"}").boolOr("ok",
                                                               false));

        const std::string id =
            client
                .callOk("{\"cmd\":\"create\",\"backend\":\"risc\","
                        "\"workload\":\"fib_rec\"}")
                .stringOr("session", "");
        ASSERT_FALSE(id.empty());

        const JsonValue run =
            client.callOk("{\"cmd\":\"run\",\"session\":\"" + id +
                          "\",\"maxSteps\":100000000}");
        EXPECT_TRUE(run.boolOr("halted", false));
        EXPECT_GT(run.u64Or("steps", 0), 0u);

        client.callOk("{\"cmd\":\"destroy\",\"session\":\"" + id +
                      "\"}");
    }
    EXPECT_FALSE(std::filesystem::exists(path))
        << "stop() must unlink the socket";
}

TEST(ServerSocket, TcpEphemeralPort)
{
    ServerConfig cfg;
    cfg.tcp = true;
    cfg.tcpPort = 0;
    TestDaemon daemon(cfg);
    ASSERT_NE(daemon.server().tcpPort(), 0)
        << "ephemeral bind must report the real port";

    Client client = Client::connectTcp(daemon.server().tcpPort());
    const JsonValue info = client.callOk("{\"cmd\":\"info\"}");
    EXPECT_EQ(info.u64Or("protocolVersion", 0), kProtocolVersion);
}

TEST(ServerSocket, InfoAndTelemetryOverTheWire)
{
    // The observability surface as a real client sees it: info carries
    // uptime/command totals/build identity, and telemetry returns the
    // registry in both JSON and Prometheus form.
    const std::string path = socketPath("tele");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);

    Client client = Client::connectUnix(path);
    const std::string id =
        client
            .callOk("{\"cmd\":\"create\",\"backend\":\"risc\","
                    "\"workload\":\"fib_rec\"}")
            .stringOr("session", "");
    client.callOk("{\"cmd\":\"run\",\"session\":\"" + id +
                  "\",\"maxSteps\":100000000}");

    const JsonValue info = client.callOk("{\"cmd\":\"info\"}");
    ASSERT_NE(info.find("uptimeMs"), nullptr);
    // create + run + this info = 3 requests, no errors.
    EXPECT_EQ(info.find("commands")->u64Or("total", 0), 3u);
    EXPECT_EQ(info.find("commands")->u64Or("errors", 1), 0u);
    EXPECT_EQ(info.find("build")->stringOr("name", ""), kServerName);
    EXPECT_EQ(info.find("build")->stringOr("version", ""),
              kServerVersion);

    const JsonValue t = client.callOk("{\"cmd\":\"telemetry\"}");
    const JsonValue *counters = t.find("telemetry")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64Or("server.requests", 0), 4u);
    const JsonValue *hists = t.find("telemetry")->find("histograms");
    EXPECT_EQ(hists->find("cmd.run.ns")->u64Or("count", 0), 1u);

    const std::string text =
        client
            .callOk("{\"cmd\":\"telemetry\",\"format\":\"prometheus\"}")
            .stringOr("exposition", "");
    EXPECT_NE(text.find("riscserved_server_requests_total 5"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE riscserved_cmd_run_ns histogram"),
              std::string::npos);
}

TEST(ServerSocket, ServerErrorsAreRepliesNotDisconnects)
{
    const std::string path = socketPath("err");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);

    Client client = Client::connectUnix(path);
    const JsonValue bad = client.call("{\"cmd\":\"frobnicate\"}");
    EXPECT_FALSE(bad.boolOr("ok", true));
    EXPECT_NE(bad.stringOr("error", "").find("unknown command"),
              std::string::npos);

    // Invalid JSON in a well-framed request: still just an error
    // reply — the connection survives both.
    EXPECT_FALSE(client.call("this is not json").boolOr("ok", true));
    EXPECT_TRUE(client.callOk("{\"cmd\":\"ping\"}").boolOr("ok", false));
}

TEST(ServerSocket, MalformedFrameClosesConnection)
{
    const std::string path = socketPath("mal");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);

    Client client = Client::connectUnix(path);
    const std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
    client.sendBytes(junk, sizeof junk);

    // One final error frame, then EOF.
    const auto reply = client.readRawResponse();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("framing error"), std::string::npos);
    EXPECT_FALSE(client.readRawResponse().has_value())
        << "connection must close after a framing error";
}

TEST(ServerSocket, ResponseFrameFromClientClosesConnection)
{
    const std::string path = socketPath("resp");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);

    Client client = Client::connectUnix(path);
    const auto frame =
        encodeFrame(FrameType::Response, 1, "{\"cmd\":\"ping\"}");
    client.sendBytes(frame.data(), frame.size());
    const auto reply = client.readRawResponse();
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(parseJson(*reply).boolOr("ok", true));
    EXPECT_FALSE(client.readRawResponse().has_value());
}

TEST(ServerSocket, OversizedFrameRejected)
{
    const std::string path = socketPath("big");
    ServerConfig cfg;
    cfg.unixPath = path;
    cfg.maxPayload = 1024;
    TestDaemon daemon(cfg);

    Client client = Client::connectUnix(path);
    // Header alone claims 16 MiB — rejected before any payload is
    // read or buffered.
    auto header = encodeFrame(FrameType::Request, 1, "");
    header[8] = 0;
    header[9] = 0;
    header[10] = 0;
    header[11] = 1;
    client.sendBytes(header.data(), kFrameHeaderBytes);
    const auto reply = client.readRawResponse();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("payload exceeds limit"), std::string::npos);
    EXPECT_FALSE(client.readRawResponse().has_value());
}

TEST(ServerSocket, ConcurrentConnectionsShareSessions)
{
    // Sessions belong to the Service, not the connection: one client
    // creates, another steps it; meanwhile several clients hammer the
    // daemon in parallel without cross-talk.
    const std::string path = socketPath("conc");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);

    Client a = Client::connectUnix(path);
    const std::string shared =
        a.callOk("{\"cmd\":\"create\",\"backend\":\"risc\","
                 "\"workload\":\"fib_rec\"}")
            .stringOr("session", "");
    {
        Client b = Client::connectUnix(path);
        EXPECT_EQ(b.callOk("{\"cmd\":\"step\",\"session\":\"" + shared +
                           "\",\"count\":10}")
                      .u64Or("steps", 0),
                  10u);
    }

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            try {
                Client c = Client::connectUnix(path);
                const std::string id =
                    c.callOk("{\"cmd\":\"create\",\"backend\":\"" +
                             std::string(t % 2 ? "vax" : "risc") +
                             "\",\"workload\":\"fib_rec\"}")
                        .stringOr("session", "");
                for (int i = 0; i < 5; ++i) {
                    c.callOk("{\"cmd\":\"step\",\"session\":\"" + id +
                             "\",\"count\":50}");
                    c.callOk("{\"cmd\":\"regs\",\"session\":\"" + id +
                             "\"}");
                }
                c.callOk("{\"cmd\":\"run\",\"session\":\"" + id +
                         "\",\"maxSteps\":100000000}");
                c.callOk("{\"cmd\":\"destroy\",\"session\":\"" + id +
                         "\"}");
            } catch (const FatalError &) {
                ++failures;
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // The shared session is still alive and consistent.
    EXPECT_EQ(a.callOk("{\"cmd\":\"stats\",\"session\":\"" + shared +
                       "\"}")
                  .find("result")
                  ->find("stats")
                  ->u64Or("instructions", 0),
              10u);
}

TEST(ServerSocket, BothListenersServeTheSameService)
{
    const std::string path = socketPath("both");
    ServerConfig cfg;
    cfg.unixPath = path;
    cfg.tcp = true;
    TestDaemon daemon(cfg);

    Client viaUnix = Client::connectUnix(path);
    Client viaTcp = Client::connectTcp(daemon.server().tcpPort());
    const std::string id =
        viaUnix
            .callOk("{\"cmd\":\"create\",\"backend\":\"vax\","
                    "\"workload\":\"fib_rec\"}")
            .stringOr("session", "");
    EXPECT_TRUE(viaTcp
                    .callOk("{\"cmd\":\"regs\",\"session\":\"" + id +
                            "\"}")
                    .boolOr("ok", false));
}

TEST(ServerSocket, StopWithLiveConnections)
{
    // stop() with clients still connected must not hang or crash; the
    // clients observe EOF.
    const std::string path = socketPath("stop");
    ServerConfig cfg;
    cfg.unixPath = path;
    auto daemon = std::make_unique<TestDaemon>(cfg);

    Client client = Client::connectUnix(path);
    client.callOk("{\"cmd\":\"ping\"}");
    daemon.reset(); // Service::stop() + SocketServer::stop()
    EXPECT_FALSE(client.readRawResponse().has_value());
}

TEST(ServerSocket, ClosedConnectionsAreReaped)
{
    // Every reader thread maps a stack.  A server that kept finished
    // readers until stop() would grow by about two regions for each
    // connection it had ever served.
    const std::string path = socketPath("reap");
    ServerConfig cfg;
    cfg.unixPath = path;
    TestDaemon daemon(cfg);
    const auto ping = [&] {
        Client client = Client::connectUnix(path);
        client.callOk("{\"cmd\":\"ping\"}");
    };
    for (int i = 0; i < 4; ++i) // first stacks and allocator arenas
        ping();
    const std::size_t before = mappedRegions();
    for (int i = 0; i < 32; ++i)
        ping();
    EXPECT_LT(mappedRegions(), before + 16);
}
