/**
 * @file
 * The riscserved socket transport (docs/SERVER.md): accepts
 * connections on a Unix-domain socket and/or a localhost TCP port,
 * decodes request frames (frame.hh), and hands payloads to the
 * Service (protocol.hh).
 *
 * One reader thread per connection, joined and forgotten once its
 * peer has gone (at the next accept); responses are written under a
 * per-connection write mutex so the synchronous command replies and
 * the asynchronous `run` completions (delivered from engine workers)
 * can interleave safely on one socket.  A framing error is answered
 * with one final error response (request id 0) and the connection is
 * closed — framing has no resync point.
 */

#ifndef RISC1_SERVER_SERVER_HH
#define RISC1_SERVER_SERVER_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/frame.hh"
#include "server/protocol.hh"

namespace risc1::server {

/** Transport configuration for one SocketServer. */
struct ServerConfig
{
    /** Unix-domain socket path; empty disables the Unix listener.
     *  Prefer short relative paths (sockaddr_un caps paths at ~107
     *  bytes). */
    std::string unixPath;

    /** Enable the TCP listener (always bound to 127.0.0.1). */
    bool tcp = false;

    /** TCP port; 0 picks an ephemeral port (read it back with
     *  tcpPort() after start()). */
    std::uint16_t tcpPort = 0;

    /** Per-frame payload cap handed to each connection's reader. */
    std::size_t maxPayload = kDefaultMaxPayload;
};

/** The accept/read/write machinery in front of a Service. */
class SocketServer
{
  public:
    SocketServer(Service &service, ServerConfig config);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind the configured listeners and start accepting.  @throws
     * FatalError when no listener is configured or a bind fails.
     */
    void start();

    /** Close listeners and connections, join all threads.  Does NOT
     *  stop the Service (the daemon drains it separately). */
    void stop();

    /** Actual TCP port after start() (for ephemeral binds). */
    std::uint16_t tcpPort() const { return boundTcpPort_; }

    const std::string &unixPath() const { return config_.unixPath; }

  private:
    struct Connection;

    /** A connection's reader thread (the connection outlives it while
     *  `run` replies are pending). */
    struct Reader
    {
        std::weak_ptr<Connection> conn;
        std::thread thread;
        std::atomic<bool> finished{false};
    };

    void acceptLoop(int listenFd);
    void serveConnection(const std::shared_ptr<Connection> &conn);

    /** Join and drop every reader whose thread has finished (caller
     *  holds mutex_). */
    void reapReaders();

    Service &service_;
    const ServerConfig config_;

    std::atomic<bool> stopping_{false};
    int unixFd_ = -1;
    int tcpFd_ = -1;
    std::uint16_t boundTcpPort_ = 0;

    std::mutex mutex_;  ///< guards acceptors_ and readers_
    std::vector<std::thread> acceptors_;
    std::list<Reader> readers_;  ///< list: a thread holds its entry
};

} // namespace risc1::server

#endif // RISC1_SERVER_SERVER_HH
