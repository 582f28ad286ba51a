#include "server/server.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace risc1::server {

/**
 * One accepted socket.  Reply closures capture the shared_ptr, so the
 * descriptor stays writable for asynchronous `run` completions even
 * after the reader thread has exited; the last owner closes it.
 */
struct SocketServer::Connection
{
    explicit Connection(int descriptor) : fd(descriptor) {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Write one response frame; errors mark the connection dead. */
    void
    send(std::uint32_t id, std::string_view payload)
    {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(FrameType::Response, id, payload);
        std::lock_guard lock(writeMutex);
        if (!open.load(std::memory_order_relaxed))
            return;
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n =
                ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0) {
                // Peer went away; late `run` replies land here and
                // are simply dropped.
                open.store(false, std::memory_order_relaxed);
                return;
            }
            sent += std::size_t(n);
        }
    }

    /** Unblock the reader thread and refuse further writes. */
    void
    shutdownNow()
    {
        open.store(false, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
    }

    const int fd;
    std::mutex writeMutex;
    std::atomic<bool> open{true};
};

namespace {

int
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal(cat("unix socket path too long (", path.size(), " > ",
                  sizeof(addr.sun_path) - 1,
                  " bytes): ", path,
                  " — use a shorter (relative) path"));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal(cat("socket(AF_UNIX): ", std::strerror(errno)));
    // A stale socket file from a previous run would make bind fail.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(cat("bind(", path, "): ", std::strerror(err)));
    }
    if (::listen(fd, 128) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(cat("listen(", path, "): ", std::strerror(err)));
    }
    return fd;
}

int
listenTcp(std::uint16_t port, std::uint16_t &boundPort)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal(cat("socket(AF_INET): ", std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // localhost only
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(cat("bind(127.0.0.1:", port, "): ", std::strerror(err)));
    }
    if (::listen(fd, 128) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(cat("listen(127.0.0.1:", port, "): ", std::strerror(err)));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(cat("getsockname: ", std::strerror(err)));
    }
    boundPort = ntohs(addr.sin_port);
    return fd;
}

} // namespace

SocketServer::SocketServer(Service &service, ServerConfig config)
    : service_(service), config_(std::move(config))
{
}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::start()
{
    if (config_.unixPath.empty() && !config_.tcp)
        fatal("SocketServer: no listener configured "
              "(need a unix path and/or tcp)");
    if (!config_.unixPath.empty())
        unixFd_ = listenUnix(config_.unixPath);
    if (config_.tcp)
        tcpFd_ = listenTcp(config_.tcpPort, boundTcpPort_);

    std::lock_guard lock(mutex_);
    if (unixFd_ >= 0)
        acceptors_.emplace_back(&SocketServer::acceptLoop, this, unixFd_);
    if (tcpFd_ >= 0)
        acceptors_.emplace_back(&SocketServer::acceptLoop, this, tcpFd_);
}

void
SocketServer::stop()
{
    if (stopping_.exchange(true))
        return;
    // Closing the listeners unblocks the accept loops.
    if (unixFd_ >= 0)
        ::shutdown(unixFd_, SHUT_RDWR);
    if (tcpFd_ >= 0)
        ::shutdown(tcpFd_, SHUT_RDWR);

    std::vector<std::thread> acceptors;
    std::list<Reader> readers;
    {
        std::lock_guard lock(mutex_);
        for (const Reader &r : readers_)
            if (const auto conn = r.conn.lock())
                conn->shutdownNow();
        acceptors.swap(acceptors_);
        readers.swap(readers_);
    }
    for (auto &t : acceptors)
        t.join();
    for (Reader &r : readers)
        r.thread.join();

    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        std::error_code ec;
        std::filesystem::remove(config_.unixPath, ec);
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
}

void
SocketServer::acceptLoop(int listenFd)
{
    while (!stopping_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (or broken) — we're done
        }
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard lock(mutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            conn->shutdownNow();
            return;
        }
        reapReaders();
        Reader &reader = readers_.emplace_back();
        reader.conn = conn;
        reader.thread = std::thread([this, conn, &reader] {
            serveConnection(conn);
            reader.finished.store(true, std::memory_order_release);
        });
    }
}

void
SocketServer::reapReaders()
{
    readers_.remove_if([](Reader &r) {
        if (!r.finished.load(std::memory_order_acquire))
            return false;
        r.thread.join(); // returns at once: the thread is exiting
        return true;
    });
}

void
SocketServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    FrameReader reader(config_.maxPayload);
    std::vector<std::uint8_t> buf(64 * 1024);

    bool alive = true;
    while (alive) {
        const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // peer closed (or shutdownNow unblocked us)
        }
        reader.feed(buf.data(), std::size_t(n));

        while (auto frame = reader.next()) {
            if (frame->type != FrameType::Request) {
                conn->send(frame->id,
                           errorPayload("expected a request frame"));
                alive = false;
                break;
            }
            const std::uint32_t id = frame->id;
            service_.execute(frame->payload,
                             [conn, id](std::string payload) {
                                 conn->send(id, payload);
                             });
        }
        if (reader.error() != FrameError::None) {
            conn->send(0, errorPayload(cat(
                              "framing error: ",
                              frameErrorName(reader.error()))));
            break;
        }
    }
    conn->open.store(false, std::memory_order_relaxed);
}

} // namespace risc1::server
