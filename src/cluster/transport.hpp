#pragma once

/// Worker transport abstraction (DESIGN.md §14).
///
/// The coordinator talks to each worker over a `Connection` — a framed,
/// bidirectional byte channel. How that channel is created is the
/// `Transport`'s business:
///
///   - SocketpairTransport: the original one-host shape. A
///     socketpair(AF_UNIX) is created before fork(); the child inherits
///     one end.
///   - TcpTransport: real sockets on a loopback/LAN listener. The
///     coordinator pairs each forked worker deterministically by
///     connecting to its own listener immediately before the fork, so
///     the child inherits an established, identified TCP connection.
///     External workers (started with `textmr_cli worker --connect`)
///     dial in and are adopted via accept_worker().
///
/// Both carry the same checksummed frames ([len][crc32][payload],
/// protocol.hpp). Connections never own protocol state beyond a default
/// I/O timeout; message semantics stay in protocol.hpp and the
/// engine/worker loops.

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/protocol.hpp"

namespace textmr::cluster {

enum class TransportKind : std::uint8_t { kSocketpair, kTcp };

const char* transport_kind_name(TransportKind kind);

/// Parses "socketpair" / "tcp"; throws ConfigError on anything else.
TransportKind parse_transport_kind(const std::string& name);

/// One framed channel between coordinator and worker. Thin RAII wrapper
/// over an fd + default timeout; all I/O goes through the
/// protocol.hpp frame functions (and therefore through the net.send /
/// net.recv failpoints).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd, std::int32_t io_timeout_ms = -1)
      : fd_(fd), io_timeout_ms_(io_timeout_ms) {}
  ~Connection() { close(); }

  Connection(Connection&& other) noexcept { *this = std::move(other); }
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::int32_t io_timeout_ms() const { return io_timeout_ms_; }

  /// Sends one frame; false when the peer is gone. Uses the default
  /// timeout unless `timeout_ms` overrides it (-1 = wait forever).
  bool send(std::string_view payload) const {
    return send_frame(fd_, payload, io_timeout_ms_);
  }
  bool send(std::string_view payload, std::int32_t timeout_ms) const {
    return send_frame(fd_, payload, timeout_ms);
  }

  /// Receives one frame; nullopt on clean EOF. Throws IoError on
  /// timeout, truncation, or checksum mismatch.
  std::optional<std::string> recv() const {
    return recv_frame(fd_, io_timeout_ms_);
  }
  std::optional<std::string> recv(std::int32_t timeout_ms) const {
    return recv_frame(fd_, timeout_ms);
  }

  /// Non-blocking drain into `decoder` for the coordinator poll loop.
  /// Returns false when the peer closed or the stream is corrupt
  /// (checksum/length violations surface as IoError from the decoder).
  bool drain(FrameDecoder& decoder) const;

  void close();
  /// Relinquishes ownership of the fd without closing it (used when a
  /// forked child inherits the descriptor).
  int release_fd();

 private:
  int fd_ = -1;
  std::int32_t io_timeout_ms_ = -1;
};

/// Factory for worker channels. `make_worker_channel` is called by the
/// coordinator immediately BEFORE fork(); it returns the coordinator end
/// and the fd the child should adopt after fork.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  const char* name() const { return transport_kind_name(kind()); }

  struct WorkerChannel {
    Connection coordinator;  // coordinator-side end
    int child_fd = -1;       // fd the forked child keeps (already open)
  };

  /// Creates a paired channel for a worker about to be forked.
  virtual WorkerChannel make_worker_channel() = 0;

  /// Called in the forked child: closes listener/bookkeeping fds that
  /// must not leak into the worker process. `keep_fd` is the child's
  /// channel fd and is left open.
  virtual void on_child_fork(int keep_fd) = 0;
};

std::unique_ptr<Transport> make_socketpair_transport(
    std::int32_t io_timeout_ms = -1);

// ---- TCP helpers (also used by the shuffle server/client) -----------------

/// Binds + listens on `endpoint` (port 0 = kernel-assigned). Returns the
/// listening fd; throws IoError on failure.
int tcp_listen(const Endpoint& endpoint, int backlog = 64);

/// Connects to `endpoint` with a connect timeout. Honors the
/// `net.connect` failpoint. Throws IoError on refusal/timeout.
int tcp_connect(const Endpoint& endpoint, std::int32_t timeout_ms = -1);

/// Accepts one connection from `listen_fd`, waiting at most
/// `timeout_ms` (-1 = forever). Throws IoError on timeout or error.
int tcp_accept(int listen_fd, std::int32_t timeout_ms = -1);

/// The locally-bound address of a socket (resolves port 0 after bind).
Endpoint local_endpoint(int fd);

class TcpTransport final : public Transport {
 public:
  /// Listens on `listen` immediately (so listen_endpoint() is valid
  /// before any worker exists).
  explicit TcpTransport(const Endpoint& listen,
                        std::int32_t io_timeout_ms = -1);
  ~TcpTransport() override;

  TransportKind kind() const override { return TransportKind::kTcp; }

  WorkerChannel make_worker_channel() override;
  void on_child_fork(int keep_fd) override;

  /// Where external workers should dial in.
  const Endpoint& listen_endpoint() const { return endpoint_; }

  /// Adopts one externally-started worker: accepts a connection on the
  /// listener. The caller then runs the welcome/hello handshake.
  Connection accept_worker(std::int32_t timeout_ms);

 private:
  Endpoint endpoint_;
  int listen_fd_ = -1;
  std::int32_t io_timeout_ms_ = -1;
};

std::unique_ptr<TcpTransport> make_tcp_transport(const Endpoint& listen,
                                                 std::int32_t io_timeout_ms =
                                                     -1);

}  // namespace textmr::cluster
