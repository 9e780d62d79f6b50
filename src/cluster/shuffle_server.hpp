#pragma once

/// Per-worker shuffle service (DESIGN.md §14).
///
/// Each worker that commits map output keeps the spill run on its own
/// disk and serves partitions on demand: a reducer connects, sends one
/// kShuffleFetch{run_path, partition}, and receives either
/// kShuffleData{records, bytes} or kShuffleError{retryable, message}.
/// One request per connection — fetches are rare (runs × partitions per
/// job) and bulky, so connection reuse buys nothing and the
/// close-after-reply protocol keeps both ends trivially stateless.
///
/// Thread model: a single accept thread serves requests inline, so
/// concurrent fetchers are serialized (acceptable at this scale; the
/// client's timeout + retry covers a server stalled on a slow peer).
/// All mutable state is atomics — the accept thread and the owner
/// thread (stop()/counters) never need a lock.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "cluster/transport.hpp"
#include "io/spill_file.hpp"

namespace textmr::cluster {

class ShuffleServer {
 public:
  struct Options {
    Endpoint listen;               // port 0 = kernel-assigned
    std::string root;              // only run files under here are served
    /// Not read: varint is the only spill framing. Kept only because the
    /// whole-job benchmark (perfbench/ledger.cpp) still assigns it from
    /// JobSpec::spill_format; remove both together.
    io::SpillFormat spill_format = io::SpillFormat::kCompactVarint;
    std::int32_t io_timeout_ms = 5000;  // per-request recv/send budget
  };

  /// Binds + starts the accept thread; throws IoError if the bind fails.
  explicit ShuffleServer(Options options);
  ~ShuffleServer();

  ShuffleServer(const ShuffleServer&) = delete;
  ShuffleServer& operator=(const ShuffleServer&) = delete;

  /// Resolved listen address (port filled in after bind).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Stops accepting and joins the accept thread. Idempotent.
  void stop();

  std::uint64_t bytes_served() const {
    return bytes_served_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void serve(int fd);
  /// True when `path` resolves inside options_.root (no `..` escapes).
  bool path_allowed(const std::string& path) const;

  Options options_;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> bytes_served_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::thread thread_;
};

}  // namespace textmr::cluster
