#include "cluster/shuffle_client.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace textmr::cluster {

namespace {

/// One connect + request + reply round trip. Throws on any failure;
/// returns nullopt only for a NON-retryable server error.
std::optional<std::string> fetch_once(const Endpoint& source,
                                      const io::SpillRunInfo& run,
                                      std::uint32_t partition,
                                      std::int32_t timeout_ms) {
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("shuffle.fetch")) {
      if (action->kind == failpoint::ActionKind::kDelay) {
        failpoint::maybe_delay(*action);
      } else {
        throw failpoint::InjectedFault("shuffle.fetch");
      }
    }
  }
  const int fd = tcp_connect(source, timeout_ms);
  std::optional<std::string> result;
  try {
    ShuffleFetchMsg fetch;
    fetch.run_path = run.path;
    fetch.partition = partition;
    if (!send_frame(fd, encode_shuffle_fetch(fetch), timeout_ms)) {
      throw IoError("shuffle server closed the connection");
    }
    const auto frame = recv_frame(fd, timeout_ms);
    if (!frame.has_value()) {
      throw IoError("shuffle server closed before replying");
    }
    WireReader r(*frame);
    const MsgType type = static_cast<MsgType>(r.u8());
    if (type == MsgType::kShuffleError) {
      const ShuffleErrorMsg error = decode_shuffle_error(r);
      if (!error.retryable) {
        TEXTMR_LOG(kWarn) << "shuffle fetch rejected (not retryable): "
                          << error.message;
        ::close(fd);
        return std::nullopt;
      }
      throw IoError("shuffle server error: " + error.message);
    }
    if (type != MsgType::kShuffleData) {
      throw IoError("unexpected shuffle reply type " +
                    std::string(msg_type_name(type)));
    }
    ShuffleDataMsg data = decode_shuffle_data(r);
    const std::uint64_t expected = run.partitions[partition].bytes;
    if (data.bytes.size() != expected) {
      throw IoError("shuffle fetch size mismatch: got " +
                    std::to_string(data.bytes.size()) + " bytes, run footer "
                    "says " + std::to_string(expected));
    }
    result = std::move(data.bytes);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return result;
}

}  // namespace

std::optional<std::string> ShuffleClient::fetch(const Endpoint& source,
                                                const io::SpillRunInfo& run,
                                                std::uint32_t partition) const {
  if (!source.valid() || partition >= run.partitions.size()) {
    return std::nullopt;
  }
  std::uint32_t backoff_ms = options_.backoff_ms;
  for (std::uint32_t attempt = 0; attempt < options_.attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    try {
      return fetch_once(source, run, partition, options_.timeout_ms);
    } catch (const std::exception& e) {
      TEXTMR_LOG(kWarn) << "shuffle fetch " << run.path << "#" << partition
                        << " from " << source.to_string() << " attempt "
                        << (attempt + 1) << "/" << options_.attempts
                        << " failed: " << e.what();
    }
  }
  return std::nullopt;
}

}  // namespace textmr::cluster
