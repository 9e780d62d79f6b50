#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mr/map_task.hpp"
#include "mr/reduce_task.hpp"
#include "mr/skew_partitioner.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace textmr::cluster {

/// Control protocol between the cluster coordinator and its worker
/// processes (DESIGN.md §10, §14). Transport: one stream channel per
/// worker — an AF_UNIX socketpair or a TCP connection, behind the
/// Transport/Connection interface in transport.hpp — carrying
/// little-endian u32 length-prefixed frames that also hold a CRC32 of
/// the payload; the first payload byte is the message type. Input splits
/// and final part files still move through the shared filesystem, but
/// map-output partitions are pulled over the network from per-worker
/// shuffle servers (kShuffleFetch/kShuffleData) when the TCP transport
/// is in force, so control frames stay small: telemetry ships as bounded
/// trace chunks at task boundaries instead of one monolithic upload.

enum class MsgType : std::uint8_t {
  // coordinator -> worker
  kRunMap = 1,      // u32 task, u32 attempt
  kRunReduce = 2,   // u32 partition, u32 attempt
  kShutdown = 3,    // no payload; worker ships final telemetry and exits
  kClockProbe = 4,  // u64 coordinator monotonic_ns at send (clock handshake)
  kSkewPlan = 5,    // heavy-key routing plan broadcast before the map phase
  kWelcome = 6,     // assigns an externally joining worker its id
  // worker -> coordinator
  kHeartbeat = 10,   // worker liveness + progress + live counter snapshot
  kMapDone = 11,     // u32 task, u32 attempt, MapTaskResult
  kReduceDone = 12,  // u32 partition, u32 attempt, ReduceTaskResult
  kTaskFailed = 13,  // one attempt failed (the worker itself is healthy)
  kClockSync = 14,   // probe echo + worker monotonic_ns (clock handshake)
  kTraceChunk = 15,  // one bounded slice of the worker's trace + stats
  kHello = 16,       // worker's shuffle-server endpoint advertisement
  // reducer -> shuffle server (separate per-fetch TCP connections)
  kShuffleFetch = 20,  // str run_path, u32 partition
  kShuffleData = 21,   // u64 records + the partition's raw frame bytes
  kShuffleError = 22,  // u8 retryable, str message
};

/// Wire name for logs and the analyzer; lint checks exhaustiveness.
const char* msg_type_name(MsgType type);

/// What kind of task an id refers to in heartbeat / failure messages.
enum class TaskKind : std::uint8_t { kNone = 0, kMap = 1, kReduce = 2 };

struct RunTaskMsg {
  std::uint32_t id = 0;  // map task id or reduce partition
  std::uint32_t attempt = 0;
};

/// A network address: a worker's shuffle server or the coordinator's
/// TCP listener. port 0 means "none" (e.g. a socketpair worker that
/// serves no shuffle partitions).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  bool valid() const { return port != 0 && !host.empty(); }
  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Reduce dispatch also names the map-output runs to shuffle from,
/// ordered by map task id — the ordering every engine must use for
/// byte-identical merges. `sources` (empty or exactly parallel to
/// `map_outputs`) names the shuffle server holding each run; an invalid
/// endpoint — or no sources at all — means the reducer reads that run
/// from the shared filesystem instead (socketpair mode).
struct RunReduceMsg {
  std::uint32_t partition = 0;
  std::uint32_t attempt = 0;
  std::vector<io::SpillRunInfo> map_outputs;
  std::vector<Endpoint> sources;
};

/// Coordinator -> worker, first frame on an externally joined (TCP
/// --connect) channel: assigns the worker its node id and the heartbeat
/// cadence the coordinator expects.
struct WelcomeMsg {
  std::uint32_t worker_id = 0;
  std::uint32_t heartbeat_interval_ms = 25;
};

/// Worker -> coordinator, sent once at startup when the worker runs a
/// shuffle server: advertises the endpoint reducers should pull this
/// worker's map-output partitions from.
struct HelloMsg {
  std::uint32_t worker_id = 0;
  Endpoint shuffle;
};

/// Reducer -> shuffle server: one partition of one map-output run. The
/// run is named by the path the kMapDone frame reported; the server
/// only serves paths under its scratch root.
struct ShuffleFetchMsg {
  std::string run_path;
  std::uint32_t partition = 0;
};

/// Shuffle server -> reducer: the partition's raw record-stream frames
/// (exactly the bytes SpillRunReader::read_partition returns).
struct ShuffleDataMsg {
  std::uint64_t records = 0;
  std::string bytes;
};

/// Shuffle server -> reducer on failure. Retryable errors (I/O, a
/// stalled disk) are worth another fetch attempt; non-retryable ones
/// (bad request, path outside the scratch root) are not.
struct ShuffleErrorMsg {
  bool retryable = true;
  std::string message;
};

/// Live counter snapshot a worker piggybacks on every heartbeat and
/// trace chunk. Values are cumulative since worker start — not deltas —
/// so the coordinator's view is always "latest wins" and a dropped or
/// reordered frame can never desynchronize the aggregate.
struct WorkerMetrics {
  std::uint64_t records = 0;  // input records consumed by finished tasks
  std::uint64_t bytes = 0;    // input/shuffle bytes consumed
  std::uint64_t spills = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t trace_dropped = 0;  // ring-overflow drops shipped so far
  obs::LatencyHistogram task_latency_ns;  // wall time per finished task
};

struct HeartbeatMsg {
  std::uint32_t worker_id = 0;
  TaskKind kind = TaskKind::kNone;  // kNone: idle worker
  std::uint32_t id = 0;
  std::uint32_t attempt = 0;
  double progress = 0.0;  // input fraction consumed (map tasks)
  WorkerMetrics stats;
};

struct TaskFailedMsg {
  TaskKind kind = TaskKind::kNone;
  std::uint32_t id = 0;
  std::uint32_t attempt = 0;
  bool retryable = true;
  std::string message;
};

// ---- clock handshake ------------------------------------------------------

/// Coordinator -> worker right after spawn: carries the coordinator's
/// monotonic clock at send time.
struct ClockProbeMsg {
  std::uint64_t t_send = 0;
};

/// Worker's reply: echoes the probe and stamps its own clock.
struct ClockSyncMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t t_probe = 0;   // echoed ClockProbeMsg::t_send
  std::uint64_t t_worker = 0;  // worker monotonic_ns at echo
};

/// NTP-style two-sample offset estimate: the worker stamped t_worker
/// somewhere between the coordinator's t_send and t_recv, so assuming a
/// symmetric channel its clock reads t_worker when the coordinator's
/// reads (t_send + t_recv) / 2. Returns worker_clock - coordinator_clock;
/// the estimate error is bounded by half the round-trip time. Forked
/// workers share CLOCK_MONOTONIC so the offset is ~0 today, but the
/// handshake keeps merged traces correct for any future transport where
/// workers live on other machines (ROADMAP item 2's resident service).
inline std::int64_t estimate_clock_offset(std::uint64_t t_send,
                                          std::uint64_t t_recv,
                                          std::uint64_t t_worker) {
  const auto midpoint =
      static_cast<std::int64_t>(t_send / 2 + t_recv / 2 +
                                (t_send % 2 + t_recv % 2) / 2);
  return static_cast<std::int64_t>(t_worker) - midpoint;
}

// ---- trace chunks ---------------------------------------------------------

/// One bounded slice of a worker's telemetry. Workers drain their
/// TraceCollector at task completion and at shutdown, split the drained
/// events into frames of at most kTraceChunkPayloadTarget bytes, and
/// ship each as a self-contained chunk: the coordinator can merge them
/// in arrival order (merge_trace sums drop deltas and dedupes names).
/// `final_chunk` marks the worker's last telemetry before exit — a
/// worker that dies without sending it leaves the job's telemetry
/// flagged incomplete instead of failing the merge.
struct TraceChunkMsg {
  std::uint32_t worker_id = 0;
  bool final_chunk = false;
  WorkerMetrics stats;   // cumulative snapshot at send time
  obs::TraceData trace;  // events since the previous chunk
};

/// Target payload size for one trace chunk: large enough that even a
/// drain of a full default ring fits in a couple of frames, small enough
/// (1/64 of kMaxFramePayload) that chunked shipping never risks the
/// frame cap and the coordinator's read loop stays responsive.
constexpr std::size_t kTraceChunkPayloadTarget = 4u * 1024 * 1024;

// ---- serialization --------------------------------------------------------

/// Append-only little-endian encoder for frame payloads.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view v);

  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Matching decoder; throws FormatError on truncated or trailing bytes.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Consumes and returns every remaining byte (unframed tail payloads,
  /// e.g. the partition bytes of a kShuffleData frame).
  std::string rest();

  bool done() const { return in_.empty(); }
  void expect_done() const;

 private:
  std::string_view in_;
};

// Message payload encode/decode. Encoders produce the payload including
// the leading type byte; decoders expect the byte already consumed.
std::string encode_run_task(MsgType type, const RunTaskMsg& msg);
RunTaskMsg decode_run_task(WireReader& r);

std::string encode_run_reduce(const RunReduceMsg& msg);
RunReduceMsg decode_run_reduce(WireReader& r);

std::string encode_heartbeat(const HeartbeatMsg& msg);
HeartbeatMsg decode_heartbeat(WireReader& r);

std::string encode_task_failed(const TaskFailedMsg& msg);
TaskFailedMsg decode_task_failed(WireReader& r);

std::string encode_map_done(std::uint32_t task, std::uint32_t attempt,
                            const mr::MapTaskResult& result);
void decode_map_done(WireReader& r, std::uint32_t& task,
                     std::uint32_t& attempt, mr::MapTaskResult& result);

std::string encode_reduce_done(std::uint32_t partition, std::uint32_t attempt,
                               const mr::ReduceTaskResult& result);
void decode_reduce_done(WireReader& r, std::uint32_t& partition,
                        std::uint32_t& attempt, mr::ReduceTaskResult& result);

std::string encode_clock_probe(const ClockProbeMsg& msg);
ClockProbeMsg decode_clock_probe(WireReader& r);

/// Skew plan broadcast (DESIGN.md §12): the coordinator computes the
/// plan once and every worker routes with the identical copy — the
/// cross-engine byte-identity contract depends on it. Only sent when the
/// plan is non-empty; workers without one run pure hash partitioning.
std::string encode_skew_plan(const mr::SkewPlan& plan);
mr::SkewPlan decode_skew_plan(WireReader& r);

std::string encode_clock_sync(const ClockSyncMsg& msg);
ClockSyncMsg decode_clock_sync(WireReader& r);

std::string encode_welcome(const WelcomeMsg& msg);
WelcomeMsg decode_welcome(WireReader& r);

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(WireReader& r);

std::string encode_shuffle_fetch(const ShuffleFetchMsg& msg);
ShuffleFetchMsg decode_shuffle_fetch(WireReader& r);

std::string encode_shuffle_data(const ShuffleDataMsg& msg);
ShuffleDataMsg decode_shuffle_data(WireReader& r);

std::string encode_shuffle_error(const ShuffleErrorMsg& msg);
ShuffleErrorMsg decode_shuffle_error(WireReader& r);

/// Splits `msg` into one or more kTraceChunk frame payloads, each at
/// most ~max_payload bytes. Every frame is independently decodable and
/// carries the stats snapshot; trace metadata (names, drop deltas) rides
/// only on the first frame and the final_chunk flag only on the last.
std::vector<std::string> encode_trace_chunks(
    const TraceChunkMsg& msg,
    std::size_t max_payload = kTraceChunkPayloadTarget);
/// Decoded events point into `msg.trace.string_pool` (owned storage).
TraceChunkMsg decode_trace_chunk(WireReader& r);

// ---- framed socket I/O ----------------------------------------------------

/// Sanity cap on a frame's payload length. The largest legitimate frame
/// is a trace chunk (bounded by kTraceChunkPayloadTarget plus one event's
/// overshoot); a 4-byte prefix read from a desynchronized or corrupted
/// stream could otherwise demand an allocation of up to ~4 GiB.
/// Oversized frames raise IoError instead.
constexpr std::uint32_t kMaxFramePayload = 256u * 1024 * 1024;

/// On-the-wire frame layout (DESIGN.md §14), the same on every channel —
/// socketpair, TCP control and shuffle: [u32 len][u32 crc32][payload],
/// little-endian, the CRC over the payload. A mismatch on receive raises
/// IoError; the peer is treated as gone (control channel) or the fetch is
/// retried (shuffle client).

/// CRC-32 (IEEE 802.3, poly 0xEDB88320) over `data`.
std::uint32_t crc32(std::string_view data);

/// Sends one length-prefixed frame, blocking until fully written (polls
/// on EAGAIN so it also works on non-blocking fds). Returns false if the
/// peer is gone (EPIPE/ECONNRESET); throws IoError on other errors, and
/// on missing the deadline when `timeout_ms` >= 0 (a dead TCP peer that
/// stops draining its socket must surface as an error, not a coordinator
/// thread blocked in poll forever). The `net.send` failpoint acts here.
bool send_frame(int fd, std::string_view payload, std::int32_t timeout_ms);

/// Blocking receive of one full frame; nullopt on clean EOF. Throws
/// IoError on errors, a torn frame, a checksum mismatch, or — with
/// `timeout_ms` >= 0 — when no full frame arrives before the deadline.
/// Worker-side and shuffle-client only (the coordinator reads through
/// FrameDecoder so one slow worker cannot stall it). The `net.recv`
/// failpoint acts here.
std::optional<std::string> recv_frame(int fd, std::int32_t timeout_ms);

/// Incremental frame reassembly over a non-blocking fd: feed() raw bytes
/// as poll() reports them readable, next() yields completed frames
/// (verifying each checksum — a mismatch throws IoError).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  std::optional<std::string> next();

 private:
  std::string buf_;
};

}  // namespace textmr::cluster
