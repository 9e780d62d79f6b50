#include "mr/reduce_task.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/stopwatch.hpp"
#include "mr/merger.hpp"
#include "mr/record_arena.hpp"
#include "mr/skew_partitioner.hpp"

namespace textmr::mr {
namespace {

/// Where reduce output goes: a part file in the normal case, a segment
/// file in skew mode. The group hooks bracket each reduce() call so the
/// segment writer knows the group key and extent.
class OutputSink : public EmitSink {
 public:
  virtual void begin_group(std::string_view /*key*/) {}
  virtual void end_group() {}
  virtual void close() = 0;
};

/// Buffered text output writer for final results: `key \t value \n`.
class PartFileWriter final : public OutputSink {
 public:
  PartFileWriter(const std::filesystem::path& path, TaskMetrics& metrics)
      : metrics_(metrics) {
    file_ = std::fopen(path.string().c_str(), "wb");
    if (file_ == nullptr) {
      throw IoError("cannot create output file " + path.string());
    }
    buffer_.reserve(kFlushBytes + 4096);
  }

  ~PartFileWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  void emit(std::string_view key, std::string_view value) override {
    const std::uint64_t t0 = monotonic_ns();
    buffer_.append(key.data(), key.size());
    buffer_.push_back('\t');
    buffer_.append(value.data(), value.size());
    buffer_.push_back('\n');
    metrics_.output_records += 1;
    metrics_.output_bytes += key.size() + value.size() + 2;
    if (buffer_.size() >= kFlushBytes) flush();
    metrics_.op_ns(Op::kOutputWrite) += monotonic_ns() - t0;
  }

  void close() override {
    const std::uint64_t t0 = monotonic_ns();
    flush();
    if (std::fclose(file_) != 0) {
      file_ = nullptr;
      throw IoError("close failed for reduce output");
    }
    file_ = nullptr;
    metrics_.op_ns(Op::kOutputWrite) += monotonic_ns() - t0;
  }

 private:
  static constexpr std::size_t kFlushBytes = 1 << 18;

  void flush() {
    if (buffer_.empty()) return;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
      throw IoError("short write to reduce output");
    }
    buffer_.clear();
  }

  std::FILE* file_;
  std::string buffer_;
  TaskMetrics& metrics_;
};

/// Segment-file writer for skew mode (DESIGN.md §12). Buffers one
/// group's emissions — part-file text for kOutput, length-prefixed
/// combiner partials for kPartial — and appends one segment entry per
/// group that produced anything. Groups arrive in sorted order, so the
/// segment is sorted too (the finalize merge depends on that).
class SegmentSink final : public OutputSink {
 public:
  SegmentSink(const std::filesystem::path& path, SegmentKind kind,
              TaskMetrics& metrics)
      : writer_(path.string()), kind_(kind), metrics_(metrics) {}

  void begin_group(std::string_view key) override {
    group_key_.assign(key);
    blob_.clear();
  }

  void emit(std::string_view key, std::string_view value) override {
    const std::uint64_t t0 = monotonic_ns();
    if (kind_ == SegmentKind::kOutput) {
      blob_.append(key.data(), key.size());
      blob_.push_back('\t');
      blob_.append(value.data(), value.size());
      blob_.push_back('\n');
      metrics_.output_bytes += key.size() + value.size() + 2;
    } else {
      append_partial_value(blob_, value);
      metrics_.output_bytes += value.size();
    }
    metrics_.output_records += 1;
    metrics_.op_ns(Op::kOutputWrite) += monotonic_ns() - t0;
  }

  void end_group() override {
    if (blob_.empty()) return;  // group emitted nothing: no entry at all
    const std::uint64_t t0 = monotonic_ns();
    writer_.add(kind_, group_key_, blob_);
    metrics_.op_ns(Op::kOutputWrite) += monotonic_ns() - t0;
  }

  void close() override {
    const std::uint64_t t0 = monotonic_ns();
    writer_.finish();
    metrics_.op_ns(Op::kOutputWrite) += monotonic_ns() - t0;
  }

 private:
  SegmentWriter writer_;
  SegmentKind kind_;
  std::string group_key_;
  std::string blob_;
  TaskMetrics& metrics_;
};

/// Calls reduce() attributing sink time to kOutputWrite (self-accounted)
/// and the remainder to kReduceUser.
void call_reduce(Reducer& reducer, std::string_view key, ValueStream& values,
                 OutputSink& out, TaskMetrics& metrics) {
  const std::uint64_t before_sink = metrics.op_ns(Op::kOutputWrite);
  const std::uint64_t t0 = monotonic_ns();
  out.begin_group(key);
  reducer.reduce(key, values, out);
  out.end_group();
  const std::uint64_t elapsed = monotonic_ns() - t0;
  const std::uint64_t sink_delta =
      metrics.op_ns(Op::kOutputWrite) - before_sink;
  metrics.op_ns(Op::kReduceUser) += elapsed - std::min(elapsed, sink_delta);
  metrics.reduce_groups += 1;
}

/// One map output's contribution to this reduce partition: the raw framed
/// bytes from a single bulk read, plus RecordRefs decoded in place. The
/// records are never copied out of `bytes` (DESIGN.md §8).
struct FetchedRun {
  std::string bytes;
  std::vector<RecordRef> refs;
};

}  // namespace

std::filesystem::path reduce_attempt_tmp_path(
    const std::filesystem::path& output_path, std::uint32_t attempt) {
  return output_path.string() + ".a" + std::to_string(attempt) + ".tmp";
}

ReduceTaskResult run_reduce_task(const ReduceTaskConfig& config) {
  TEXTMR_CHECK(static_cast<bool>(config.reducer), "reduce task needs reducer");
  ReduceTaskResult result;
  result.output_path = config.output_path;
  const std::uint64_t task_start = monotonic_ns();
  TaskMetrics& metrics = result.metrics;

  obs::TraceBuffer* trace =
      config.trace != nullptr
          ? config.trace->make_buffer(
                obs::reduce_task_pid(config.partition),
                obs::kReduceThreadTid, "reduce",
                config.trace_process_name.empty()
                    ? "reduce_" + std::to_string(config.partition)
                    : config.trace_process_name)
          : nullptr;
  obs::SpanTimer task_span(trace, "task", "reduce_task");

  // ---- shuffle: fetch this partition from every map output --------------
  // In a cluster this is the over-the-network copy phase; here it is a
  // local read whose byte volume the simulator later prices as network
  // transfer. Each map output contributes one bulk read, decoded in place
  // into RecordRefs — no per-record copies. Records arrive sorted per map
  // output. The refs point into FetchedRun::bytes, so runs are built in
  // place (a string move could relocate a small buffer via SSO).
  std::vector<FetchedRun> fetched;
  fetched.reserve(config.map_outputs.size());
  {
    obs::SpanTimer shuffle_span(trace, "task", "shuffle");
    ScopedTimer shuffle_timer(metrics, Op::kShuffle);
    std::uint32_t run_index = 0;
    for (const auto& run : config.map_outputs) {
      fetched.emplace_back();
      FetchedRun& fetch = fetched.back();
      if (config.fetch) {
        obs::SpanTimer fetch_span(trace, "task", "shuffle_fetch");
        ShuffleFetchResult pulled =
            config.fetch(run_index, run, config.partition);
        fetch.bytes = std::move(pulled.bytes);
        if (pulled.over_wire) {
          metrics.shuffled_wire_bytes += fetch.bytes.size();
        }
        fetch_span.arg("bytes", static_cast<double>(fetch.bytes.size()));
        fetch_span.arg("over_wire", pulled.over_wire ? 1.0 : 0.0);
      } else {
        io::SpillRunReader reader(run.path);
        fetch.bytes = reader.read_partition(config.partition);
      }
      fetch.refs = index_frames(fetch.bytes, config.partition);
      metrics.shuffled_bytes += fetch.bytes.size();
      metrics.reduce_input_records += fetch.refs.size();
      ++run_index;
    }
    shuffle_span.arg("bytes", static_cast<double>(metrics.shuffled_bytes));
    shuffle_span.arg("records",
                     static_cast<double>(metrics.reduce_input_records));
  }

  std::unique_ptr<Reducer> reducer = config.reducer();
  reducer->begin_task(TaskInfo{config.partition, &result.counters});
  // Crash consistency: write to an attempt temp file, rename onto the
  // final name only after a successful close. A failed attempt leaves the
  // final path untouched (and its temp is removed by the engine).
  const std::filesystem::path tmp_path =
      reduce_attempt_tmp_path(config.output_path, config.attempt);
  std::unique_ptr<OutputSink> sink;
  if (config.output_kind == ReduceOutputKind::kPartFile) {
    sink = std::make_unique<PartFileWriter>(tmp_path, metrics);
  } else {
    sink = std::make_unique<SegmentSink>(
        tmp_path,
        config.output_kind == ReduceOutputKind::kSegmentText
            ? SegmentKind::kOutput
            : SegmentKind::kPartial,
        metrics);
  }
  OutputSink& out = *sink;

  obs::SpanTimer apply_span(trace, "task", "reduce_apply");
  std::vector<std::unique_ptr<RecordCursor>> cursors;
  cursors.reserve(fetched.size());
  for (const auto& fetch : fetched) {
    cursors.push_back(std::make_unique<MemoryRunCursor>(&fetch.refs));
  }
  // Merge + group structural time is kReduceMerge; the group iteration
  // interleaves with reduce() calls, so we accumulate it as
  // total − (reduce user + output) deltas.
  const std::uint64_t merge_start = monotonic_ns();
  std::uint64_t user_and_output_before =
      metrics.op_ns(Op::kReduceUser) + metrics.op_ns(Op::kOutputWrite);
  MergeStream stream(std::move(cursors));
  KeyGroups groups(stream);
  while (auto key = groups.next_group()) {
    call_reduce(*reducer, *key, groups.values(), out, metrics);
  }
  const std::uint64_t elapsed = monotonic_ns() - merge_start;
  const std::uint64_t user_and_output =
      metrics.op_ns(Op::kReduceUser) + metrics.op_ns(Op::kOutputWrite) -
      user_and_output_before;
  metrics.op_ns(Op::kReduceMerge) +=
      elapsed - std::min(elapsed, user_and_output);

  apply_span.done();
  {
    obs::SpanTimer close_span(trace, "task", "output_close");
    out.close();
  }
  TEXTMR_FAILPOINT("reduce.output_rename");
  std::filesystem::rename(tmp_path, config.output_path);
  result.wall_ns = monotonic_ns() - task_start;
  return result;
}

}  // namespace textmr::mr
