#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

/// What a reduce task writes (DESIGN.md §12). kPartFile is the normal
/// "key \t value \n" part file. The segment kinds exist for skew mode,
/// where every physical reduce task writes a scratch segment file the
/// finalize merge later folds back into canonical part files:
/// kSegmentText runs the real reducer and stores each group's part-file
/// text; kSegmentPartial (split shares) runs a combiner and stores its
/// partial values.
enum class ReduceOutputKind : std::uint8_t {
  kPartFile,
  kSegmentText,
  kSegmentPartial,
};

/// One (run, partition) worth of shuffle input from a pluggable source.
struct ShuffleFetchResult {
  std::string bytes;      // raw frames, same layout as read_partition()
  bool over_wire = false; // true when a remote shuffle server served it
};

/// Pluggable shuffle source: (run index, run, partition) → the
/// partition's raw frame bytes. Cluster workers inject a network
/// fetcher (pull from the owning worker's shuffle server, with a
/// shared-filesystem fallback); when unset the task reads the run file
/// locally — byte-identical input either way.
using ShuffleFetcher = std::function<ShuffleFetchResult(
    std::uint32_t run_index, const io::SpillRunInfo& run,
    std::uint32_t partition)>;

struct ReduceTaskConfig {
  std::uint32_t partition = 0;
  /// Execution attempt (0-based). The task writes to an attempt-suffixed
  /// temp file and renames it onto `output_path` only on success, so a
  /// failed attempt never leaves a partial part file behind.
  std::uint32_t attempt = 0;
  std::vector<io::SpillRunInfo> map_outputs;  // one per map task
  /// Optional shuffle source override (see ShuffleFetcher above).
  ShuffleFetcher fetch;
  ReducerFactory reducer;
  /// Part file in kPartFile mode, segment file otherwise.
  std::filesystem::path output_path;
  ReduceOutputKind output_kind = ReduceOutputKind::kPartFile;

  /// When non-null the task registers a trace ring and records its
  /// shuffle / merge / reduce phases.
  obs::TraceCollector* trace = nullptr;
  /// Overrides the trace ring's process name (default "reduce_<p>").
  /// Skew mode labels dedicated partitions "reduce_<p> key=<key>" so
  /// the analyzer can attribute stragglers to heavy keys.
  std::string trace_process_name;
};

struct ReduceTaskResult {
  std::filesystem::path output_path;
  TaskMetrics metrics;
  Counters counters;
  std::uint64_t wall_ns = 0;
};

/// Temp file one reduce attempt writes before the commit rename — e.g.
/// "part-r-00002.a1.tmp". Shared by the task and the engine's
/// failed-attempt cleanup.
std::filesystem::path reduce_attempt_tmp_path(
    const std::filesystem::path& output_path, std::uint32_t attempt);

/// Runs one reduce task: fetches its partition from every map output
/// (shuffle), merges/groups, applies reduce(), writes the part file to an
/// attempt temp name and renames it into place on success.
ReduceTaskResult run_reduce_task(const ReduceTaskConfig& config);

}  // namespace textmr::mr
