#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>

#include "freqbuf/controller.hpp"
#include "io/line_reader.hpp"
#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::mr {

struct SkewPlan;

/// Everything a single map task needs. The engine builds one of these per
/// input split.
struct MapTaskConfig {
  std::uint32_t task_id = 0;
  /// Execution attempt of this task (0-based). Every scratch file the
  /// attempt writes is prefixed with map_attempt_prefix(task_id, attempt),
  /// so a retry never reads — and the engine can cleanly delete — a dead
  /// attempt's runs.
  std::uint32_t attempt = 0;
  io::InputSplit split;
  /// Physical partition count the task spills (plan->num_physical() in
  /// skew mode, num_reducers otherwise).
  std::uint32_t num_partitions = 1;
  /// Heavy-key routing plan (may be null = pure hash partitioning). Not
  /// owned; must outlive the task. When set, num_partitions must equal
  /// skew_plan->num_physical().
  const SkewPlan* skew_plan = nullptr;

  MapperFactory mapper;
  ReducerFactory combiner;  // may be null

  std::size_t spill_buffer_bytes = 16u << 20;

  /// Map-side combine strategy (DESIGN.md §15); it picks only the output
  /// stage. kSort feeds the spill ring and its support threads; kHash
  /// combines in batches inside shard hash tables on the map thread
  /// itself (no ring) within spill_buffer_bytes. Output is
  /// byte-identical.
  CombineMode combine_mode = CombineMode::kSort;
  /// Number of support (sort/combine/spill) threads — the paper's
  /// "one or more support threads" (§IV-A). 1 reproduces Hadoop's
  /// 1-map/1-support pipeline that the spill-matcher analysis assumes.
  std::uint32_t support_threads = 1;
  std::filesystem::path scratch_dir;

  /// Spill threshold policy; if null, Hadoop's fixed 0.8 is used.
  spillmatch::SpillPolicyFactory spill_policy;

  /// Frequency-buffering; `freqbuf.enabled` gates it on the sort path
  /// (hash mode ignores it). When enabled, the engine has already carved
  /// `freq_table_budget_bytes`, the budget of the combining table in front
  /// of the ring, out of the memory budget (spill_buffer_bytes excludes
  /// it).
  freqbuf::FreqBufConfig freqbuf;
  std::uint64_t freq_table_budget_bytes = 0;
  freqbuf::NodeKeyCache* node_cache = nullptr;  // may be null

  bool keep_spill_runs = false;  // keep intermediate spill files on disk

  /// When non-null, the map thread stores its input-consumption fraction
  /// here as it runs (relaxed stores). The cluster worker points this at
  /// the per-task progress cell its heartbeat thread reports from.
  std::atomic<double>* progress = nullptr;

  /// When non-null the task registers per-thread trace rings (map thread,
  /// each support thread, the spill buffer) and records lifecycle events.
  obs::TraceCollector* trace = nullptr;
};

/// Result of one map task: its merged, partition-indexed output run plus
/// both threads' metrics.
struct MapTaskResult {
  io::SpillRunInfo output;
  TaskMetrics map_thread;      // includes Op::kMapIdle
  TaskMetrics support_thread;  // includes Op::kSupportIdle
  Counters counters;           // user counters from mapper + combiners
  std::uint64_t wall_ns = 0;   // task wall time (map phase incl. merge)
  std::uint64_t pipeline_wall_ns = 0;  // wall time of the produce/consume pipeline
  std::uint64_t spills = 0;
  double final_spill_threshold = 0.8;
  freqbuf::FreqBufferController::Stage freq_stage_at_end =
      freqbuf::FreqBufferController::Stage::kPreProfile;
  double freq_sampling_fraction = 0.0;
};

/// Scratch-file name prefix for one (task, attempt) pair — e.g.
/// "map3_a1_". Shared by the task (file creation) and the engine
/// (failed-attempt cleanup by prefix scan).
std::string map_attempt_prefix(std::uint32_t task_id, std::uint32_t attempt);

/// Runs one map task. The map thread (the caller's) reads the split, runs
/// map() and emits into the output stage that combine_mode picks: the
/// spill ring drained by `support_threads` support threads (one by
/// default: Hadoop's 1-map 1-support structure that the paper
/// instruments, §II-C2, and optimizes, §III, §IV), with FreqOpt's
/// admission-filtered combining table in front of it when enabled; or
/// the hash-combine tables on the map thread.
MapTaskResult run_map_task(const MapTaskConfig& config);

}  // namespace textmr::mr
