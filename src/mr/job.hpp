#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "freqbuf/controller.hpp"
#include "io/line_reader.hpp"
#include "io/spill_file.hpp"
#include "mr/map_task.hpp"
#include "mr/metrics.hpp"
#include "mr/reduce_task.hpp"
#include "mr/skew_partitioner.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::mr {

/// Complete description of one MapReduce job. This is the library's main
/// public configuration surface; see examples/quickstart.cpp.
struct JobSpec {
  std::string name = "job";

  /// Input splits (one map task each). Use io::make_splits / SimDfs to
  /// build them.
  std::vector<io::InputSplit> inputs;

  MapperFactory mapper;
  ReducerFactory reducer;
  /// Optional combiner (empty = none). Must be key-preserving and
  /// associative/commutative over values.
  ReducerFactory combiner;

  std::uint32_t num_reducers = 1;

  /// Total map-side memory budget per task. When frequency-buffering is
  /// enabled, `freqbuf.table_budget_fraction` of this is carved out for
  /// the frequent-key table and the spill buffer gets the rest, keeping
  /// the total fixed (paper §V-B2).
  std::size_t spill_buffer_bytes = 16u << 20;

  /// Fixed spill threshold (Hadoop's io.sort.spill.percent default 0.8);
  /// ignored when `use_spill_matcher` is true.
  double spill_threshold = 0.8;

  /// Enable the spill-matcher adaptive threshold (paper §IV).
  bool use_spill_matcher = false;

  /// Support (sort/combine/spill) threads per map task — the paper's
  /// "one or more support threads" (§IV-A). Default 1 matches Hadoop's
  /// 1-map/1-support structure and the §IV-C analysis; more threads let
  /// consume-bound apps overlap several spills.
  std::uint32_t support_threads = 1;

  /// Map-side combine strategy (DESIGN.md §15); it picks only the map
  /// task's output stage. kHash swaps the spill ring for 8 shard hash
  /// tables that combine in batches within spill_buffer_bytes (a shard
  /// flushes at 1/8 of it and demotes to the sort-spill path after 4
  /// flushes); support_threads, spill_threshold and use_spill_matcher
  /// are then inert. Output stays byte-identical to kSort.
  CombineMode combine_mode = CombineMode::kSort;

  /// Frequency-buffering configuration (paper §III).
  freqbuf::FreqBufConfig freqbuf;

  /// Not read by the runtime: varint is the only spill framing. Kept only
  /// because the whole-job benchmark (perfbench/ledger.cpp) still copies
  /// it into ShuffleServer::Options::spill_format; remove both together.
  io::SpillFormat spill_format = io::SpillFormat::kCompactVarint;

  /// Skew-aware partitioning (DESIGN.md §12): a driver-side sampling
  /// pre-pass finds heavy reduce keys, places them on dedicated
  /// reducers, splits ultra-heavy keys across several, and a finalize
  /// merge restores the canonical part-file layout — outputs stay
  /// byte-identical to a plain hash-partitioner run.
  SkewConfig skew;

  /// Concurrent map tasks / reduce tasks. Each concurrent map worker
  /// models one node's map slot and gets its own NodeKeyCache.
  std::uint32_t map_parallelism = 1;
  std::uint32_t reduce_parallelism = 1;

  std::filesystem::path scratch_dir;  // required; intermediate runs live here
  std::filesystem::path output_dir;   // required; part-r-* files land here

  bool keep_intermediates = false;

  /// Task-level fault recovery (DESIGN.md §6): a map or reduce task that
  /// throws is cleaned up and re-executed on a fresh attempt id, up to
  /// this many attempts total; only then does the job abort (with
  /// TaskFailedError). 1 restores fail-fast behaviour.
  std::uint32_t max_task_attempts = 3;

  /// Base of the exponential backoff between attempts of one task:
  /// attempt k (1-based retry) sleeps base * 2^(k-1) milliseconds.
  /// 0 disables the sleep (tests).
  std::uint32_t retry_backoff_base_ms = 10;

  /// Structured tracing (see src/obs/trace.hpp). Off by default; when off
  /// every instrumentation hook is a single null-pointer check. When on,
  /// JobResult::trace carries the merged events for Chrome-trace / JSONL
  /// export.
  obs::TraceConfig trace;
};

/// Everything a job run produced.
struct JobResult {
  std::vector<std::filesystem::path> outputs;  // part-r-00000 ... in order
  JobMetrics metrics;
  Counters counters;  // user counters aggregated over all tasks

  /// Per-task details (for the instrumentation figures).
  struct MapTaskSummary {
    std::uint64_t wall_ns = 0;
    std::uint64_t pipeline_wall_ns = 0;
    std::uint64_t map_idle_ns = 0;
    std::uint64_t support_idle_ns = 0;
    std::uint64_t spills = 0;
    double final_spill_threshold = 0.0;
    double freq_sampling_fraction = 0.0;
  };
  std::vector<MapTaskSummary> map_tasks;

  /// Per-physical-reduce-task details, in partition order (the skew
  /// battery derives its slowest/median wall ratio from these).
  struct ReduceTaskSummary {
    std::uint32_t partition = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t shuffled_bytes = 0;
    std::uint64_t output_bytes = 0;
  };
  std::vector<ReduceTaskSummary> reduce_tasks;

  /// Trace events collected when JobSpec::trace.enabled was set
  /// (trace.enabled is false otherwise). Export with
  /// obs::format_chrome_trace / obs::format_trace_jsonl.
  obs::TraceData trace;
};

}  // namespace textmr::mr
