#include "mr/map_task.hpp"

#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "mr/hash_combine.hpp"
#include "mr/merger.hpp"
#include "mr/skew_partitioner.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

/// The sink handed to user map() code: counts output volume, feeds
/// FreqOpt's profiler and routes each record to the task's output stage —
/// the spill ring (sort path) or the hash-combine table (hash path). With
/// FreqOpt on the sort path both exist: the table, its admission filter
/// set to the frozen top-k keys, takes the records it admits and the ring
/// takes the rest.
class EmitRouter final : public EmitSink {
 public:
  EmitRouter(SpillBuffer* ring, HashCombineShards* table,
             SkewAwarePartitioner& partitioner,
             freqbuf::FreqBufferController* freq, TaskMetrics& metrics)
      : ring_(ring), table_(table), partitioner_(partitioner), freq_(freq),
        metrics_(metrics) {}

  void emit(std::string_view key, std::string_view value) override {
    // Two clock reads per record: this scope's entry and exit.
    OpScope scope(metrics_, Op::kEmit);
    metrics_.map_output_records += 1;
    metrics_.map_output_bytes += key.size() + value.size();
    if (freq_ != nullptr) freq_->observe(key);
    if (freq_ != nullptr && absorb(key, value)) return;
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    // Partitioned here, per record, for either stage: a skew plan's
    // split-key round-robin cursor must advance identically in both
    // modes for byte-identical output.
    const std::uint32_t partition = partitioner_(key);
    if (ring_ != nullptr) {
      ring_->put(partition, key, value);
    } else {
      table_->insert(partition, key, value);
    }
  }

 private:
  /// FreqOpt (sort path only): offers the record to the filtered table;
  /// false sends it on to the ring. An admitted record's whole emit() is
  /// kFreqTable's: the relabel reads no clock, and a watermark flush
  /// inside insert() switches out to its own ops and back.
  bool absorb(std::string_view key, std::string_view value) {
    if (!table_->admits(key)) return false;
    metrics_.relabel_op(Op::kFreqTable);
    table_->insert(partitioner_(key), key, value);
    metrics_.freq_hits += 1;
    return true;
  }

  SpillBuffer* ring_;
  HashCombineShards* table_;
  // Non-const: the split-key round-robin cursor advances per record.
  // With a null plan this is exactly the old HashPartitioner path.
  SkewAwarePartitioner& partitioner_;
  freqbuf::FreqBufferController* freq_;
  TaskMetrics& metrics_;
};

/// One of this attempt's scratch files, e.g. "<scratch>/map3_a1_spill0.run".
std::string scratch_file(const MapTaskConfig& config, const std::string& name) {
  return (config.scratch_dir /
          (map_attempt_prefix(config.task_id, config.attempt) + name))
      .string();
}

/// A trace ring for one of the task's threads; null when tracing is off.
obs::TraceBuffer* task_thread_trace(const MapTaskConfig& config,
                                    std::uint32_t tid, std::string name,
                                    std::string process = "") {
  return config.trace != nullptr
             ? config.trace->make_buffer(obs::map_task_pid(config.task_id),
                                         tid, std::move(name),
                                         std::move(process))
             : nullptr;
}

/// State the support threads share. kMapTask ranks below kSpillBuffer: a
/// support thread consults the spill policy (and re-enters the buffer to
/// apply its threshold) while holding `mu`.
struct SupportShared {
  textmr::Mutex mu{textmr::LockRank::kMapTask, "mr.map_task.support"};
  std::map<std::uint64_t, io::SpillRunInfo> runs_by_sequence
      TEXTMR_GUARDED_BY(mu);
  std::exception_ptr error TEXTMR_GUARDED_BY(mu);
};

/// The sort path's output stage (DESIGN.md §8): the spill ring plus the
/// support threads that sort, combine and spill each sealed region, with
/// the spill policy choosing the next threshold. Each thread gets its own
/// Counters and metrics (no locks on the hot path), merged in finish().
/// The destructor shuts the pipeline down if finish() was not reached.
class SpillRing {
 public:
  explicit SpillRing(const MapTaskConfig& config)
      : config_(config),
        // Fixed 0.8 unless the job installed the spill-matcher.
        policy_(config.spill_policy
                    ? config.spill_policy()
                    : std::make_unique<spillmatch::FixedSpillPolicy>()),
        buffer_(config.spill_buffer_bytes, policy_->initial_threshold(),
                std::max<std::uint32_t>(1, config.support_threads),
                task_thread_trace(config, obs::kSpillBufferTid,
                                  "spill-buffer")),
        states_(std::max<std::uint32_t>(1, config.support_threads)) {
    pool_.reserve(states_.size());
    try {
      for (std::uint32_t s = 0; s < states_.size(); ++s) {
        SupportState& state = states_[s];
        if (config.combiner) {
          state.combiner = config.combiner();
          state.combiner->begin_task(
              TaskInfo{config.task_id, &state.counters});
        }
        obs::TraceBuffer* trace = task_thread_trace(
            config, obs::kSupportThreadTidBase + s,
            "support-" + std::to_string(s));
        pool_.emplace_back(
            [this, &state, trace] { support_loop(state, trace); });
      }
    } catch (...) {
      // No destructor runs for a half-built ring: join what started.
      stop();
      throw;
    }
  }

  ~SpillRing() { stop(); }

  SpillRing(const SpillRing&) = delete;
  SpillRing& operator=(const SpillRing&) = delete;

  SpillBuffer& buffer() { return buffer_; }

  /// Map-side failure (user code, or a support-thread abort surfacing
  /// through put()): shuts the pipeline down and rethrows the root cause
  /// — a support thread's error wins if both failed.
  void fail() {
    stop();
    if (auto error = support_error()) std::rethrow_exception(error);
  }

  /// Seals the last spill, joins the support threads and folds their
  /// metrics, counters and the ring's idle time and spill count into
  /// `result`. Returns the runs in spill order.
  std::vector<io::SpillRunInfo> finish(MapTaskResult& result) {
    {
      // The map thread waits here for the support threads' last spills.
      OpScope idle(result.map_thread, Op::kMapIdle);
      buffer_.close();
      join();
    }
    if (auto error = support_error()) std::rethrow_exception(error);
    for (auto& state : states_) {
      result.support_thread += state.metrics;
      result.counters += state.counters;
    }
    std::vector<io::SpillRunInfo> runs;
    {
      textmr::MutexLock lock(shared_.mu);
      runs.reserve(shared_.runs_by_sequence.size());
      for (auto& [sequence, info] : shared_.runs_by_sequence) {
        runs.push_back(std::move(info));
      }
    }
    // Map-thread emit time includes buffer-full waits, which the buffer
    // measures under its own lock; move them to the idle bucket (paper
    // Table II's "map thread idle").
    const std::uint64_t map_wait = buffer_.producer_wait_ns();
    std::uint64_t& emit_ns = result.map_thread.op_ns(Op::kEmit);
    emit_ns -= std::min(emit_ns, map_wait);
    result.map_thread.op_ns(Op::kMapIdle) += map_wait;
    result.support_thread.op_ns(Op::kSupportIdle) +=
        buffer_.consumer_wait_ns();
    result.spills = buffer_.spills_sealed();
    result.final_spill_threshold = buffer_.threshold();
    return runs;
  }

 private:
  struct SupportState {
    Counters counters;
    TaskMetrics metrics;
    std::unique_ptr<Reducer> combiner;
  };

  void support_loop(SupportState& state, obs::TraceBuffer* trace) {
    try {
      while (auto spill = buffer_.take()) {
        obs::SpanTimer spill_span(trace, "spill", "spill_consume");
        spill_span.arg("sequence", static_cast<double>(spill->sequence));
        spill_span.arg("records", static_cast<double>(spill->records.size()));
        spill_span.arg("data_bytes", static_cast<double>(spill->data_bytes));
        const std::uint64_t consume_start = monotonic_ns();
        auto info = sort_and_spill(
            *spill, state.combiner.get(),
            scratch_file(config_,
                         "spill" + std::to_string(spill->sequence) + ".run"),
            config_.num_partitions, state.metrics, trace);
        const std::uint64_t consume_ns = monotonic_ns() - consume_start;
        buffer_.release(*spill, consume_ns);
        textmr::MutexLock lock(shared_.mu);
        shared_.runs_by_sequence.emplace(spill->sequence, std::move(info));
        if (auto timing = buffer_.last_timing(); timing.has_value()) {
          const double next = policy_->next_threshold(spillmatch::Timing{
              timing->produce_ns, timing->consume_ns, timing->data_bytes});
          buffer_.set_threshold(next);
          // The spill-matcher's decision, with the measured T_p / T_c it
          // was derived from (paper eq. (1)).
          obs::record_instant(
              trace, "spill", "threshold_update", "tp_ms",
              static_cast<double>(timing->produce_ns) * 1e-6, "tc_ms",
              static_cast<double>(timing->consume_ns) * 1e-6, "threshold",
              next);
        }
      }
    } catch (...) {
      {
        textmr::MutexLock lock(shared_.mu);
        if (!shared_.error) shared_.error = std::current_exception();
      }
      // Unblock the producer: its puts would otherwise wait forever for
      // releases that will never come. Outside the lock — abort() takes
      // the buffer's own mutex and needs no ordering with `shared_.mu`.
      buffer_.abort();
    }
  }

  void join() {
    for (auto& thread : pool_) {
      if (thread.joinable()) thread.join();
    }
  }

  void stop() {
    buffer_.abort();
    join();
  }

  // The joins make these reads safe, but the analysis (rightly) cannot
  // see a join; taking the lock is cheap and keeps the proof local.
  std::exception_ptr support_error() {
    textmr::MutexLock lock(shared_.mu);
    return shared_.error;
  }

  const MapTaskConfig& config_;
  std::unique_ptr<spillmatch::SpillPolicy> policy_;
  SpillBuffer buffer_;
  SupportShared shared_;
  std::vector<SupportState> states_;
  std::vector<std::thread> pool_;
};

/// Adopts (single run) or merges (several) the task's sorted runs into
/// its final output. Shared by both combine modes — a hash-combine run
/// and a sort-spill run are byte-compatible by construction.
void finish_map_output(const MapTaskConfig& config,
                       std::vector<io::SpillRunInfo>& runs, Reducer* combiner,
                       obs::TraceBuffer* map_trace, MapTaskResult& result) {
  const std::string out_path = scratch_file(config, "output.run");
  if (runs.empty()) {
    // No output at all: write an empty run so downstream cursors work.
    io::SpillRunWriter writer(out_path, config.num_partitions);
    result.output = writer.finish();
  } else if (runs.size() == 1) {
    // Single run: it is already sorted and combined; adopt it (Hadoop
    // does the same rename). The hash path's no-pressure case lands here
    // every time — its finish() emits one globally sorted run.
    std::filesystem::rename(runs.front().path, out_path);
    result.output = runs.front();
    result.output.path = out_path;
    result.map_thread.merged_records += result.output.records;
    result.map_thread.merged_bytes += result.output.bytes;
  } else {
    obs::SpanTimer merge_span(map_trace, "task", "map_merge");
    merge_span.arg("runs", static_cast<double>(runs.size()));
    result.output =
        merge_runs(runs, combiner, out_path, config.num_partitions,
                   result.map_thread);
    merge_span.arg("records", static_cast<double>(result.output.records));
    if (!config.keep_spill_runs) {
      for (const auto& run : runs) {
        std::error_code ec;
        std::filesystem::remove(run.path, ec);
      }
    }
  }
}

}  // namespace

std::string map_attempt_prefix(std::uint32_t task_id, std::uint32_t attempt) {
  return "map" + std::to_string(task_id) + "_a" + std::to_string(attempt) +
         "_";
}

MapTaskResult run_map_task(const MapTaskConfig& config) {
  TEXTMR_CHECK(static_cast<bool>(config.mapper), "map task needs a mapper");
  TEXTMR_CHECK(config.num_partitions >= 1, "map task needs >= 1 partition");
  std::filesystem::create_directories(config.scratch_dir);

  MapTaskResult result;
  // The map thread's clock runs from here to wall_ns: every interval of
  // the task is charged to one of its ops.
  const std::uint64_t task_start = result.map_thread.switch_op(Op::kMapRead);

  // The map thread's trace ring; SpillRing makes the spill buffer's and
  // each support thread's.
  obs::TraceBuffer* map_trace =
      task_thread_trace(config, obs::kMapThreadTid, "map",
                        "map_task_" + std::to_string(config.task_id));
  obs::SpanTimer task_span(map_trace, "task", "map_task");
  task_span.arg("split_bytes", static_cast<double>(config.split.length));

  SkewAwarePartitioner partitioner(
      config.skew_plan != nullptr ? config.skew_plan->num_canonical
                                  : config.num_partitions,
      config.skew_plan, config.task_id);
  TEXTMR_CHECK(partitioner.num_partitions() == config.num_partitions,
               "map task num_partitions disagrees with the skew plan");

  Counters map_counters;
  std::unique_ptr<Reducer> map_combiner =
      config.combiner ? config.combiner() : nullptr;
  if (map_combiner != nullptr) {
    map_combiner->begin_task(TaskInfo{config.task_id, &map_counters});
  }

  // ---- output stage: the only thing the combine mode decides -------------
  // Hash mode: the table takes every record. Sort mode: the ring does,
  // except that FreqOpt puts the table, admitting nothing until profiling
  // freezes the top-k set, in front of it within its own budget.
  const bool hash_mode = config.combine_mode == CombineMode::kHash;
  const bool freq_on = config.freqbuf.enabled && !hash_mode;
  std::optional<SpillRing> ring;
  std::optional<HashCombineShards> table;
  if (hash_mode) task_span.arg("hash_combine", 1.0);
  if (hash_mode || freq_on) {
    HashCombineConfig hash_config;
    hash_config.memory_budget_bytes =
        hash_mode ? config.spill_buffer_bytes : config.freq_table_budget_bytes;
    hash_config.num_partitions = config.num_partitions;
    table.emplace(
        hash_config, map_combiner.get(),
        [&config](std::uint64_t sequence) {
          return scratch_file(config,
                              "hspill" + std::to_string(sequence) + ".run");
        },
        result.map_thread, map_trace);
  }
  if (!hash_mode) ring.emplace(config);

  // ---- map thread (this thread) ------------------------------------------
  std::unique_ptr<freqbuf::FreqBufferController> freq;
  if (freq_on) {
    table->admit_only({});
    freq = std::make_unique<freqbuf::FreqBufferController>(
        config.freqbuf, map_combiner != nullptr,
        [&table](std::vector<std::string> keys) {
          table->admit_only(std::move(keys));
        },
        result.map_thread, config.node_cache, map_trace);
  }
  EmitRouter router(ring ? &ring->buffer() : nullptr,
                    table ? &*table : nullptr, partitioner, freq.get(),
                    result.map_thread);

  try {
    std::unique_ptr<Mapper> mapper = config.mapper();
    mapper->begin_task(TaskInfo{config.task_id, &map_counters});
    io::LineReader reader(config.split);
    std::uint64_t offset = 0;
    while (true) {
      // Two clock reads per line: into kMapRead here, into kMapUser below.
      result.map_thread.switch_op(Op::kMapRead);
      const std::optional<std::string_view> line = reader.next_line();
      if (!line.has_value()) break;
      result.map_thread.input_records += 1;
      result.map_thread.input_bytes += line->size() + 1;
      if (freq != nullptr) {
        freq->set_progress(reader.fraction_consumed());
      }
      if (config.progress != nullptr) {
        config.progress->store(reader.fraction_consumed(),
                               std::memory_order_relaxed);
      }
      TEXTMR_FAILPOINT("map.user_code");
      result.map_thread.switch_op(Op::kMapUser);
      mapper->map(offset, *line, router);
      ++offset;
    }
    if (freq != nullptr) {
      freq->finish();
      result.freq_stage_at_end = freq->stage();
      result.freq_sampling_fraction = freq->effective_sampling_fraction();
    }
  } catch (...) {
    if (ring) ring->fail();
    throw;
  }

  std::vector<io::SpillRunInfo> table_runs;
  if (table) {
    table_runs = table->finish();
    if (ring) {
      // FreqOpt: everything the filtered table wrote, combined.
      for (const auto& run : table_runs) {
        result.map_thread.freq_flushes += run.records;
      }
    }
  }
  std::vector<io::SpillRunInfo> runs;
  if (ring) runs = ring->finish(result);
  // The table's runs are sorted and combined like the ring's; the final
  // merge takes both.
  result.spills += table_runs.size();
  runs.insert(runs.end(), std::make_move_iterator(table_runs.begin()),
              std::make_move_iterator(table_runs.end()));
  result.pipeline_wall_ns = monotonic_ns() - task_start;

  // ---- final merge --------------------------------------------------------
  finish_map_output(config, runs, map_combiner.get(), map_trace, result);

  result.counters += map_counters;
  result.wall_ns = result.map_thread.switch_op(Op::kNumOps) - task_start;
  return result;
}

}  // namespace textmr::mr
