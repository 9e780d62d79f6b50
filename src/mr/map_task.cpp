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

/// The tail of the map-side dataflow: partitions each record and hands it
/// to the task's output stage — the spill ring (sort path) or the
/// hash-combine tables (hash path); exactly one is set. Used directly by
/// the frequency table's overflow / flush path and by the user-facing
/// router below.
class DirectSpillSink final : public EmitSink {
 public:
  DirectSpillSink(SpillBuffer* ring, HashCombineShards* table,
                  SkewAwarePartitioner& partitioner, TaskMetrics& metrics)
      : ring_(ring), table_(table), partitioner_(partitioner),
        metrics_(metrics) {}

  void emit(std::string_view key, std::string_view value) override {
    ScopedTimer timer(metrics_, Op::kEmit);
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    // Partitioned here, per record, for either stage: a skew plan's
    // split-key round-robin cursor must advance identically in both
    // modes for byte-identical output.
    const std::uint32_t partition = partitioner_(key);
    if (table_ != nullptr) {
      table_->insert(partition, key, value);
    } else {
      ring_->put(partition, key, value);
    }
  }

 private:
  SpillBuffer* ring_;
  HashCombineShards* table_;
  // Non-const: the split-key round-robin cursor advances per record.
  // With a null plan this is exactly the old HashPartitioner path.
  SkewAwarePartitioner& partitioner_;
  TaskMetrics& metrics_;
};

/// The sink handed to user map() code: counts output volume, routes
/// through frequency-buffering when active, and otherwise forwards to the
/// output stage (ring or hash table).
class EmitRouter final : public EmitSink {
 public:
  EmitRouter(EmitSink& spill_sink, freqbuf::FreqBufferController* freq,
             TaskMetrics& metrics)
      : spill_sink_(spill_sink), freq_(freq), metrics_(metrics) {}

  void emit(std::string_view key, std::string_view value) override {
    const std::uint64_t t0 = monotonic_ns();
    metrics_.map_output_records += 1;
    metrics_.map_output_bytes += key.size() + value.size();
    if (freq_ == nullptr || !freq_->offer(key, value)) {
      spill_sink_.emit(key, value);
    }
    // Total time inside emit, used by the task to subtract framework time
    // from the surrounding kMapUser interval (emit ops self-account).
    inside_emit_ns_ += monotonic_ns() - t0;
  }

  std::uint64_t inside_emit_ns() const { return inside_emit_ns_; }

 private:
  EmitSink& spill_sink_;
  freqbuf::FreqBufferController* freq_;
  TaskMetrics& metrics_;
  std::uint64_t inside_emit_ns_ = 0;
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
    buffer_.close();
    join();
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
    // Map-thread emit time currently includes buffer-full waits; move them
    // to the idle bucket (paper Table II's "map thread idle").
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
  const std::uint64_t task_start = monotonic_ns();

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
  std::optional<SpillRing> ring;
  std::optional<HashCombineShards> table;
  if (config.combine_mode == CombineMode::kHash) {
    task_span.arg("hash_combine", 1.0);
    HashCombineConfig hash_config;
    hash_config.memory_budget_bytes = config.spill_buffer_bytes;
    hash_config.num_partitions = config.num_partitions;
    table.emplace(
        hash_config, map_combiner.get(),
        [&config](std::uint64_t sequence) {
          return scratch_file(config,
                              "hspill" + std::to_string(sequence) + ".run");
        },
        result.map_thread, map_trace);
  } else {
    ring.emplace(config);
  }
  DirectSpillSink spill_sink(ring ? &ring->buffer() : nullptr,
                             table ? &*table : nullptr, partitioner,
                             result.map_thread);

  // ---- map thread (this thread) ------------------------------------------
  std::unique_ptr<freqbuf::FreqBufferController> freq;
  if (config.freqbuf.enabled) {
    freq = std::make_unique<freqbuf::FreqBufferController>(
        config.freqbuf, config.freq_table_budget_bytes, map_combiner.get(),
        spill_sink, result.map_thread, config.node_cache, map_trace);
  }
  EmitRouter router(spill_sink, freq.get(), result.map_thread);

  try {
    std::unique_ptr<Mapper> mapper = config.mapper();
    mapper->begin_task(TaskInfo{config.task_id, &map_counters});
    io::LineReader reader(config.split);
    std::uint64_t offset = 0;
    while (true) {
      std::optional<std::string_view> line;
      {
        ScopedTimer read_timer(result.map_thread, Op::kMapRead);
        line = reader.next_line();
      }
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
      {
        ScopedTimer map_timer(result.map_thread, Op::kMapUser);
        mapper->map(offset, *line, router);
      }
      ++offset;
    }
    if (freq != nullptr) {
      freq->finish();
      result.freq_stage_at_end = freq->stage();
      result.freq_sampling_fraction = freq->effective_sampling_fraction();
    }
    // map() wall time included everything emit() did (serialization,
    // profiling, table work, buffer waits); those self-accounted, so
    // subtract them to leave pure user code in kMapUser.
    std::uint64_t& map_user_ns = result.map_thread.op_ns(Op::kMapUser);
    map_user_ns -= std::min(map_user_ns, router.inside_emit_ns());
  } catch (...) {
    if (ring) ring->fail();
    throw;
  }

  std::vector<io::SpillRunInfo> runs;
  if (table) {
    // Watermark flushes ran inside insert(), i.e. inside the kEmit scope;
    // their time self-accounted to kCombine/kSort/kSpillWrite, so subtract
    // it from kEmit (the finish() flush below runs outside any emit
    // interval).
    const std::uint64_t flush_in_emit = table->flush_ns();
    runs = table->finish();
    std::uint64_t& emit_ns = result.map_thread.op_ns(Op::kEmit);
    emit_ns -= std::min(emit_ns, flush_in_emit);
    result.spills = runs.size();
  } else {
    runs = ring->finish(result);
  }
  result.pipeline_wall_ns = monotonic_ns() - task_start;

  // ---- final merge --------------------------------------------------------
  finish_map_output(config, runs, map_combiner.get(), map_trace, result);

  result.counters += map_counters;
  result.wall_ns = monotonic_ns() - task_start;
  return result;
}

}  // namespace textmr::mr
