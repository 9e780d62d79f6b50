// The traced run. The benchmark plays the engine's role itself: it calls
// run_map_task for each split and run_reduce_task for each partition
// with the workload's config and parallelism, and records a span around
// each call (job id, span id, causing span). Spans inside the program
// are not used, and neither are its per-op ns timers. Layers the job
// does not isolate (reading, tokenizing, shuffle fetches) are timed as
// separate passes over the same inputs and map outputs.

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "common/stopwatch.hpp"
#include "mr/task_runner.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "text/tokenize.hpp"

namespace perfbench {
namespace {

constexpr double kMB = 1e6;

struct Span {
  const char* name = nullptr;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = the job itself
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

struct Replay {
  mr::JobResult result;
  std::vector<io::SpillRunInfo> map_outputs;
  std::vector<Span> spans;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Runs `task(index, worker)` for index in [0, count) on `workers`
/// threads pulling from a shared counter; rethrows the first failure
/// after every thread has joined.
template <typename Task>
void run_parallel(std::uint32_t count, std::uint32_t workers, Task&& task) {
  std::atomic<std::uint32_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::jthread> threads;  // joined on every exit path
  threads.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        for (std::uint32_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          task(i, w);
        }
      } catch (...) {
        errors[w] = std::current_exception();
        next.store(count);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

Replay traced_replay(const mr::JobSpec& spec) {
  Replay r;
  r.start_ns = monotonic_ns();
  mr::validate_job(spec);
  fs::create_directories(spec.scratch_dir);
  fs::create_directories(spec.output_dir);
  const mr::MemorySplit mem = mr::split_memory(spec);
  const auto num_maps = static_cast<std::uint32_t>(spec.inputs.size());
  const std::uint32_t num_reduces = spec.num_reducers;
  const std::uint32_t kMapPhaseId = 1;
  const std::uint32_t kReducePhaseId = 2;

  // ---- map phase: one span per run_map_task call.
  Span map_phase{"map_phase", obs::kDriverPid, 0, kMapPhaseId, 0,
                 monotonic_ns(), 0};
  const std::uint32_t map_workers =
      std::min(spec.map_parallelism, num_maps);
  std::vector<freqbuf::NodeKeyCache> caches(map_workers);
  std::vector<mr::MapTaskResult> maps(num_maps);
  std::vector<Span> map_spans(num_maps);
  run_parallel(num_maps, map_workers, [&](std::uint32_t t, std::uint32_t w) {
    Span& span = map_spans[t];
    span = {"map_task", obs::map_task_pid(t), w, 3 + t, kMapPhaseId,
            monotonic_ns(), 0};
    maps[t] = mr::run_map_task(
        mr::make_map_task_config(spec, mem, t, 0, &caches[w], nullptr));
    span.end_ns = monotonic_ns();
  });
  map_phase.end_ns = monotonic_ns();
  for (const auto& task : maps) {
    r.map_outputs.push_back(task.output);
    mr::fold_map_result(task, r.result);
  }

  // ---- reduce phase: one span per run_reduce_task call.
  Span reduce_phase{"reduce_phase", obs::kDriverPid, 0, kReducePhaseId, 0,
                    monotonic_ns(), 0};
  std::vector<mr::ReduceTaskResult> reduces(num_reduces);
  std::vector<Span> reduce_spans(num_reduces);
  run_parallel(num_reduces, std::min(spec.reduce_parallelism, num_reduces),
               [&](std::uint32_t p, std::uint32_t w) {
                 Span& span = reduce_spans[p];
                 span = {"reduce_task", obs::reduce_task_pid(p), w,
                         3 + num_maps + p, kReducePhaseId, monotonic_ns(), 0};
                 reduces[p] = mr::run_reduce_task(mr::make_reduce_task_config(
                     spec, p, 0, r.map_outputs, nullptr));
                 span.end_ns = monotonic_ns();
               });
  reduce_phase.end_ns = monotonic_ns();
  for (const auto& task : reduces) mr::fold_reduce_result(task, r.result);
  mr::note_partition_bytes(r.result, nullptr);
  r.end_ns = monotonic_ns();

  r.spans.push_back(map_phase);
  r.spans.push_back(reduce_phase);
  r.spans.insert(r.spans.end(), map_spans.begin(), map_spans.end());
  r.spans.insert(r.spans.end(), reduce_spans.begin(), reduce_spans.end());
  return r;
}

obs::TraceData to_trace(const Replay& r, const std::string& job_name,
                        std::uint32_t job_id) {
  obs::TraceData trace;
  trace.enabled = true;
  trace.job_name = job_name;
  trace.epoch_ns = r.start_ns;
  trace.process_names.emplace_back(obs::kDriverPid, "driver");
  for (const Span& span : r.spans) {
    obs::TraceEvent e;
    e.name = span.name;
    e.category = "perfbench";
    e.ts_ns = span.start_ns;
    e.dur_ns = span.end_ns - span.start_ns;
    e.pid = span.pid;
    e.tid = span.tid;
    e.kind = obs::EventKind::kSpan;
    e.num_args = 3;
    e.arg_names[0] = "job";
    e.args[0] = job_id;
    e.arg_names[1] = "span";
    e.args[1] = span.id;
    e.arg_names[2] = "parent";
    e.args[2] = span.parent;
    trace.events.push_back(e);
    if (span.pid != obs::kDriverPid) {
      const bool is_map = std::string_view(span.name) == "map_task";
      const std::uint32_t index =
          is_map ? span.pid - obs::map_task_pid(0)
                 : span.pid - obs::reduce_task_pid(0);
      trace.process_names.emplace_back(
          span.pid, (is_map ? "map_" : "reduce_") + std::to_string(index));
    }
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return trace;
}

/// Length of the union of the task spans' intervals.
std::uint64_t covered_ns(const std::vector<Span>& spans) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const Span& span : spans) {
    if (span.pid == obs::kDriverPid) continue;
    intervals.emplace_back(span.start_ns, span.end_ns);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t reach = 0;
  for (const auto& [start, end] : intervals) {
    const std::uint64_t from = std::max(start, reach);
    if (end > from) total += end - from;
    reach = std::max(reach, end);
  }
  return total;
}

void check_outputs(const char* what, const std::vector<Digest>& expected,
                   const std::vector<Digest>& actual, bool ordered) {
  const int bad = first_mismatch(expected, actual, ordered);
  if (bad >= 0) {
    throw std::runtime_error(std::string(what) + ": part file " +
                             std::to_string(bad) + " differs from the oracle");
  }
}

double io_read_pass(const Inputs& in, double& mb) {
  std::uint64_t bytes = 0;
  const std::uint64_t start = monotonic_ns();
  for (const auto& split : in.splits) {
    io::LineReader reader(split);
    while (auto line = reader.next_line()) bytes += line->size() + 1;
  }
  const std::uint64_t end = monotonic_ns();
  mb = static_cast<double>(bytes) / kMB;
  return 1e-9 * static_cast<double>(end - start);
}

double tokenize_pass(const Inputs& in, double& tokens_out) {
  std::uint64_t tokens = 0;
  std::uint64_t busy_ns = 0;
  std::string scratch;
  std::string text;
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  for (const auto& split : in.splits) {
    // Lines are staged outside the timed loop, so only the tokenizer
    // is measured.
    text.clear();
    lines.clear();
    io::LineReader reader(split);
    while (auto line = reader.next_line()) {
      lines.emplace_back(text.size(), line->size());
      text.append(*line);
    }
    const std::uint64_t start = monotonic_ns();
    for (const auto& [offset, size] : lines) {
      text::for_each_token(std::string_view(text).substr(offset, size),
                           scratch, [&](std::string_view) { ++tokens; });
    }
    busy_ns += monotonic_ns() - start;
  }
  tokens_out = static_cast<double>(tokens);
  return 1e-9 * static_cast<double>(busy_ns);
}

/// Fetches every (map output, partition) pair from a loopback
/// ShuffleServer, as a cluster reducer would.
void fetch_pass(const mr::JobSpec& spec,
                const std::vector<io::SpillRunInfo>& runs, LayerMetrics& m) {
  cluster::ShuffleServer::Options options;
  options.root = spec.scratch_dir.string();
  options.spill_format = spec.spill_format;
  cluster::ShuffleServer server(options);
  const cluster::ShuffleClient client;
  std::uint64_t fetches = 0;
  std::uint64_t busy_ns = 0;
  for (const auto& run : runs) {
    for (std::uint32_t p = 0; p < spec.num_reducers; ++p) {
      const std::uint64_t start = monotonic_ns();
      const auto bytes = client.fetch(server.endpoint(), run, p);
      busy_ns += monotonic_ns() - start;
      if (!bytes.has_value()) {
        throw std::runtime_error("shuffle fetch of " + run.path +
                                 " partition " + std::to_string(p) +
                                 " failed");
      }
      ++fetches;
    }
  }
  server.stop();
  m["cluster.fetch_s"] = 1e-9 * static_cast<double>(busy_ns);
  m["cluster.wire_mb"] = static_cast<double>(server.bytes_served()) / kMB;
  m["cluster.fetch_retries"] =
      static_cast<double>(server.requests_served() - fetches);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void job_metrics(const Replay& r, LayerMetrics& m) {
  const mr::JobMetrics& jm = r.result.metrics;
  const mr::TaskMetrics& work = jm.work;
  const auto records_out = static_cast<double>(work.map_output_records);
  double map_task_s = 0;
  double reduce_task_s = 0;
  std::uint64_t map_first = UINT64_MAX, map_last = 0;
  std::uint64_t reduce_first = UINT64_MAX, reduce_last = 0;
  for (const Span& span : r.spans) {
    const std::string_view name = span.name;
    if (name == "map_task") {
      map_task_s += span.seconds();
      map_first = std::min(map_first, span.start_ns);
      map_last = std::max(map_last, span.end_ns);
    } else if (name == "reduce_task") {
      reduce_task_s += span.seconds();
      reduce_first = std::min(reduce_first, span.start_ns);
      reduce_last = std::max(reduce_last, span.end_ns);
    }
  }
  double spills = 0;
  double threshold = 0;
  for (const auto& task : r.result.map_tasks) {
    spills += static_cast<double>(task.spills);
    threshold += task.final_spill_threshold;
  }
  double final_records = 0;
  double final_bytes = 0;
  for (const auto& run : r.map_outputs) {
    final_records += static_cast<double>(run.records);
    final_bytes += static_cast<double>(run.bytes);
  }
  m["mr.map_task_s"] = map_task_s;
  m["mr.map_phase_s"] = 1e-9 * static_cast<double>(map_last - map_first);
  m["mr.map_records_out"] = records_out;
  m["mr.spills"] = spills;
  m["mr.spill_mb"] = static_cast<double>(work.spilled_bytes) / kMB;
  m["mr.map_output_mb"] = final_bytes / kMB;
  m["mr.combine_ratio"] = ratio(final_records, records_out);
  m["mr.map_idle_frac"] = jm.map_idle_fraction();
  m["mr.support_idle_frac"] = jm.support_idle_fraction();
  m["freqbuf.hit_ratio"] = ratio(static_cast<double>(work.freq_hits), records_out);
  m["freqbuf.flush_records"] = static_cast<double>(work.freq_flushes);
  m["spillmatch.final_threshold"] =
      ratio(threshold, static_cast<double>(r.result.map_tasks.size()));
  m["mr.hash_hit_ratio"] =
      ratio(static_cast<double>(work.hash_combine_hits), records_out);
  m["mr.hash_flushes"] = static_cast<double>(work.hash_combine_flushes);
  m["mr.hash_demotions"] = static_cast<double>(work.hash_combine_demotions);
  m["mr.reduce_task_s"] = reduce_task_s;
  m["mr.reduce_phase_s"] =
      1e-9 * static_cast<double>(reduce_last - reduce_first);
  m["mr.shuffle_mb"] = static_cast<double>(jm.reduce_work.shuffled_bytes) / kMB;
  m["mr.reduce_groups"] = static_cast<double>(jm.reduce_work.reduce_groups);
  m["mr.output_mb"] = static_cast<double>(jm.reduce_work.output_bytes) / kMB;
  m["mr.partition_skew"] = jm.partition_skew_ratio();
  const double wall = 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
  const double covered = 1e-9 * static_cast<double>(covered_ns(r.spans));
  m["ledger.traced_wall_s"] = wall;
  m["ledger.unattributed_s"] = wall - covered;
  m["ledger.gap_frac"] = ratio(wall - covered, wall);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"io.read_s", "s"},
      {"io.read_mb", "MB"},
      {"text.tokenize_s", "s"},
      {"text.tokens", "count"},
      {"mr.map_task_s", "s"},
      {"mr.map_phase_s", "s"},
      {"mr.map_records_out", "count"},
      {"mr.spills", "count"},
      {"mr.spill_mb", "MB"},
      {"mr.map_output_mb", "MB"},
      {"mr.combine_ratio", "ratio"},
      {"mr.map_idle_frac", "ratio"},
      {"mr.support_idle_frac", "ratio"},
      {"freqbuf.hit_ratio", "ratio"},
      {"freqbuf.flush_records", "count"},
      {"spillmatch.final_threshold", "ratio"},
      {"mr.hash_hit_ratio", "ratio"},
      {"mr.hash_flushes", "count"},
      {"mr.hash_demotions", "count"},
      {"mr.hash_over_sort", "ratio"},
      {"mr.reduce_task_s", "s"},
      {"mr.reduce_phase_s", "s"},
      {"mr.shuffle_mb", "MB"},
      {"mr.reduce_groups", "count"},
      {"mr.output_mb", "MB"},
      {"mr.partition_skew", "ratio"},
      {"cluster.fetch_s", "s"},
      {"cluster.wire_mb", "MB"},
      {"cluster.fetch_retries", "count"},
      {"cluster.overhead_s", "s"},
      {"ledger.traced_wall_s", "s"},
      {"ledger.unattributed_s", "s"},
      {"ledger.gap_frac", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

LayerMetrics run_traced_set(const Workload& w, const Inputs& in,
                            const std::vector<Digest>& expected,
                            const fs::path& work_dir,
                            const fs::path& trace_path, std::uint32_t job_id,
                            std::string& analysis_text) {
  LayerMetrics m;
  const mr::CombineMode flipped = w.combine == mr::CombineMode::kHash
                                      ? mr::CombineMode::kSort
                                      : mr::CombineMode::kHash;
  auto reference_job = [&](const char* what, mr::CombineMode combine,
                           EngineKind engine) {
    const fs::path dir = work_dir / what;
    JobRun run = run_engine_job(make_spec(w, in, dir, combine), engine);
    auto digests = digest_outputs(run.result.outputs);
    fs::remove_all(dir);
    check_outputs(what, expected, digests, w.ordered_output);
    return std::make_pair(run.wall_s, std::move(digests));
  };

  // Untraced LocalEngine job at the replay's parallelism: the base of
  // the trace overhead and of the cluster overhead.
  const auto [local_s, local_digests] =
      reference_job("local", w.combine, EngineKind::kLocal);

  const fs::path replay_dir = work_dir / "traced";
  const mr::JobSpec spec = make_spec(w, in, replay_dir, w.combine);
  const Replay replay = traced_replay(spec);
  const std::vector<Digest> replay_digests =
      digest_outputs(replay.result.outputs);
  check_outputs("traced job", expected, replay_digests, w.ordered_output);
  if (first_mismatch(local_digests, replay_digests, /*ordered=*/true) >= 0) {
    throw std::runtime_error(
        "traced job output is not byte-identical to the untraced job");
  }
  job_metrics(replay, m);
  fetch_pass(spec, replay.map_outputs, m);
  fs::remove_all(replay_dir);

  const obs::TraceData trace =
      to_trace(replay, w.name + " traced job " + std::to_string(job_id), job_id);
  obs::write_file(trace_path, obs::format_chrome_trace(trace));
  // Read back through the analyzer's own loader, as textmr-analyze does.
  analysis_text =
      obs::format_analysis(obs::analyze_trace(obs::load_trace_file(trace_path)));

  const double flipped_s =
      reference_job("flipped", flipped, EngineKind::kLocal).first;
  const double cluster_s =
      reference_job("cluster", w.combine, EngineKind::kClusterTcp).first;
  const double hash_s = w.combine == mr::CombineMode::kHash ? local_s : flipped_s;
  const double sort_s = w.combine == mr::CombineMode::kHash ? flipped_s : local_s;
  m["mr.hash_over_sort"] = ratio(hash_s, sort_s);
  m["cluster.overhead_s"] = cluster_s - local_s;
  m["obs.trace_overhead_frac"] = m["ledger.traced_wall_s"] / local_s - 1.0;

  double read_mb = 0;
  m["io.read_s"] = io_read_pass(in, read_mb);
  m["io.read_mb"] = read_mb;
  double tokens = 0;
  m["text.tokenize_s"] = tokenize_pass(in, tokens);
  m["text.tokens"] = tokens;
  return m;
}

}  // namespace perfbench
