// Record-path microbenchmark (DESIGN.md §8): per-record cost of the
// map-side pipeline — emit -> spill ring -> sort -> combine -> spill write
// -> merge — on WordCount over a Zipf(1.0) corpus, the workload the
// paper's Fig. 2 identifies as dominated by serialization/buffering
// abstraction costs.
//
// Emits BENCH_micro_record_path.json with ns/record notes. The CI build
// job fails if the artifact is missing, or if the hash/sort or freq/sort
// wall ratio (both paths measured in this one process, interleaved)
// regresses more than its bound over bench/baselines/micro_record_path.json
// (see .github/workflows/ci.yml). Absolute ns/record notes are reported,
// not gated: they move with the host. freq is the sort path with FreqOpt:
// the top-250 table in front of the ring. clock_read_ns is the median
// cost of one monotonic_ns() call, the unit of the op clock's overhead.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace textmr;

namespace {

struct MapSideRun {
  std::uint64_t records = 0;
  std::uint64_t framework_ns = 0;  // emit+sort+combine+write+merge
  std::uint64_t wall_ns = 0;       // framework + user map + read
};

/// One full map task on the corpus; the framework component is the record
/// path proper — everything except user map() code, input read and idle
/// time. In kSort mode the task runs map thread + support thread (sort /
/// combine / write land on the support metrics); in kHash mode the
/// sharded hash-combine runs everything on the map thread (flush time
/// lands in its kSort/kSpillWrite buckets) — summing the op buckets over
/// both structs measures the modes with one formula. `freq` adds FreqOpt
/// with wc-freq's settings: top 250 keys, 30% of the memory for the table.
MapSideRun run_map_side(const std::filesystem::path& corpus,
                        const TempDir& scratch, mr::CombineMode mode,
                        bool freq, int round) {
  auto splits = io::make_splits(corpus.string(), 64u << 20);
  mr::MapTaskConfig config;
  config.split = splits.front();
  config.num_partitions = 4;
  config.mapper = [] { return std::make_unique<apps::WordCountMapper>(); };
  config.combiner = [] { return std::make_unique<apps::WordCountCombiner>(); };
  config.spill_buffer_bytes = 1u << 20;  // many spills + a deep final merge
  config.combine_mode = mode;
  config.scratch_dir =
      scratch.file((mode == mr::CombineMode::kHash ? "hmap-" : "map-") +
                   std::string(freq ? "freq-" : "") + std::to_string(round));
  if (freq) {
    config.freqbuf.enabled = true;
    config.freqbuf.top_k = 250;
    config.freqbuf.sampling_fraction = 0.01;
    config.freqbuf.share_across_tasks = false;
    config.freq_table_budget_bytes = config.spill_buffer_bytes * 3 / 10;
    config.spill_buffer_bytes -= config.freq_table_budget_bytes;
  }

  const auto result = mr::run_map_task(config);
  const auto framework = [](const mr::TaskMetrics& m) {
    return m.op_ns(mr::Op::kEmit) + m.op_ns(mr::Op::kProfile) +
           m.op_ns(mr::Op::kFreqTable) + m.op_ns(mr::Op::kSort) +
           m.op_ns(mr::Op::kCombine) + m.op_ns(mr::Op::kSpillWrite) +
           m.op_ns(mr::Op::kMerge) + m.op_ns(mr::Op::kMergeCombine);
  };
  MapSideRun run;
  run.records = result.map_thread.map_output_records;
  run.framework_ns =
      framework(result.map_thread) + framework(result.support_thread);
  run.wall_ns = result.wall_ns;
  return run;
}

double ns_per(std::uint64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

/// Median over 21 batches of the cost of one monotonic_ns() call.
double clock_read_ns() {
  constexpr int kBatch = 100'000;
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int b = 0; b < 21; ++b) {
    const std::uint64_t t0 = monotonic_ns();
    for (int i = 0; i < kBatch; ++i) sink += monotonic_ns();
    batches.push_back(ns_per(monotonic_ns() - t0, kBatch));
  }
  return sink == 0 ? 0.0 : bench::spread(std::move(batches)).median;
}

}  // namespace

int main() {
  bench::JsonReport report("micro_record_path");

  TempDir dir("textmr-micro-record");
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 400'000;
  corpus_spec.vocabulary = 20'000;
  corpus_spec.alpha = 1.0;  // the paper's text-typical Zipf exponent
  corpus_spec.seed = 7;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  // ---- map-side pipeline: sort-spill baseline vs hash-combine ----------
  // One warmup round, then kRounds rounds running the three paths back to
  // back, so load on the host moves them together. Each path reports its
  // fastest run; the wall ratios are medians of the per-round ratios.
  constexpr int kRounds = 7;
  const struct {
    const char* name;
    mr::CombineMode mode;
    bool freq;
    const char* framework;
  } paths[] = {
      {"sort", mr::CombineMode::kSort, false, "emit+sort+combine+write+merge"},
      {"hash", mr::CombineMode::kHash, false, "emit+combine-on-insert+flush"},
      {"freq", mr::CombineMode::kSort, true,
       "sort path + FreqOpt profile/table"},
  };
  MapSideRun best[3];
  std::vector<double> ratios[3];  // wall over the same round's sort wall
  int round = 0;
  for (int r = 0; r <= kRounds; ++r) {
    MapSideRun runs[3];
    for (int p = 0; p < 3; ++p) {
      runs[p] = run_map_side(corpus, dir, paths[p].mode, paths[p].freq,
                             round++);
    }
    if (r == 0) continue;  // warmup
    for (int p = 0; p < 3; ++p) {
      if (best[p].wall_ns == 0 || runs[p].wall_ns < best[p].wall_ns) {
        best[p] = runs[p];
      }
      ratios[p].push_back(static_cast<double>(runs[p].wall_ns) /
                          static_cast<double>(runs[0].wall_ns));
    }
  }
  std::printf("map-side record path: %llu records, fastest of %d rounds\n",
              static_cast<unsigned long long>(best[0].records), kRounds);
  report.add_note("map_side_records", static_cast<double>(best[0].records));
  for (int p = 0; p < 3; ++p) {
    const double fw_ns = ns_per(best[p].framework_ns, best[p].records);
    const double wall_ns = ns_per(best[p].wall_ns, best[p].records);
    std::printf("  %-5s framework %8.1f ns/record (%s)\n", paths[p].name,
                fw_ns, paths[p].framework);
    std::printf("  %-5s wall      %8.1f ns/record (incl. user map + read)\n",
                paths[p].name, wall_ns);
    const std::string prefix =
        p == 0 ? "" : std::string(paths[p].name) + "_";
    report.add_note(prefix + "map_side_ns_per_record", fw_ns);
    report.add_note(prefix + "map_side_wall_ns_per_record", wall_ns);
  }
  // The gated quantities: same-process wall ratios against the sort path.
  const double hash_over_sort = bench::spread(ratios[1]).median;
  const double freq_over_sort = bench::spread(ratios[2]).median;
  std::printf("  wall ratios: hash/sort %.3f, freq/sort %.3f\n",
              hash_over_sort, freq_over_sort);
  report.add_note("hash_over_sort_wall", hash_over_sort);
  report.add_note("freq_over_sort_wall", freq_over_sort);

  const double clock_ns = clock_read_ns();
  std::printf("clock: %.1f ns per monotonic_ns() call (median)\n", clock_ns);
  report.add_note("clock_read_ns", clock_ns);

  // ---- packed-record primitives in isolation ---------------------------
  {
    constexpr int kN = 1'000'000;
    mr::RecordArena arena;
    std::string key = "benchmark";
    const std::string value = "12345678";
    const std::uint64_t t0 = monotonic_ns();
    for (int i = 0; i < kN; ++i) {
      key[0] = static_cast<char>('a' + (i & 15));
      arena.append(static_cast<std::uint32_t>(i & 3), key, value);
    }
    const std::uint64_t append_ns = monotonic_ns() - t0;

    const std::uint64_t t1 = monotonic_ns();
    std::uint64_t payload = 0;
    for (const mr::RecordRef& ref : arena.records()) {
      payload += ref.key().size() + ref.value().size();
    }
    const std::uint64_t iterate_ns = monotonic_ns() - t1;
    std::printf("arena: append %.1f ns/record, iterate %.1f ns/record "
                "(%llu payload bytes)\n",
                ns_per(append_ns, kN), ns_per(iterate_ns, kN),
                static_cast<unsigned long long>(payload));
    report.add_note("arena_append_ns_per_record", ns_per(append_ns, kN));
    report.add_note("arena_iterate_ns_per_record", ns_per(iterate_ns, kN));
  }

  // ---- one end-to-end job so the artifact carries a full JobResult ------
  const apps::AppBundle app = apps::wordcount_app();
  mr::JobSpec spec;
  spec.name = "micro_record_path";
  spec.inputs = io::make_splits(corpus.string(), 1u << 20);
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = 4;
  spec.spill_buffer_bytes = 1u << 20;
  spec.scratch_dir = dir.file("scratch");
  spec.output_dir = dir.file("out");
  mr::LocalEngine engine;
  report.add_job(app.name, "Baseline", engine.run(spec));

  std::printf("wrote %s\n", report.path().string().c_str());
  return 0;
}
