#include <gtest/gtest.h>

// Cross-cutting property tests: for randomized corpora and randomized
// engine configurations, every optimization setting must produce exactly
// the output of the sequential reference implementation. This is the
// paper's central correctness claim — the optimizations "require no user
// code changes" and never alter job semantics.

#include <cstdlib>
#include <set>

#include "common/failpoint.hpp"
#include "helpers.hpp"

namespace textmr {
namespace {

struct EngineParams {
  std::uint64_t corpus_seed;
  double alpha;
  std::uint32_t num_reducers;
  std::size_t spill_buffer_kb;
  bool freqbuf;
  bool matcher;
  std::string fail_spec;  // empty = no fault injection
};

void PrintTo(const EngineParams& p, std::ostream* os) {
  *os << "seed=" << p.corpus_seed << " alpha=" << p.alpha
      << " reducers=" << p.num_reducers << " buf=" << p.spill_buffer_kb
      << "KiB freq=" << p.freqbuf << " matcher=" << p.matcher << " fail=" << (p.fail_spec.empty() ? "none" : p.fail_spec);
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineEquivalenceTest, WordCountEqualsReferenceUnderAllConfigs) {
  const auto& p = GetParam();
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 25000;
  corpus_spec.vocabulary = 800;
  corpus_spec.alpha = p.alpha;
  corpus_spec.seed = p.corpus_seed;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 48 * 1024),
                             dir.file("s"), dir.file("o"), p.num_reducers);
  spec.spill_buffer_bytes = p.spill_buffer_kb * 1024;
  spec.use_spill_matcher = p.matcher;
  if (p.freqbuf) {
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = 40;
    spec.freqbuf.sampling_fraction = 0.0;  // exercise the auto-tuner too
    spec.freqbuf.pre_profile_fraction = 0.02;
  }

  // Fault-injection axis: recovery (re-executed attempts, cleanup,
  // re-spills) must be as semantics-preserving as the optimizations.
  failpoint::ScopedFailpoints failpoints(p.fail_spec);
  spec.retry_backoff_base_ms = 0;

  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  if (!p.fail_spec.empty()) {
    EXPECT_GE(result.metrics.tasks_retried, 1u);
  }
  const auto expected = test::reference_wordcount(corpus.string());
  const auto actual = test::read_outputs(result.outputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [word, count] : expected) {
    ASSERT_EQ(actual.at(word), std::to_string(count)) << word;
  }
}

std::vector<EngineParams> equivalence_matrix() {
  // Fault axis: sites that every configuration is guaranteed to reach.
  const std::string fail_specs[] = {
      "",
      "spill.write:nth=1",
      "dfs.open:nth=1",
      "map.user_code:nth=1",
      "reduce.output_rename:nth=1",
      "spill.read:nth=1",
      "support.sort:nth=1",
  };
  std::vector<EngineParams> params;
  std::uint64_t seed = 1000;
  for (const bool freq : {false, true}) {
    for (const bool matcher : {false, true}) {
      for (const double alpha : {0.6, 1.0, 1.4}) {
        params.push_back(EngineParams{
            ++seed, alpha, static_cast<std::uint32_t>(1 + seed % 4),
            static_cast<std::size_t>(seed % 2 == 0 ? 32 : 96), freq, matcher,
            fail_specs[params.size() % std::size(fail_specs)]});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineEquivalenceTest,
                         ::testing::ValuesIn(equivalence_matrix()));

/// Combiner-application-count invariance: a pathological spill buffer
/// (tiny, causing hundreds of spills and deep merges) must not change any
/// aggregate. This drives the "combiner may run zero or more times"
/// contract through extreme schedules.
TEST(EngineProperties, TinySpillBufferDoesNotChangeResults) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 15000;
  corpus_spec.vocabulary = 300;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  const auto splits = io::make_splits(corpus.string(), 1 << 20);

  auto tiny = test::make_job(apps::wordcount_app(), splits, dir.file("s1"),
                             dir.file("o1"));
  tiny.spill_buffer_bytes = 4 * 1024;  // hundreds of spills
  auto large = test::make_job(apps::wordcount_app(), splits, dir.file("s2"),
                              dir.file("o2"));
  large.spill_buffer_bytes = 8 << 20;  // one spill

  mr::LocalEngine engine;
  EXPECT_EQ(test::read_outputs(engine.run(tiny).outputs),
            test::read_outputs(engine.run(large).outputs));
}

/// Partitioning property: the union of all reducers' outputs has exactly
/// one entry per distinct key, for any reducer count.
TEST(EngineProperties, ReducerCountNeverDuplicatesOrDropsKeys) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 10000;
  corpus_spec.vocabulary = 500;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  const auto splits = io::make_splits(corpus.string(), 1 << 20);
  const auto expected = test::reference_wordcount(corpus.string());

  mr::LocalEngine engine;
  for (const std::uint32_t reducers : {1u, 2u, 5u, 16u}) {
    auto spec = test::make_job(apps::wordcount_app(), splits,
                               dir.file("s" + std::to_string(reducers)),
                               dir.file("o" + std::to_string(reducers)),
                               reducers);
    const auto result = engine.run(spec);
    EXPECT_EQ(result.outputs.size(), reducers);
    std::size_t total_rows = 0;
    for (const auto& part : result.outputs) {
      std::ifstream in(part);
      std::string line;
      while (std::getline(in, line)) ++total_rows;
    }
    EXPECT_EQ(total_rows, expected.size()) << reducers;
  }
}

/// SynText invariance across its parameter grid: the counts reported by
/// the reducer are independent of cpu/storage intensity (those knobs only
/// change costs, never semantics).
class SynTextGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SynTextGridTest, GridPointsAgreeOnGroupCardinality) {
  const auto [cpu, storage] = GetParam();
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 5000;
  corpus_spec.vocabulary = 200;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  apps::SynTextParams params;
  params.cpu_intensity = cpu;
  params.storage_intensity = storage;
  auto spec = test::make_job(apps::syntext_app(params),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  const auto outputs = test::read_outputs(result.outputs);
  const auto expected = test::reference_wordcount(corpus.string());
  ASSERT_EQ(outputs.size(), expected.size());
  // Each output value is "count:bytes"; with a combiner the count per key
  // collapses to the number of runs that saw it, so only the key set is
  // invariant — which is what we assert.
  for (const auto& [word, count] : expected) {
    ASSERT_TRUE(outputs.count(word) == 1) << word;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SynTextGridTest,
    ::testing::Combine(::testing::Values(1.0, 8.0),
                       ::testing::Values(0.0, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// Differential oracle grid (ISSUE 4): every app with deterministic output
// runs over Zipf α × FreqOpt × SpillOpt × failpoints, and each optimized
// (and fault-injected) run must reproduce the *bytes* of a clean baseline
// run of the same app on the same dataset. WordCount is additionally
// checked against the sketch::ExactCounter sequential oracle, tying the
// grid to ground truth rather than just run-vs-run agreement.
//
// Excluded by design (same rationale as test_app_equivalence.cpp):
// PageRank carries %.6f-rounded rank text, so its last decimals are
// legitimately schedule-dependent; SynText reports run-count-sensitive
// aggregates. Both have dedicated tolerance/invariance tests elsewhere.

struct DiffParams {
  std::string app;
  std::uint64_t seed;
  double alpha;  // corpus skew; ignored by the access-log datasets
  bool freqbuf;
  bool matcher;
  std::size_t spill_buffer_kb;
  std::string fail_spec;  // empty = no fault injection
  bool skew = false;      // skew-aware partitioner on the optimized run
  // Map-side combine axis (DESIGN.md §15): 0 = sort-spill baseline,
  // 1 = sharded hash-combine, 2 = hash-combine under a tiny memory
  // budget (shards flush AND demote mid-stream). All three must be
  // byte-identical.
  int combine = 0;
};

const char* combine_name(int combine) {
  return combine == 0 ? "sort" : combine == 1 ? "hash" : "hash-forced";
}

/// Applies the combine axis to a spec (shared by the local and cluster
/// differential grids).
void apply_combine_mode(mr::JobSpec& spec, int combine) {
  if (combine == 0) return;
  spec.combine_mode = mr::CombineMode::kHash;
  // 16 KiB is a 2 KiB per-shard watermark: shards flush, and a shard's
  // fourth flush demotes it to the sort-spill path mid-stream.
  if (combine == 2) spec.spill_buffer_bytes = 16u << 10;
}

/// Hash-combine flushes and demotions summed over a job's tasks (or a
/// pipeline's jobs).
struct HashPressure {
  std::uint64_t flushes = 0;
  std::uint64_t demotions = 0;

  void add(const mr::JobResult& result) {
    flushes += result.metrics.work.hash_combine_flushes;
    demotions += result.metrics.work.hash_combine_demotions;
  }
  /// The hash-forced cells must really take the pressured path.
  void expect_forced(int combine) const {
    if (combine != 2) return;
    EXPECT_GT(flushes, 0u) << "hash-forced cell never flushed";
    EXPECT_GT(demotions, 0u) << "hash-forced cell never demoted";
  }
};

void PrintTo(const DiffParams& p, std::ostream* os) {
  *os << p.app << " seed=" << p.seed << " alpha=" << p.alpha
      << " freq=" << p.freqbuf << " matcher=" << p.matcher
      << " buf=" << p.spill_buffer_kb
      << "KiB fail=" << (p.fail_spec.empty() ? "none" : p.fail_spec)
      << " skew=" << p.skew << " combine=" << combine_name(p.combine);
}

/// "TfIdfPipeline" resolves to job 1's bundle for dataset selection; the
/// test body chains job 2 behind it.
apps::AppBundle diff_bundle(const std::string& name) {
  if (name == "WordCount") return apps::wordcount_app();
  if (name == "InvertedIndex") return apps::inverted_index_app();
  if (name == "WordPOSTag") return apps::word_pos_tag_app(1);
  if (name == "AccessLogSum") return apps::access_log_sum_app();
  if (name == "AccessLogJoinSorted") return apps::access_log_join_sorted_app();
  if (name == "Sessionize") return apps::sessionize_app();
  if (name == "TfIdfPipeline") return apps::tfidf_job1_app();
  return apps::access_log_join_app();
}

/// Skew-partitioner settings that reliably produce a non-empty plan on
/// the grid's skewed corpora (α=1.5's top word carries ~40% of the mass,
/// weight ≈ 1.2 with 3 reducers) while the flat corpora stay below the
/// placement bar — so the grid exercises empty plans, placement, and
/// splitting without per-app tuning.
void enable_skew(mr::JobSpec& spec) {
  spec.skew.enabled = true;
  spec.skew.top_k = 32;
  spec.skew.sample_bytes = 1u << 20;
  spec.skew.place_threshold = 0.3;
  spec.skew.split_threshold = 0.8;
  spec.skew.max_split_shares = 3;
}

std::vector<io::InputSplit> diff_dataset(const apps::AppBundle& app,
                                         const DiffParams& p,
                                         const TempDir& dir) {
  switch (app.dataset) {
    case apps::Dataset::kCorpus: {
      textgen::CorpusSpec spec;
      spec.total_words = app.name == "WordPOSTag" ? 4000 : 15000;
      spec.vocabulary = 500;
      spec.alpha = p.alpha;
      spec.seed = p.seed;
      const auto path = dir.file("corpus.txt");
      textgen::generate_corpus(spec, path.string());
      return io::make_splits(path.string(), 48 * 1024);
    }
    case apps::Dataset::kAccessLog:
    case apps::Dataset::kAccessLogWithRankings: {
      textgen::AccessLogSpec spec;
      spec.num_visits = 8000;
      spec.num_urls = 600;
      spec.seed = p.seed;
      const auto visits = dir.file("visits.log");
      const auto rankings = dir.file("rankings.txt");
      textgen::generate_access_log(spec, visits.string(), rankings.string());
      auto splits = io::make_splits(visits.string(), 96 * 1024);
      if (app.dataset == apps::Dataset::kAccessLogWithRankings) {
        const auto extra = io::make_splits(rankings.string(), 96 * 1024);
        splits.insert(splits.end(), extra.begin(), extra.end());
      }
      return splits;
    }
    case apps::Dataset::kWebGraph:
      break;  // PageRank is excluded from byte-identity (see above)
  }
  return {};
}

/// Raw bytes of each part file, in part order — the strictest possible
/// output comparison (content, line order, partition assignment).
std::vector<std::string> read_raw_parts(
    const std::vector<std::filesystem::path>& parts) {
  std::vector<std::string> raw;
  for (const auto& part : parts) {
    std::ifstream in(part, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    raw.push_back(std::move(buffer).str());
  }
  return raw;
}

std::multiset<std::string> all_output_lines(
    const std::vector<std::filesystem::path>& parts) {
  std::multiset<std::string> lines;
  for (const auto& part : parts) {
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) lines.insert(line);
  }
  return lines;
}

class DifferentialOracleTest : public ::testing::TestWithParam<DiffParams> {};

TEST_P(DifferentialOracleTest, OptimizedFaultedRunMatchesCleanBaseline) {
  const auto& p = GetParam();
  TempDir dir;
  const bool pipeline = p.app == "TfIdfPipeline";
  const apps::AppBundle app = diff_bundle(p.app);
  const auto splits = diff_dataset(app, p, dir);
  ASSERT_FALSE(splits.empty());
  mr::LocalEngine engine;

  const auto configure_optimized = [&](mr::JobSpec& spec) {
    spec.spill_buffer_bytes = p.spill_buffer_kb * 1024;
    spec.use_spill_matcher = p.matcher;
    if (p.freqbuf) {
      spec.freqbuf.enabled = true;
      spec.freqbuf.top_k = 60;
      spec.freqbuf.sampling_fraction = 0.05;
    }
    if (p.skew) enable_skew(spec);
    apply_combine_mode(spec, p.combine);
  };

  // Runs the app (or, for TfIdfPipeline, job 1 feeding job 2) and
  // accumulates retry counts across the chained jobs — a pipeline's
  // injected fault may land in either stage.
  std::uint64_t tasks_retried = 0;
  HashPressure pressure;
  const auto run_app = [&](const std::string& tag, bool optimized) {
    if (!pipeline) {
      auto spec = test::make_job(app, splits, dir.file(tag + "s"),
                                 dir.file(tag + "o"));
      if (optimized) configure_optimized(spec);
      spec.retry_backoff_base_ms = 0;
      auto result = engine.run(spec);
      tasks_retried += result.metrics.tasks_retried;
      pressure.add(result);
      return result;
    }
    auto job1 = test::make_job(apps::tfidf_job1_app(), splits,
                               dir.file(tag + "s1"), dir.file(tag + "o1"));
    if (optimized) configure_optimized(job1);
    job1.retry_backoff_base_ms = 0;
    const auto mid = engine.run(job1);
    tasks_retried += mid.metrics.tasks_retried;
    pressure.add(mid);
    std::vector<io::InputSplit> mid_splits;
    for (const auto& part : mid.outputs) {
      const auto extra = io::make_splits(part.string(), 48 * 1024);
      mid_splits.insert(mid_splits.end(), extra.begin(), extra.end());
    }
    auto job2 = test::make_job(apps::tfidf_job2_app(), mid_splits,
                               dir.file(tag + "s2"), dir.file(tag + "o2"));
    if (optimized) configure_optimized(job2);
    job2.retry_backoff_base_ms = 0;
    auto result = engine.run(job2);
    tasks_retried += result.metrics.tasks_retried;
    pressure.add(result);
    return result;
  };

  // The oracle run: no optimizations, no faults, a roomy spill buffer.
  const auto oracle = run_app("o", /*optimized=*/false);

  tasks_retried = 0;
  pressure = HashPressure{};
  failpoint::ScopedFailpoints failpoints(p.fail_spec);
  const auto result = run_app("c", /*optimized=*/true);
  if (!p.fail_spec.empty()) {
    EXPECT_GE(tasks_retried, 1u);
  }
  pressure.expect_forced(p.combine);

  if (p.app == "AccessLogJoin") {
    // Join rows repeat per key and their order within a reduce group
    // follows the merge schedule, so byte-identity does not apply;
    // compare the full line multiset instead.
    EXPECT_EQ(all_output_lines(result.outputs), all_output_lines(oracle.outputs));
  } else {
    EXPECT_EQ(read_raw_parts(result.outputs), read_raw_parts(oracle.outputs));
  }

  if (p.app == "WordCount") {
    // Ground truth: the ExactCounter oracle over the raw token stream.
    sketch::ExactCounter counter;
    std::ifstream in(dir.file("corpus.txt"));
    std::string line;
    std::string scratch;
    while (std::getline(in, line)) {
      apps::for_each_token(line, scratch,
                           [&](std::string_view token) { counter.offer(token); });
    }
    const auto actual = test::read_outputs(result.outputs);
    ASSERT_EQ(actual.size(), counter.distinct());
    for (const auto& [word, count] : actual) {
      EXPECT_EQ(count, std::to_string(counter.count(word))) << word;
    }
  }
}

/// Pressure runs (ctest -L pressure) multiply the grid by re-running it
/// with fresh dataset seeds; see tests/CMakeLists.txt.
std::size_t pressure_scale() {
  if (const char* env = std::getenv("TEXTMR_PRESSURE_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v > 100 ? 100 : v);
  }
  return 1;
}

std::vector<DiffParams> differential_matrix() {
  const char* app_names[] = {"WordCount",           "InvertedIndex",
                             "WordPOSTag",          "AccessLogSum",
                             "AccessLogJoin",       "AccessLogJoinSorted",
                             "Sessionize",          "TfIdfPipeline"};
  const double alphas[] = {0.7, 1.1, 1.5};
  const std::string fail_specs[] = {
      "",
      "spill.write:nth=1",
      "dfs.open:nth=1",
      "map.user_code:nth=1",
      "reduce.output_rename:nth=1",
      "spill.read:nth=1",
  };
  std::vector<DiffParams> params;
  std::uint64_t seed = 5000;
  for (std::size_t round = 0; round < pressure_scale(); ++round) {
    for (const char* app : app_names) {
      for (const bool freq : {false, true}) {
        for (const bool matcher : {false, true}) {
          ++seed;
          // Skew-aware partitioning alternates across the grid, so every
          // app sees both partitioner modes over its four cells.
          const bool skew = seed % 2 == 0;
          std::string fail = fail_specs[params.size() % std::size(fail_specs)];
          // dfs.open:nth=1 would fire once inside the skew sampling
          // pre-pass (which tolerates and consumes it), leaving no fault
          // for a task to retry — swap in a task-side site instead.
          if (skew && fail == "dfs.open:nth=1") fail = "spill.read:nth=1";
          params.push_back(DiffParams{
              app, seed, alphas[seed % std::size(alphas)], freq, matcher,
              static_cast<std::size_t>(seed % 3 == 0 ? 24 : 64),
              std::move(fail), skew,
              // Combine axis cycles so every app sees sort, hash and the
              // forced-watermark hash across its four cells.
              static_cast<int>(params.size() % 3)});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Oracle, DifferentialOracleTest,
                         ::testing::ValuesIn(differential_matrix()));

// ---------------------------------------------------------------------------
// Cross-engine differential grid: every deterministic app runs under the
// multi-process ClusterEngine at 1/2/4 workers, with and without the two
// paper optimizations, and must reproduce the bytes of a LocalEngine run
// of the identical spec. This is the contract DESIGN.md §10 promises:
// which engine scheduled a task — threads or forked worker processes with
// speculative duplicates — is unobservable in the output.

struct ClusterDiffParams {
  std::string app;
  std::uint32_t workers;
  bool freqbuf;
  bool matcher;
  bool skew = false;  // skew-aware partitioner on BOTH engines
  // Transport axis (DESIGN.md §14): kTcp runs the same forked workers
  // over checksummed loopback TCP with the network shuffle on, and must
  // still reproduce the LocalEngine bytes.
  cluster::TransportKind transport = cluster::TransportKind::kSocketpair;
  // Fault axis: armed for the cluster run only (inherited by every
  // forked worker); recovery must be byte-invisible too.
  std::string fail_spec;
  // Combine axis: applied to BOTH engines, so byte-identity proves the
  // hash-combine path is engine- and transport-invariant too.
  int combine = 0;
};

void PrintTo(const ClusterDiffParams& p, std::ostream* os) {
  *os << p.app << " workers=" << p.workers << " freq=" << p.freqbuf
      << " matcher=" << p.matcher << " skew=" << p.skew << " transport="
      << cluster::transport_kind_name(p.transport)
      << " combine=" << combine_name(p.combine);
  if (!p.fail_spec.empty()) *os << " fail=" << p.fail_spec;
}

class ClusterDifferentialTest
    : public ::testing::TestWithParam<ClusterDiffParams> {};

TEST_P(ClusterDifferentialTest, ClusterRunReproducesLocalEngineBytes) {
  const auto& p = GetParam();
  TempDir dir;
  const bool pipeline = p.app == "TfIdfPipeline";
  DiffParams dataset_params;
  dataset_params.app = p.app;
  dataset_params.seed = 9000 + p.workers * 10 + (p.freqbuf ? 2 : 0) +
                        (p.matcher ? 1 : 0) + (p.skew ? 4 : 0);
  // Skewed corpora when either skew-sensitive optimization is on, so the
  // partitioner actually builds a non-empty plan.
  dataset_params.alpha = (p.freqbuf || p.skew) ? 1.5 : 1.1;
  const apps::AppBundle app = diff_bundle(p.app);
  const auto splits = diff_dataset(app, dataset_params, dir);
  ASSERT_FALSE(splits.empty());

  // Both engines run the *same* spec — with skew on, each computes the
  // plan independently from the same inputs, so byte-identical outputs
  // also prove the plan construction itself is deterministic.
  const auto configure = [&](mr::JobSpec& spec) {
    spec.use_spill_matcher = p.matcher;
    if (p.freqbuf) {
      spec.freqbuf.enabled = true;
      spec.freqbuf.top_k = 60;
      spec.freqbuf.sampling_fraction = 0.05;
    }
    if (p.skew) enable_skew(spec);
    apply_combine_mode(spec, p.combine);
    spec.retry_backoff_base_ms = 0;
  };
  HashPressure pressure;
  const auto run_app = [&](auto& engine, const std::string& tag) {
    if (!pipeline) {
      auto spec = test::make_job(app, splits, dir.file("s-" + tag),
                                 dir.file("o-" + tag));
      configure(spec);
      auto result = engine.run(spec);
      pressure.add(result);
      return result;
    }
    auto job1 = test::make_job(apps::tfidf_job1_app(), splits,
                               dir.file("s1-" + tag), dir.file("o1-" + tag));
    configure(job1);
    const auto mid = engine.run(job1);
    pressure.add(mid);
    std::vector<io::InputSplit> mid_splits;
    for (const auto& part : mid.outputs) {
      const auto extra = io::make_splits(part.string(), 48 * 1024);
      mid_splits.insert(mid_splits.end(), extra.begin(), extra.end());
    }
    auto job2 = test::make_job(apps::tfidf_job2_app(), mid_splits,
                               dir.file("s2-" + tag), dir.file("o2-" + tag));
    configure(job2);
    auto result = engine.run(job2);
    pressure.add(result);
    return result;
  };

  mr::LocalEngine local;
  const auto oracle = run_app(local, "local");
  // Armed after the clean oracle run, inherited by the cluster workers.
  failpoint::ScopedFailpoints failpoints(p.fail_spec);
  cluster::ClusterConfig config;
  config.num_workers = p.workers;
  config.transport = p.transport;
  if (p.transport == cluster::TransportKind::kTcp) {
    config.io_timeout_ms = 10000;
  }
  cluster::ClusterEngine cluster_engine(config);
  pressure = HashPressure{};
  const auto result = run_app(cluster_engine, "cluster");
  pressure.expect_forced(p.combine);
  if (p.transport == cluster::TransportKind::kTcp) {
    // The TCP cells genuinely shuffle over the network — without this,
    // a silently-disabled shuffle service would pass the byte check.
    EXPECT_GT(result.metrics.work.shuffled_wire_bytes, 0u);
  } else {
    EXPECT_EQ(result.metrics.work.shuffled_wire_bytes, 0u);
  }

  ASSERT_EQ(result.outputs.size(), oracle.outputs.size());
  if (p.app == "AccessLogJoin") {
    // Join rows within a reduce group follow the merge schedule (same
    // rationale as the local differential grid above).
    EXPECT_EQ(all_output_lines(result.outputs),
              all_output_lines(oracle.outputs));
  } else {
    EXPECT_EQ(read_raw_parts(result.outputs), read_raw_parts(oracle.outputs));
  }
  EXPECT_EQ(result.metrics.map_tasks, oracle.metrics.map_tasks);
  EXPECT_EQ(result.metrics.reduce_tasks, oracle.metrics.reduce_tasks);
}

std::vector<ClusterDiffParams> cluster_differential_matrix() {
  std::vector<ClusterDiffParams> params;
  std::size_t i = 0;
  for (const char* app :
       {"WordCount", "InvertedIndex", "WordPOSTag", "AccessLogSum",
        "AccessLogJoin", "AccessLogJoinSorted", "Sessionize",
        "TfIdfPipeline"}) {
    for (const std::uint32_t workers : {1u, 2u, 4u}) {
      for (const bool skew : {false, true}) {
        // freq / matcher cycle by position so each appears in both skew
        // modes across the grid without squaring its size.
        params.push_back(ClusterDiffParams{
            app, workers, i % 2 == 0, i % 3 == 0, skew,
            cluster::TransportKind::kSocketpair, "",
            // Combine cycles across the grid so each app runs hash and
            // forced-watermark hash cells under the cluster engine too.
            static_cast<int>(i % 3)});
        ++i;
      }
    }
    // Transport axis: every app also runs over loopback TCP with the
    // network shuffle, in both skew modes, plus one fault cell per app
    // (alternating a worker-side spill fault with a shuffle-fetch fault
    // so both recovery paths appear across the grid).
    for (const bool skew : {false, true}) {
      params.push_back(ClusterDiffParams{app, 2, i % 2 == 0, i % 3 == 0,
                                         skew, cluster::TransportKind::kTcp,
                                         "", static_cast<int>(i % 3)});
      ++i;
    }
    params.push_back(ClusterDiffParams{
        app, 2, i % 2 == 0, i % 3 == 0, false, cluster::TransportKind::kTcp,
        i % 2 == 0 ? "spill.write:nth=1" : "shuffle.fetch:nth=1",
        static_cast<int>(i % 3)});
    ++i;
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(ClusterGrid, ClusterDifferentialTest,
                         ::testing::ValuesIn(cluster_differential_matrix()));

}  // namespace
}  // namespace textmr
