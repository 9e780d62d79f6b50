#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "mr/report.hpp"

namespace textmr::bench {
namespace {

JsonReport* g_active_report = nullptr;

}  // namespace

JsonReport* JsonReport::active() { return g_active_report; }

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {
  std::filesystem::path dir = ".";
  if (const char* env = std::getenv("TEXTMR_BENCH_OUT")) dir = env;
  path_ = dir / ("BENCH_" + name_ + ".json");
  g_active_report = this;
}

JsonReport::~JsonReport() {
  if (g_active_report == this) g_active_report = nullptr;
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", name_);
  w.key("jobs").begin_array();
  for (const auto& job : jobs_) {
    w.begin_object();
    w.field("app", job.app);
    w.field("setting", job.setting);
    w.field("wall_ns", job.wall_ns);
    w.field("work_ns", job.work_ns);
    w.key("metrics").raw(job.metrics_json);
    w.end_object();
  }
  w.end_array();
  w.key("notes").begin_object();
  for (const auto& [key, rendered] : notes_) {
    w.key(key).raw(rendered);
  }
  w.end_object();
  w.end_object();
  try {
    obs::write_file(path_, w.take());
    std::fprintf(stderr, "bench artifact: %s\n", path_.string().c_str());
  } catch (const std::exception& e) {
    // A bench run should not fail because the artifact directory is
    // read-only; the tables already went to stdout.
    std::fprintf(stderr, "bench artifact write failed: %s\n", e.what());
  }
}

void JsonReport::add_job(const std::string& app, const std::string& setting,
                         const mr::JobResult& result) {
  jobs_.push_back(JobEntry{app, setting, result.metrics.job_wall_ns,
                           result.metrics.work.total_ns(),
                           mr::format_job_metrics_json(result, app)});
}

void JsonReport::add_note(const std::string& key, const std::string& value) {
  std::string rendered = "\"";
  obs::append_json_escaped(rendered, value);
  rendered += '"';
  notes_.emplace_back(key, std::move(rendered));
}

void JsonReport::add_note(const std::string& key, double value) {
  obs::JsonWriter w;
  w.value(value);
  notes_.emplace_back(key, w.take());
}

namespace {

std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("TEXTMR_BENCH_DATA")) {
    return env;
  }
  return std::filesystem::temp_directory_path() / "textmr_bench_data";
}

constexpr std::uint64_t kCorpusWords = 2'200'000;      // ~12.5 MB
constexpr std::uint64_t kCorpusVocab = 120'000;
constexpr std::uint64_t kPosCorpusWords = 450'000;     // ~2.6 MB
constexpr std::uint64_t kVisits = 120'000;             // ~14 MB
constexpr std::uint64_t kUrls = 20'000;
constexpr std::uint64_t kGraphPages = 90'000;          // ~12 MB

}  // namespace

const Datasets& datasets() {
  static const Datasets sets = [] {
    Datasets d;
    d.dir = cache_dir();
    std::filesystem::create_directories(d.dir);
    d.corpus = d.dir / ("corpus_" + std::to_string(kCorpusWords) + ".txt");
    d.pos_corpus =
        d.dir / ("corpus_" + std::to_string(kPosCorpusWords) + ".txt");
    d.user_visits = d.dir / ("visits_" + std::to_string(kVisits) + ".log");
    d.rankings = d.dir / ("rankings_" + std::to_string(kUrls) + ".txt");
    d.web_graph = d.dir / ("graph_" + std::to_string(kGraphPages) + ".txt");

    if (!std::filesystem::exists(d.corpus)) {
      textgen::CorpusSpec spec;
      spec.total_words = kCorpusWords;
      spec.vocabulary = kCorpusVocab;
      spec.alpha = 1.0;
      spec.seed = 20080101;
      textgen::generate_corpus(spec, d.corpus.string());
    }
    if (!std::filesystem::exists(d.pos_corpus)) {
      textgen::CorpusSpec spec;
      spec.total_words = kPosCorpusWords;
      spec.vocabulary = kCorpusVocab / 4;
      spec.alpha = 1.0;
      spec.seed = 20080102;
      textgen::generate_corpus(spec, d.pos_corpus.string());
    }
    if (!std::filesystem::exists(d.user_visits) ||
        !std::filesystem::exists(d.rankings)) {
      textgen::AccessLogSpec spec;
      spec.num_visits = kVisits;
      spec.num_urls = kUrls;
      spec.url_alpha = 0.8;
      spec.seed = 19;
      textgen::generate_access_log(spec, d.user_visits.string(),
                                   d.rankings.string());
    }
    if (!std::filesystem::exists(d.web_graph)) {
      textgen::WebGraphSpec spec;
      spec.num_pages = kGraphPages;
      spec.link_alpha = 1.0;
      spec.seed = 23;
      textgen::generate_web_graph(spec, d.web_graph.string());
    }
    return d;
  }();
  return sets;
}

std::vector<apps::AppBundle> bench_apps() {
  return apps::paper_apps(kPosWorkPasses);
}

std::vector<io::InputSplit> bench_inputs(const apps::AppBundle& app) {
  const auto& d = datasets();
  constexpr std::uint64_t kSplit = 2u << 20;  // ~6 map tasks per dataset
  switch (app.dataset) {
    case apps::Dataset::kCorpus: {
      // WordPOSTag and the SynText sweep (up to 64x CPU intensity) use
      // the smaller corpus to keep per-point measurement time bounded;
      // profiles are per-byte, so the simulator is scale-agnostic.
      const bool cpu_heavy =
          app.name == "WordPOSTag" || app.name == "SynText";
      const auto& path = cpu_heavy ? d.pos_corpus : d.corpus;
      return io::make_splits(path.string(), kSplit);
    }
    case apps::Dataset::kAccessLog:
      return io::make_splits(d.user_visits.string(), kSplit);
    case apps::Dataset::kAccessLogWithRankings: {
      auto splits = io::make_splits(d.user_visits.string(), kSplit);
      const auto rankings = io::make_splits(d.rankings.string(), kSplit);
      splits.insert(splits.end(), rankings.begin(), rankings.end());
      return splits;
    }
    case apps::Dataset::kWebGraph:
      return io::make_splits(d.web_graph.string(), kSplit);
  }
  return {};
}

std::uint64_t bench_input_bytes(const apps::AppBundle& app) {
  std::uint64_t total = 0;
  for (const auto& split : bench_inputs(app)) total += split.length;
  return total;
}

double paper_input_bytes(const apps::AppBundle& app) {
  // §V-A2: 8.52 GB corpus; 18.68 GB UserVisits (+34 MB Rankings);
  // 22.89 GB crawl.
  switch (app.dataset) {
    case apps::Dataset::kCorpus: return 8.52e9;
    case apps::Dataset::kAccessLog: return 18.68e9;
    case apps::Dataset::kAccessLogWithRankings: return 18.71e9;
    case apps::Dataset::kWebGraph: return 22.89e9;
  }
  return 0.0;
}

double ec2_input_bytes(const apps::AppBundle& app) {
  // §V-A2 EC2 scaling: 50 GB corpus, 110 GB logs, 145 GB crawl.
  switch (app.dataset) {
    case apps::Dataset::kCorpus: return 50e9;
    case apps::Dataset::kAccessLog: return 110e9;
    case apps::Dataset::kAccessLogWithRankings: return 110e9;
    case apps::Dataset::kWebGraph: return 145e9;
  }
  return 0.0;
}

mr::JobSpec make_bench_job(const apps::AppBundle& app, const Setting& setting,
                           const std::filesystem::path& scratch_root) {
  mr::JobSpec spec;
  spec.name = app.name;
  spec.inputs = bench_inputs(app);
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = 2;
  // Sized against the 2 MB splits the way the simulator's 64 MB buffer is
  // sized against its 256 MB splits: several spills per map task.
  spec.spill_buffer_bytes = 512u << 10;
  spec.spill_threshold = 0.8;  // Hadoop default (paper §V-C)
  spec.use_spill_matcher = setting.matcher;
  if (setting.freq) {
    spec.freqbuf.enabled = true;
    // Mass-equivalent scaling of the paper's k to bench-scale vocabularies
    // (Zipf-1 mass of top-k ~ ln k / ln V): k=3000 against the 24.7M-word
    // Wikipedia vocabulary covers the same share as ~250 against our 120k
    // generator vocabulary; k=10000 against 600k URLs ~ 1000 against 20k.
    spec.freqbuf.top_k = app.freq_top_k >= 10000 ? 1000 : 250;
    spec.freqbuf.sampling_fraction = app.freq_sampling_fraction;
    spec.freqbuf.table_budget_fraction = 0.3;  // §V-B2
  }
  spec.scratch_dir = scratch_root / "scratch";
  spec.output_dir = scratch_root / "out";
  return spec;
}

mr::JobResult run_bench_job(const apps::AppBundle& app,
                            const Setting& setting) {
  TempDir scratch("textmr-bench");
  const auto spec = make_bench_job(app, setting, scratch.path());
  mr::LocalEngine engine;
  auto result = engine.run(spec);
  if (JsonReport* report = JsonReport::active()) {
    report->add_job(app.name, setting.name, result);
  }
  return result;
}

CalibratedProfiles measure_profiles(const apps::AppBundle& app) {
  const auto base_run = run_bench_job(app, kBaseline);
  const auto freq_run = run_bench_job(app, kFreqOpt);
  CalibratedProfiles profiles;
  profiles.base = sim::AppProfile::from_job(base_run.metrics);
  profiles.freq = sim::AppProfile::from_job(freq_run.metrics);
  // Normalize the freq profile's map_user share to the baseline's.
  const double base_user =
      static_cast<double>(base_run.metrics.map_work.op_ns(mr::Op::kMapUser)) /
      static_cast<double>(base_run.metrics.map_work.input_bytes);
  const double freq_user =
      static_cast<double>(freq_run.metrics.map_work.op_ns(mr::Op::kMapUser)) /
      static_cast<double>(freq_run.metrics.map_work.input_bytes);
  profiles.freq.produce_cpu_ns_per_input_byte += base_user - freq_user;
  return profiles;
}

Spread spread(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto quantile = [&xs](double q) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

std::string format_spread(const Spread& s, const char* format) {
  const auto number = [format](double x) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, x);
    return std::string(buf);
  };
  return number(s.median) + " [" + number(s.q1) + ", " + number(s.q3) + "]";
}

void print_rule(char c, int width) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fs", s);
  return buf;
}

std::vector<std::pair<const char*, double>> op_shares(
    const mr::TaskMetrics& work, bool include_idle) {
  const double total = static_cast<double>(work.total_ns(include_idle));
  std::vector<std::pair<const char*, double>> shares;
  for (std::size_t i = 0; i < mr::kNumOps; ++i) {
    const auto op = static_cast<mr::Op>(i);
    if (!include_idle &&
        (op == mr::Op::kMapIdle || op == mr::Op::kSupportIdle)) {
      continue;
    }
    const double ns = static_cast<double>(work.op_ns(op));
    if (ns == 0.0) continue;
    shares.emplace_back(mr::op_name(op), total > 0 ? ns / total : 0.0);
  }
  return shares;
}

}  // namespace textmr::bench
