#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "cluster/engine.hpp"
#include "mr/engine.hpp"

namespace perfbench {
namespace {

// Input caches kept per generator family; older entries are deleted so a
// run over many seeds does not fill the disk.
constexpr std::size_t kCacheEntriesKept = 3;

Workload wc_freq() {
  Workload w;
  w.name = "wc-freq";
  w.app = apps::wordcount_app();
  w.corpus.total_words = 6'000'000;
  w.corpus.vocabulary = 200'000;
  w.corpus.alpha = 1.0;
  w.split_bytes = 2560u << 10;
  w.reducers = 4;
  w.freq = true;
  w.matcher = true;
  // Several spills per 2.5 MB split, as in Hadoop's 64 MB buffer against
  // 256 MB splits (the spill-matcher needs spills to adapt over).
  w.spill_buffer_bytes = 1u << 20;
  return w;
}

Workload index_hash() {
  Workload w;
  w.name = "index-hash";
  w.app = apps::inverted_index_app();
  w.corpus.total_words = 1'000'000;
  w.corpus.vocabulary = 200'000;
  w.corpus.alpha = 1.0;
  w.split_bytes = 850u << 10;
  w.reducers = 4;
  w.combine = mr::CombineMode::kHash;
  return w;
}

Workload join_tcp() {
  Workload w;
  w.name = "join-tcp";
  w.app = apps::access_log_join_app();
  w.access_log = true;
  w.log.num_visits = 1'600'000;
  w.log.num_urls = 600'000;
  w.log.url_alpha = 0.8;
  w.split_bytes = 16u << 20;
  w.reducers = 4;
  // Two worker processes, each with a map and a support thread: all of
  // nproc, which is why this workload is run by hand and not listed in
  // BENCHMARK.json (see NOTES.md).
  w.thread_budget = 4;
  w.engine = EngineKind::kClusterTcp;
  w.ordered_output = false;
  return w;
}

std::string cache_key(const Workload& w) {
  char buf[256];
  if (w.access_log) {
    std::snprintf(buf, sizeof(buf), "log-v%llu-u%llu-a%.3f-s%llu",
                  static_cast<unsigned long long>(w.log.num_visits),
                  static_cast<unsigned long long>(w.log.num_urls),
                  w.log.url_alpha,
                  static_cast<unsigned long long>(w.log.seed));
  } else {
    const auto& c = w.corpus;
    std::snprintf(buf, sizeof(buf),
                  "corpus-w%llu-v%llu-a%.3f-s%llu-l%u-%u-d%.3f",
                  static_cast<unsigned long long>(c.total_words),
                  static_cast<unsigned long long>(c.vocabulary), c.alpha,
                  static_cast<unsigned long long>(c.seed),
                  c.min_words_per_line, c.max_words_per_line,
                  c.decoration_rate);
  }
  return buf;
}

void prune_cache(const fs::path& root, const std::string& family,
                 const fs::path& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(family, 0) != 0 || entry.path() == keep) continue;
    std::error_code ec;
    const auto stamp = fs::last_write_time(entry.path() / "stats", ec);
    entries.emplace_back(ec ? fs::file_time_type::min() : stamp, entry.path());
  }
  std::sort(entries.begin(), entries.end());
  while (entries.size() + 1 > kCacheEntriesKept) {
    fs::remove_all(entries.front().second);
    entries.erase(entries.begin());
  }
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
  }
  return total;
}

}  // namespace

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint32_t map_workers(const Workload& w, mr::CombineMode combine) {
  return combine == mr::CombineMode::kHash
             ? w.thread_budget
             : std::max(1u, w.thread_budget / (1 + w.support_threads));
}

Workload find_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "wc-freq") {
    w = wc_freq();
  } else if (name == "index-hash") {
    w = index_hash();
  } else if (name == "join-tcp") {
    w = join_tcp();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.corpus.seed = seed;
  w.log.seed = seed;
  return w;
}

Inputs prepare_inputs(const Workload& w, const fs::path& cache_root) {
  fs::create_directories(cache_root);
  const std::string key = cache_key(w);
  const fs::path dir = cache_root / key;
  const fs::path stats = dir / "stats";
  Inputs in;
  if (w.access_log) {
    in.files = {dir / "user_visits.txt", dir / "rankings.txt"};
  } else {
    in.files = {dir / "corpus.txt"};
  }
  if (!fs::exists(stats)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    if (w.access_log) {
      const auto s = textgen::generate_access_log(w.log, in.files[0].string(),
                                                  in.files[1].string());
      bytes = s.visit_bytes + s.ranking_bytes;
      records = s.visit_records + s.ranking_records;
    } else {
      const auto s = textgen::generate_corpus(w.corpus, in.files[0].string());
      bytes = s.bytes;
      records = s.lines;
    }
    // Written last: its presence marks a complete cache entry.
    std::ofstream(stats) << bytes << ' ' << records << '\n';
  }
  std::ifstream(stats) >> in.bytes >> in.records;
  fs::last_write_time(stats, fs::file_time_type::clock::now());
  prune_cache(cache_root, key.substr(0, key.find('-')), dir);
  for (const auto& file : in.files) {
    auto splits = io::make_splits(file.string(), w.split_bytes);
    in.splits.insert(in.splits.end(), splits.begin(), splits.end());
  }
  return in;
}

mr::JobSpec make_spec(const Workload& w, const Inputs& in, const fs::path& dir,
                      mr::CombineMode combine) {
  mr::JobSpec spec;
  spec.name = w.name;
  spec.inputs = in.splits;
  spec.mapper = w.app.mapper;
  spec.reducer = w.app.reducer;
  spec.combiner = w.app.combiner;
  spec.num_reducers = w.reducers;
  spec.spill_buffer_bytes = w.spill_buffer_bytes;
  spec.use_spill_matcher = w.matcher;
  spec.support_threads = w.support_threads;
  spec.combine_mode = combine;
  if (w.freq) {
    // The paper's Combined setting at bench scale: k scaled to the
    // generator vocabulary by Zipf mass (as bench/bench_util.cpp does),
    // s = 0.01, 30% of the map-side memory for the table (§V-B2).
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = 250;
    spec.freqbuf.sampling_fraction = w.app.freq_sampling_fraction;
    spec.freqbuf.table_budget_fraction = 0.3;
  }
  spec.map_parallelism = map_workers(w, combine);
  spec.reduce_parallelism = spec.map_parallelism;
  spec.scratch_dir = dir / "scratch";
  spec.output_dir = dir / "out";
  return spec;
}

JobRun run_engine_job(const mr::JobSpec& spec, EngineKind engine) {
  JobRun run;
  const double cpu_before = cpu_seconds();
  const auto setup_start = std::chrono::steady_clock::now();
  if (engine == EngineKind::kLocal) {
    mr::LocalEngine local;
    const auto start = std::chrono::steady_clock::now();
    run.result = local.run(spec);
    run.wall_s = seconds_since(start);
  } else {
    cluster::ClusterConfig config;
    config.num_workers = spec.map_parallelism;
    config.transport = cluster::TransportKind::kTcp;
    config.io_timeout_ms = 30000;
    // Duplicate attempts would exceed the thread budget and make the
    // job's cost depend on the straggler detector's timing.
    config.speculation = false;
    cluster::ClusterEngine cluster_engine(config);
    const auto start = std::chrono::steady_clock::now();
    run.result = cluster_engine.run(spec);
    run.wall_s = seconds_since(start);
  }
  run.setup_s = seconds_since(setup_start);
  // Taken after the engine is gone, so reaped worker processes count.
  run.cpu_s = cpu_seconds() - cpu_before;
  return run;
}

}  // namespace perfbench
