// textmr_perfbench: runs one workload as a closed loop with one client
// and prints its metrics; the last line of stdout is one JSON object.
//
//   textmr_perfbench --workload wc-freq|index-hash|join-tcp --seed N
//                    --seconds S --trace 0|1 [--root DIR]
//
// --trace 0 measures the end-to-end metrics: one cold job (setup_s, and
// two more fresh-engine setups for a median), then timed jobs back to
// back until S seconds have passed. --trace 1 runs traced sets instead
// (ledger.cpp) and reports the per-layer metrics. Every job's output is
// checked against the workload's oracle; on a mismatch the first
// differing part file is printed and the exit code is 1.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 3;
constexpr std::size_t kMinTimedJobs = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path root = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Resets this process's peak-RSS watermark (Linux clear_refs "5").
/// Returns false where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident set of this process since the last reset, in MB.
double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024;
}

/// Largest peak resident set of any reaped child process (cluster
/// workers), in MB.
double children_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::cerr << "FAILED: " << why << "\n";
  }
};

/// Deletes a finished job's files and flushes what is still dirty, so
/// write-back of one job's data does not land inside the next job.
void discard(const fs::path& dir) {
  fs::remove_all(dir);
  sync();
}

/// Runs one job of the workload and checks it against the oracle.
/// Returns false (and tallies a failure) on a throw or a mismatch.
bool checked_job(const Workload& w, const Inputs& in,
                 const std::vector<Digest>& expected, const fs::path& dir,
                 Tally& tally, JobRun& run) {
  ++tally.attempted;
  try {
    run = run_engine_job(make_spec(w, in, dir, w.combine), w.engine);
    const int bad = first_mismatch(
        expected, digest_outputs(run.result.outputs), w.ordered_output);
    discard(dir);
    if (bad >= 0) {
      tally.fail("part file " + run.result.outputs[bad].filename().string() +
                 " differs from the oracle");
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    discard(dir);
    tally.fail(std::string("job threw: ") + e.what());
    return false;
  }
}

void print_metric(const std::string& name, double value, const char* unit,
                  std::size_t samples) {
  std::printf("  %-28s %14.6f %-6s (median of %zu)\n", name.c_str(), value,
              unit, samples);
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const Tally& tally,
                  const std::vector<std::tuple<std::string, double, std::string>>&
                      metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run_end_to_end(const Args& args, const Workload& w, const Inputs& in,
                   const std::vector<Digest>& expected, const fs::path& work) {
  Tally tally;
  JobRun run;
  // Cold first job, then fresh engines for a median set-up time.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (checked_job(w, in, expected, work / ("setup" + std::to_string(i)),
                    tally, run)) {
      setups.push_back(run.setup_s);
    }
  }
  const bool rss_reset = reset_peak_rss();
  std::vector<double> walls;
  std::vector<double> cpus;
  const auto start = std::chrono::steady_clock::now();
  // At least kMinTimedJobs samples, unless a job already failed.
  for (std::size_t job = 0;
       seconds_since(start) < args.seconds ||
       (walls.size() < kMinTimedJobs && tally.failed == 0);
       ++job) {
    if (checked_job(w, in, expected, work / ("job" + std::to_string(job)),
                    tally, run)) {
      walls.push_back(run.wall_s);
      cpus.push_back(run.cpu_s);
      std::printf("  job %zu: %.3f s wall, %.3f s cpu\n", job, run.wall_s,
                  run.cpu_s);
    }
  }
  // Highest resident set of any process: this one over the timed jobs
  // (over its whole life where the reset is not allowed) and every
  // reaped worker process.
  const double peak = std::max(self_peak_rss_mb(), children_peak_rss_mb());

  const double failed_frac = static_cast<double>(tally.failed) /
                             static_cast<double>(tally.attempted);
  std::printf("end-to-end metrics (closed loop, 1 client%s):\n",
              rss_reset ? "" : "; peak RSS includes input generation");
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!walls.empty() && !setups.empty()) {
    metrics = {{"job_s", median(walls), "s"},
               {"cpu_s", median(cpus), "s"},
               {"peak_rss_mb", peak, "MB"},
               {"setup_s", median(setups), "s"}};
    print_metric("job_s", median(walls), "s", walls.size());
    print_metric("cpu_s", median(cpus), "s", cpus.size());
    std::printf("  %-28s %14.6f %-6s (highest over %zu jobs)\n",
                "peak_rss_mb", peak, "MB", walls.size());
    print_metric("setup_s", median(setups), "s", setups.size());
  }
  std::printf("  %-28s %14.6f %-6s (%llu of %llu jobs)\n", "failed_frac",
              failed_frac, "ratio",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

int run_traced(const Args& args, const Workload& w, const Inputs& in,
               const std::vector<Digest>& expected, const fs::path& work,
               const fs::path& out_dir) {
  Tally tally;
  JobRun run;
  checked_job(w, in, expected, work / "setup", tally, run);  // warm-up
  std::map<std::string, std::vector<double>> samples;
  std::string analysis;
  const fs::path trace_path = out_dir / ("trace-" + w.name + ".json");
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t set = 1;; ++set) {
    // Four jobs per set: local, traced replay, combine-flipped, cluster.
    tally.attempted += 4;
    try {
      const LayerMetrics m = run_traced_set(w, in, expected, work / "traced",
                                            trace_path, set, analysis);
      for (const auto& [name, value] : m) samples[name].push_back(value);
    } catch (const std::exception& e) {
      fs::remove_all(work / "traced");
      tally.fail(std::string("traced set threw: ") + e.what());
      break;
    }
    const double elapsed = seconds_since(start);
    // Stop when the next set would likely overrun the budget.
    if (elapsed * (set + 1) / set > args.seconds) break;
  }
  std::printf("%s", analysis.c_str());
  std::printf("trace written to %s\n", trace_path.string().c_str());
  std::printf("per-layer metrics (median over traced sets):\n");
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = samples.find(name);
    if (it == samples.end()) continue;
    const double value = median(it->second);
    metrics.emplace_back(name, value, unit);
    print_metric(name, value, unit.c_str(), it->second.size());
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

int run(const Args& args) {
  Workload w = find_workload(args.workload, args.seed);
  const fs::path root = fs::absolute(args.root).lexically_normal();
  const fs::path work = root / ".bench_work" / w.name;
  const fs::path out_dir = root / ".bench_out";
  fs::remove_all(work);
  fs::create_directories(work);
  fs::create_directories(out_dir);

  const auto gen_start = std::chrono::steady_clock::now();
  const Inputs in = prepare_inputs(w, root / ".bench_cache");
  const std::vector<Digest> expected = oracle_digests(w, in);
  malloc_trim(0);
  sync();
  const double prep_s = seconds_since(gen_start);

  std::printf("workload %s: app %s, engine %s, seed %llu\n", w.name.c_str(),
              w.app.name.c_str(),
              w.engine == EngineKind::kLocal ? "LocalEngine"
                                             : "ClusterEngine (TCP)",
              static_cast<unsigned long long>(args.seed));
  std::printf(
      "input: %.3f MB, %llu records, %zu splits of %.3f MB, %u reducers, "
      "%u map workers, %u busy threads (inputs + oracle in %.2f s)\n",
      static_cast<double>(in.bytes) / 1e6,
      static_cast<unsigned long long>(in.records), in.splits.size(),
      static_cast<double>(w.split_bytes) / 1e6, w.reducers,
      map_workers(w, w.combine), w.thread_budget, prep_s);
  const int rc = args.trace ? run_traced(args, w, in, expected, work, out_dir)
                            : run_end_to_end(args, w, in, expected, work);
  fs::remove_all(work);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  textmr::Logger::instance().set_level(textmr::LogLevel::kWarn);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "textmr_perfbench: %s\n", e.what());
    return 2;
  }
}
