#pragma once

// Whole-job benchmark for textmr: three workloads, each a closed loop
// with one client (jobs back to back), checked against an oracle that
// does not use the engine. See perfbench/NOTES.md for why each workload
// exists and which layers it should and should not stress.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/app_suite.hpp"
#include "io/line_reader.hpp"
#include "mr/job.hpp"
#include "textgen/corpus_gen.hpp"
#include "textgen/loggen.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace textmr;

enum class EngineKind { kLocal, kClusterTcp };

struct Workload {
  std::string name;
  apps::AppBundle app;
  bool access_log = false;        // else a Zipf text corpus
  textgen::CorpusSpec corpus;     // seed filled in from --seed
  textgen::AccessLogSpec log;     // seed filled in from --seed
  std::uint64_t split_bytes = 0;
  std::uint32_t reducers = 4;
  /// Busy threads a job may use: half of nproc on the 4-core reference
  /// host, so the host's other work and vCPU stalls do not land on a
  /// job's critical path. See map_workers() for how a job spends it.
  std::uint32_t thread_budget = 2;
  std::uint32_t support_threads = 1;
  mr::CombineMode combine = mr::CombineMode::kSort;
  bool freq = false;
  bool matcher = false;
  std::size_t spill_buffer_bytes = 16u << 20;
  EngineKind engine = EngineKind::kLocal;
  /// How the oracle compares part files: exact bytes, or the multiset of
  /// lines (AccessLogJoin emits a group's rows in value-arrival order).
  bool ordered_output = true;
};

/// Map (and reduce) workers of a job in the given combine mode: on the
/// sort path each map worker also runs `support_threads` support
/// threads, on the hash path it runs alone, so either way the job keeps
/// to the thread budget. On the cluster this is the worker-process count.
std::uint32_t map_workers(const Workload& w, mr::CombineMode combine);

double seconds_since(std::chrono::steady_clock::time_point start);

/// Looks a workload up by name; throws std::invalid_argument.
Workload find_workload(const std::string& name, std::uint64_t seed);

/// The generated input of one workload.
struct Inputs {
  std::vector<fs::path> files;  // corpus, or {user_visits, rankings}
  std::vector<io::InputSplit> splits;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;  // lines
};

/// Generates the workload's input into `cache_root` (keyed by every
/// generator parameter, seed included) or reuses a cached copy.
Inputs prepare_inputs(const Workload& w, const fs::path& cache_root);

/// The workload's JobSpec writing under `dir`, with `combine` as the
/// map-side combine mode.
mr::JobSpec make_spec(const Workload& w, const Inputs& in, const fs::path& dir,
                      mr::CombineMode combine);

/// One job through a public engine entry point.
struct JobRun {
  double wall_s = 0;   // run() call until outputs are committed
  double setup_s = 0;  // engine construction + run()
  double cpu_s = 0;    // user+sys of this process and reaped children
  mr::JobResult result;
};
JobRun run_engine_job(const mr::JobSpec& spec, EngineKind engine);

/// Content summary of one part file.
struct Digest {
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  std::uint64_t ordered = 0;   // hash of the exact byte sequence
  std::uint64_t multiset = 0;  // order-independent sum of line hashes
  bool operator==(const Digest&) const = default;
};
Digest digest_file(const fs::path& path);
std::vector<Digest> digest_outputs(const std::vector<fs::path>& outputs);

/// Expected part-file digests, computed without the engine.
std::vector<Digest> oracle_digests(const Workload& w, const Inputs& in);

/// Index of the first part file whose digest differs (exact or multiset
/// per `ordered`), or -1 when all match.
int first_mismatch(const std::vector<Digest>& expected,
                   const std::vector<Digest>& actual, bool ordered);

/// Per-layer metrics of one traced set, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Every per-layer metric the traced run emits, as (name, unit), in
/// report order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Runs one traced set for the workload (see ledger.cpp): untraced
/// reference jobs, the benchmark-driven traced replay, and the layer
/// passes. Writes the replay's Chrome trace to `trace_path`. Throws
/// std::runtime_error when an output differs from the oracle or the
/// replay's outputs are not byte-identical to the untraced job's.
LayerMetrics run_traced_set(const Workload& w, const Inputs& in,
                            const std::vector<Digest>& expected,
                            const fs::path& work_dir,
                            const fs::path& trace_path, std::uint32_t job_id,
                            std::string& analysis_text);

}  // namespace perfbench
