#pragma once

// Shared infrastructure for the per-table / per-figure reproduction
// harnesses: dataset caching, standard job construction for the paper's
// four optimization settings, and table printing.

#include <filesystem>
#include <string>
#include <vector>

#include "textmr.hpp"

namespace textmr::bench {

/// Measurement-scale datasets (MBs, not the paper's GBs — the cluster
/// simulator rescales volumes; see DESIGN.md §2). Generated once into a
/// cache directory shared by every bench binary, keyed by generator
/// parameters in the file name.
struct Datasets {
  std::filesystem::path dir;
  std::filesystem::path corpus;       // ~12 MB Zipf(1.0) text
  std::filesystem::path pos_corpus;   // ~2.5 MB (WordPOSTag is CPU-bound)
  std::filesystem::path user_visits;  // ~14 MB access log
  std::filesystem::path rankings;
  std::filesystem::path web_graph;    // ~12 MB crawl
};

/// Generates (or reuses) the cached datasets.
const Datasets& datasets();

/// The paper's four experimental settings (Table III columns).
struct Setting {
  const char* name;
  bool freq;
  bool matcher;
};

inline constexpr Setting kBaseline{"Baseline", false, false};
inline constexpr Setting kFreqOpt{"FreqOpt", true, false};
inline constexpr Setting kSpillOpt{"SpillOpt", false, true};
inline constexpr Setting kCombined{"Combined", true, true};
inline constexpr Setting kAllSettings[] = {kBaseline, kFreqOpt, kSpillOpt,
                                           kCombined};

/// Number of contextual passes for the POS tagger at bench scale (the
/// paper's OpenNLP tagger is ~35x WordCount per word; this matches that
/// order of magnitude without exploding single-core bench time).
inline constexpr std::uint32_t kPosWorkPasses = 16;

/// Machine-readable bench artifact. Each harness opens one JsonReport at
/// the top of main(); while it is alive every run_bench_job() call
/// auto-records its JobResult into it, and the destructor writes
/// `BENCH_<name>.json` (into $TEXTMR_BENCH_OUT, or the working directory)
/// with per-job wall/work totals, the full per-Op metrics document, and
/// any harness-specific notes. Not thread-safe; one instance at a time.
class JsonReport {
 public:
  explicit JsonReport(std::string name);
  ~JsonReport();

  /// Records one finished job. Called automatically by run_bench_job();
  /// call directly for jobs run through other paths.
  void add_job(const std::string& app, const std::string& setting,
               const mr::JobResult& result);

  /// Attaches a free-form key/value to the artifact's "notes" object.
  void add_note(const std::string& key, const std::string& value);
  void add_note(const std::string& key, double value);

  /// Path the artifact will be written to.
  const std::filesystem::path& path() const { return path_; }

  /// The report currently open in this process, or nullptr.
  static JsonReport* active();

 private:
  struct JobEntry {
    std::string app;
    std::string setting;
    std::uint64_t wall_ns;
    std::uint64_t work_ns;
    std::string metrics_json;  // format_job_metrics_json output
  };

  std::string name_;
  std::filesystem::path path_;
  std::vector<JobEntry> jobs_;
  std::vector<std::pair<std::string, std::string>> notes_;  // pre-rendered
};

/// Median and quartiles of one cell's repeated measurements.
struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

/// Runs per cell in the harnesses that report a Spread.
inline constexpr int kRepeats = 5;

/// Median and quartiles, interpolating linearly between order statistics.
Spread spread(std::vector<double> xs);

/// "median [q1, q3]", each number printed with `format` (e.g. "%.1f").
std::string format_spread(const Spread& s, const char* format);

/// Builds the standard bench JobSpec for one app under one setting.
/// `scratch_root` must outlive the run.
mr::JobSpec make_bench_job(const apps::AppBundle& app, const Setting& setting,
                           const std::filesystem::path& scratch_root);

/// Runs one app under one setting and returns the result.
mr::JobResult run_bench_job(const apps::AppBundle& app,
                            const Setting& setting);

/// Baseline + frequency-buffering profiles for one app, measured on the
/// real engine. The freq profile's user-map() component is normalized to
/// the baseline's (identical user code; any difference is measurement
/// noise that would otherwise be amplified by the simulator — dominant
/// for the CPU-bound WordPOSTag).
struct CalibratedProfiles {
  sim::AppProfile base;
  sim::AppProfile freq;
};
CalibratedProfiles measure_profiles(const apps::AppBundle& app);

/// All six paper apps at bench scale.
std::vector<apps::AppBundle> bench_apps();

/// Input splits for an app's dataset at bench scale.
std::vector<io::InputSplit> bench_inputs(const apps::AppBundle& app);

/// Total input bytes of an app's bench dataset.
std::uint64_t bench_input_bytes(const apps::AppBundle& app);

/// The paper's full-scale input sizes, for the cluster simulator.
double paper_input_bytes(const apps::AppBundle& app);
double ec2_input_bytes(const apps::AppBundle& app);

/// Pretty-printing helpers.
void print_rule(char c = '-', int width = 78);
std::string pct(double fraction);       // "12.3%"
std::string secs(double s);             // "571.2s"

/// Fraction of total serialized work in each op, over a metrics object.
std::vector<std::pair<const char*, double>> op_shares(
    const mr::TaskMetrics& work, bool include_idle = false);

}  // namespace textmr::bench
