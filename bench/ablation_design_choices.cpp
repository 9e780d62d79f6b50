// Ablation harness for the design choices DESIGN.md calls out (§5/§7):
//
//  C. frequent-key table budget — sensitivity of FreqOpt to the fraction
//     of the spill buffer devoted to the table (the paper fixes 30%);
//  D. sampling fraction s — fixed paper values vs the §III-C auto-tuner;
//  E. support threads per map task on a consume-bound app.
//
// Every cell runs kRepeats times on a fresh engine and prints the median
// and interquartile range, in milliseconds, of the job's wall time and of
// its serialized work (the sum of every thread's op timers).
//
// Sections A (varint vs fixed32 spill framing) and B (sorted vs hash
// reduce grouping) were removed together with the fixed32 and
// hash-grouping paths; EXPERIMENTS.md "Ablations" keeps their last
// measurement.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace textmr;

namespace {

/// Repeated runs of one cell; `last` is the final run's result.
struct Cell {
  bench::Spread wall_ms;
  bench::Spread work_ms;
  mr::JobResult last;
};

Cell run_cell(
    const std::function<mr::JobSpec(const std::filesystem::path&)>& make) {
  std::vector<double> wall, work;
  Cell cell;
  for (int i = 0; i < bench::kRepeats; ++i) {
    TempDir dir("textmr-ablation");
    mr::LocalEngine engine;
    cell.last = engine.run(make(dir.path()));
    wall.push_back(static_cast<double>(cell.last.metrics.job_wall_ns) * 1e-6);
    work.push_back(static_cast<double>(cell.last.metrics.work.total_ns()) *
                   1e-6);
  }
  cell.wall_ms = bench::spread(std::move(wall));
  cell.work_ms = bench::spread(std::move(work));
  return cell;
}

void print_cell(const char* label, const Cell& cell) {
  std::printf("   %-14s wall ms %s   work ms %s\n", label,
              bench::format_spread(cell.wall_ms, "%7.1f").c_str(),
              bench::format_spread(cell.work_ms, "%7.1f").c_str());
}

void add_notes(bench::JsonReport& report, const std::string& cell_name,
               const Cell& cell) {
  report.add_note(cell_name + ".wall_ms_median", cell.wall_ms.median);
  report.add_note(cell_name + ".wall_ms_q1", cell.wall_ms.q1);
  report.add_note(cell_name + ".wall_ms_q3", cell.wall_ms.q3);
  report.add_note(cell_name + ".work_ms_median", cell.work_ms.median);
}

}  // namespace

int main() {
  bench::JsonReport report("ablation_design_choices");
  std::printf("Ablations over WordCount: median [IQR] of %d runs per cell\n\n",
              bench::kRepeats);
  const auto app = apps::wordcount_app();

  {
    std::printf("C. frequent-key table budget (fraction of spill buffer)\n");
    for (const double fraction : {0.1, 0.3, 0.5, 0.7}) {
      const Cell cell = run_cell([&](const std::filesystem::path& dir) {
        auto spec = bench::make_bench_job(app, bench::kFreqOpt, dir);
        spec.freqbuf.table_budget_fraction = fraction;
        return spec;
      });
      char label[32];
      std::snprintf(label, sizeof(label), "%.1f", fraction);
      print_cell(label, cell);
      add_notes(report, std::string("C.budget_") + label, cell);
    }
  }

  {
    std::printf("\nE. support threads per map task (consume-bound app:\n"
                "   InvertedIndex; extra threads overlap several spills)\n");
    const auto index_app = apps::inverted_index_app();
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const Cell cell = run_cell([&](const std::filesystem::path& dir) {
        auto spec = bench::make_bench_job(index_app, bench::kBaseline, dir);
        spec.support_threads = threads;
        return spec;
      });
      const std::string label = std::to_string(threads) + " thread(s)";
      print_cell(label.c_str(), cell);
      std::printf("   %-14s support idle %.1f ms (last run)\n", "",
                  static_cast<double>(
                      cell.last.metrics.support_thread_idle_ns) *
                      1e-6);
      add_notes(report, "E.threads_" + std::to_string(threads), cell);
    }
  }

  {
    std::printf("\nD. sampling fraction s: fixed vs auto-tuned (0 = auto)\n");
    for (const double s : {0.01, 0.1, 0.3, 0.0}) {
      const Cell cell = run_cell([&](const std::filesystem::path& dir) {
        auto spec = bench::make_bench_job(app, bench::kFreqOpt, dir);
        spec.freqbuf.sampling_fraction = s;
        return spec;
      });
      double effective_s = 0.0;
      for (const auto& task : cell.last.map_tasks) {
        effective_s = std::max(effective_s, task.freq_sampling_fraction);
      }
      char label[32];
      std::snprintf(label, sizeof(label), "s=%.2f", s);
      print_cell(label, cell);
      std::printf("   %-14s eff s %.3f, freq hits %llu\n", "", effective_s,
                  static_cast<unsigned long long>(
                      cell.last.metrics.work.freq_hits));
      add_notes(report, std::string("D.") + label, cell);
    }
  }
  return 0;
}
