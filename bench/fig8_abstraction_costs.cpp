// Reproduces Figure 8: per-operation abstraction-cost breakdown for each
// application, baseline vs. frequency-buffering (k and s per §V-B2, 30%
// of the spill buffer devoted to the frequent-key table).
//
// Each app runs kRepeats (baseline, freqbuf) pairs back to back. Every
// number printed is the median over the repeats; the totals and the
// share removed (computed per pair) also carry their interquartile range.
//
// Paper shape: ~40% of abstraction cost removed for WordCount, ~30% for
// InvertedIndex, ~45% for WordPOSTag; ≤7% for the relational apps (whose
// emit cost *rises* slightly from profiling/hashing overhead); PageRank
// in between.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace textmr;

int main() {
  bench::JsonReport report("fig8_abstraction_costs");
  std::printf(
      "Figure 8 — abstraction costs: baseline vs frequency-buffering\n"
      "(seconds of serialized framework work, user code excluded; median\n"
      "[IQR] of %d runs per cell)\n\n",
      bench::kRepeats);

  for (const auto& app : bench::bench_apps()) {
    // Per op, per repeat: baseline and freqbuf seconds.
    std::vector<double> base_op[mr::kNumOps], freq_op[mr::kNumOps];
    std::vector<double> base_abs, freq_abs, removed;
    mr::TaskMetrics base_work, freq_work;  // the last pair's
    for (int r = 0; r < bench::kRepeats; ++r) {
      base_work = bench::run_bench_job(app, bench::kBaseline).metrics.work;
      freq_work = bench::run_bench_job(app, bench::kFreqOpt).metrics.work;
      for (std::size_t i = 0; i < mr::kNumOps; ++i) {
        const auto op = static_cast<mr::Op>(i);
        base_op[i].push_back(static_cast<double>(base_work.op_ns(op)) * 1e-9);
        freq_op[i].push_back(static_cast<double>(freq_work.op_ns(op)) * 1e-9);
      }
      const double b = static_cast<double>(base_work.abstraction_ns()) * 1e-9;
      const double f = static_cast<double>(freq_work.abstraction_ns()) * 1e-9;
      base_abs.push_back(b);
      freq_abs.push_back(f);
      removed.push_back(b > 0 ? 100.0 * (b - f) / b : 0.0);
    }

    std::printf("%-14s  k=%zu s=%.2f\n", app.name.c_str(), app.freq_top_k,
                app.freq_sampling_fraction);
    bench::print_rule();
    std::printf("  %-13s %12s %12s\n", "operation", "baseline", "freqbuf");
    for (std::size_t i = 0; i < mr::kNumOps; ++i) {
      const auto op = static_cast<mr::Op>(i);
      if (op == mr::Op::kMapIdle || op == mr::Op::kSupportIdle) continue;
      if (mr::is_user_code(op)) continue;
      const double b = bench::spread(base_op[i]).median;
      const double f = bench::spread(freq_op[i]).median;
      if (b == 0.0 && f == 0.0) continue;
      std::printf("  %-13s %11.3fs %11.3fs\n", mr::op_name(op), b, f);
    }
    const bench::Spread removed_pct = bench::spread(removed);
    std::printf("  %-13s %s s -> %s s\n", "TOTAL abstr.",
                bench::format_spread(bench::spread(base_abs), "%.3f").c_str(),
                bench::format_spread(bench::spread(freq_abs), "%.3f").c_str());
    std::printf("  abstraction cost removed: %s %%\n",
                bench::format_spread(removed_pct, "%.1f").c_str());
    report.add_note(app.name + ".removed_pct_median", removed_pct.median);
    report.add_note(app.name + ".removed_pct_q1", removed_pct.q1);
    report.add_note(app.name + ".removed_pct_q3", removed_pct.q3);
    // Spill-path volumes are deterministic: any pair reads the same.
    std::printf(
        "  spill-path records: %llu -> %llu (%s absorbed by the table)\n\n",
        static_cast<unsigned long long>(base_work.spill_input_records),
        static_cast<unsigned long long>(freq_work.spill_input_records),
        bench::pct(base_work.spill_input_records > 0
                       ? 1.0 - static_cast<double>(
                                   freq_work.spill_input_records) /
                                   static_cast<double>(
                                       base_work.spill_input_records)
                       : 0.0)
            .c_str());
  }
  return 0;
}
