// google-benchmark microbenchmarks for the framework's hot components:
// the Space-Saving sketch, the frequent-key table, the spill buffer, the
// spill sorter+combiner, the tokenizer and the Zipf sampler. These back
// the per-operation costs that the figure-level harnesses measure.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "textmr.hpp"

using namespace textmr;

namespace {

std::vector<std::string> zipf_keys(std::size_t n, double alpha,
                                   std::uint64_t vocab = 50000) {
  Xoshiro256 rng(42);
  ZipfDistribution zipf(vocab, alpha);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(textgen::word_for_rank(zipf(rng)));
  }
  return keys;
}

void BM_SpaceSavingOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::SpaceSaving sketch(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOffer)->Arg(1000)->Arg(12000)->Arg(40000);

void BM_ExactCounterOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::ExactCounter counter;
  std::size_t i = 0;
  for (auto _ : state) {
    counter.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCounterOffer);

void BM_LruOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::LruTracker lru(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    lru.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruOffer)->Arg(1000)->Arg(10000);

void BM_FrequentKeyTableHit(benchmark::State& state) {
  class NullSink final : public mr::EmitSink {
    void emit(std::string_view, std::string_view) override {}
  } sink;
  mr::TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  std::vector<std::string> hot;
  for (int i = 1; i <= 3000; ++i) hot.push_back(textgen::word_for_rank(i));
  freqbuf::FrequentKeyTable table(hot, {}, &combiner, sink, metrics);
  const auto keys = zipf_keys(1 << 16, 1.0);
  std::string value;
  put_varint(value, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.offer(keys[i++ & (keys.size() - 1)], value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequentKeyTableHit);

void BM_SpillBufferPipeline(benchmark::State& state) {
  // Producer/consumer throughput of the circular buffer at a given spill
  // threshold; the consumer just releases.
  const double threshold = static_cast<double>(state.range(0)) / 100.0;
  const auto keys = zipf_keys(1 << 14, 1.0);
  for (auto _ : state) {
    mr::SpillBuffer buffer(1 << 20, threshold);
    std::thread consumer([&] {
      while (auto spill = buffer.take()) {
        benchmark::DoNotOptimize(spill->records.size());
        buffer.release(*spill, 1000);
      }
    });
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& key : keys) buffer.put(0, key, "12345678");
    }
    buffer.close();
    consumer.join();
  }
  state.SetItemsProcessed(state.iterations() * 4 * keys.size());
}
BENCHMARK(BM_SpillBufferPipeline)->Arg(20)->Arg(50)->Arg(80);

void BM_SortAndSpill(benchmark::State& state) {
  const auto keys = zipf_keys(static_cast<std::size_t>(state.range(0)), 1.0);
  TempDir dir("textmr-microbench");
  apps::WordCountCombiner combiner;
  std::string value;
  put_varint(value, 1);
  int run_id = 0;
  mr::RecordArena arena;
  for (auto _ : state) {
    state.PauseTiming();
    // Rebuild the spill (framed records live in the reused arena).
    arena.clear();
    mr::Spill spill;
    spill.records.reserve(keys.size());
    for (const auto& key : keys) {
      spill.records.push_back(arena.append(0, key, value));
    }
    mr::TaskMetrics metrics;
    const auto path = dir.file("run" + std::to_string(run_id++)).string();
    state.ResumeTiming();
    auto info = sort_and_spill(spill, &combiner, path, 1, metrics);
    benchmark::DoNotOptimize(info.records);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_SortAndSpill)->Arg(10000)->Arg(100000);

void BM_Tokenizer(benchmark::State& state) {
  textgen::CorpusSpec spec;
  spec.total_words = 2000;
  textgen::CorpusStream stream(spec);
  std::string text;
  std::string line;
  while (stream.next_line(line)) {
    text += line;
    text.push_back('\n');
  }
  std::string scratch;
  for (auto _ : state) {
    std::uint64_t tokens = 0;
    apps::for_each_token(text, scratch, [&](std::string_view) { ++tokens; });
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Tokenizer);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)), 1.0);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000)->Arg(1000000000);

void BM_PosTaggerSentence(benchmark::State& state) {
  apps::PosTagger tagger(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::string> tokens;
  for (int i = 1; i <= 12; ++i) tokens.push_back(textgen::word_for_rank(i * 7));
  std::vector<apps::PosTag> tags;
  for (auto _ : state) {
    tagger.tag_sentence(tokens, tags);
    benchmark::DoNotOptimize(tags.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens.size());
}
BENCHMARK(BM_PosTaggerSentence)->Arg(1)->Arg(16)->Arg(64);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults the JSON artifact so every bench
// harness in this repo leaves a BENCH_<name>.json behind. Explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_components.json";
  if (const char* dir = std::getenv("TEXTMR_BENCH_OUT")) {
    out_flag = std::string("--benchmark_out=") + dir +
               "/BENCH_micro_components.json";
  }
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
