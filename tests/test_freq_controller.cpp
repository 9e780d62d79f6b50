#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "common/zipf.hpp"
#include "apps/wordcount.hpp"
#include "freqbuf/controller.hpp"
#include "io/spill_file.hpp"
#include "mr/hash_combine.hpp"
#include "textgen/corpus_gen.hpp"

namespace textmr::freqbuf {
namespace {

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

FreqBufConfig basic_config() {
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 10;
  config.sampling_fraction = 0.1;  // fixed s, no pre-profiling
  config.share_across_tasks = false;
  return config;
}

/// The map task's FreqOpt wiring in miniature: the controller profiles
/// every key and installs the frozen set as the admission filter of a
/// combining table that admits nothing before; declined records land in
/// `passed`, the spill ring's place.
struct FreqHarness {
  TempDir dir;
  mr::TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  mr::HashCombineShards table;
  std::optional<std::vector<std::string>> installed;
  std::unique_ptr<FreqBufferController> controller;
  std::map<std::string, std::uint64_t> passed;

  explicit FreqHarness(const FreqBufConfig& config,
                       NodeKeyCache* cache = nullptr,
                       bool has_combiner = true)
      : table(mr::HashCombineConfig{1 << 16, 1}, &combiner,
              [this](std::uint64_t sequence) {
                return (dir.path() / ("run" + std::to_string(sequence)))
                    .string();
              },
              metrics, nullptr) {
    table.admit_only({});
    controller = std::make_unique<FreqBufferController>(
        config, has_combiner,
        [this](std::vector<std::string> keys) {
          installed = keys;
          table.admit_only(std::move(keys));
        },
        metrics, cache);
  }

  /// Routes one record as the map task does; true if the table took it.
  bool emit(std::string_view key, std::uint64_t count) {
    controller->observe(key);
    if (table.admits(key)) {
      table.insert(0, key, varint_value(count));
      return true;
    }
    passed[std::string(key)] += count;
    return false;
  }

  /// Ends the task; returns the table's runs' records, as (key, count).
  std::vector<std::pair<std::string, std::uint64_t>> finish() {
    controller->finish();
    std::vector<std::pair<std::string, std::uint64_t>> records;
    for (const io::SpillRunInfo& run : table.finish()) {
      io::SpillRunReader reader(run.path);
      auto cursor = reader.open(0);
      while (auto record = cursor.next()) {
        records.emplace_back(std::string(record->key),
                             varint_of(record->value));
      }
    }
    return records;
  }
};

/// Streams a Zipf-distributed key sequence through the harness,
/// simulating the map task's progress callbacks. Returns the number of
/// records the table absorbed.
std::uint64_t stream_keys(FreqHarness& h, int n, double alpha,
                          std::uint64_t seed, std::uint64_t vocab = 1000) {
  Xoshiro256 rng(seed);
  ZipfDistribution zipf(vocab, alpha);
  std::uint64_t absorbed = 0;
  for (int i = 0; i < n; ++i) {
    h.controller->set_progress(static_cast<double>(i) / n);
    if (h.emit(textgen::word_for_rank(zipf(rng)), 1)) ++absorbed;
  }
  return absorbed;
}

TEST(FreqBufferController, TransitionsThroughStages) {
  FreqHarness h(basic_config());
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kProfile);

  h.controller->set_progress(0.05);
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kProfile);
  h.emit("x", 1);
  EXPECT_FALSE(h.installed.has_value());
  h.controller->set_progress(0.11);
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kOptimize);
  ASSERT_TRUE(h.installed.has_value());
  EXPECT_EQ(*h.installed, std::vector<std::string>{"x"});
}

TEST(FreqBufferController, FixedSamplingSkipsPreProfile) {
  FreqHarness h(basic_config());
  EXPECT_EQ(h.controller->effective_sampling_fraction(), 0.1);
  EXPECT_FALSE(h.controller->zipf_fit().has_value());
}

TEST(FreqBufferController, AbsorbsFrequentKeysAfterProfiling) {
  FreqHarness h(basic_config());
  const std::uint64_t absorbed = stream_keys(h, 50000, 1.2, 99);
  // With alpha=1.2 the top-10 keys carry a large share of the stream; a
  // large portion of post-profiling records must be absorbed.
  EXPECT_GT(absorbed, 10000u);
  // The table writes one combined record per admitted key.
  const auto records = h.finish();
  EXPECT_FALSE(records.empty());
  EXPECT_LE(records.size(), 10u);
}

TEST(FreqBufferController, ConservationThroughFlush) {
  // Every emitted count appears exactly once downstream: either passed
  // to the ring during profiling/misses, or in the table's runs.
  FreqHarness h(basic_config());
  std::map<std::string, std::uint64_t> expected;
  Xoshiro256 rng(7);
  ZipfDistribution zipf(500, 1.0);
  constexpr int kN = 30000;
  for (int i = 0; i < kN; ++i) {
    h.controller->set_progress(static_cast<double>(i) / kN);
    const std::string key = textgen::word_for_rank(zipf(rng));
    expected[key] += 1;
    h.emit(key, 1);
  }
  std::map<std::string, std::uint64_t> total = h.passed;
  for (const auto& [key, count] : h.finish()) total[key] += count;
  EXPECT_EQ(total, expected);
}

TEST(FreqBufferController, WithoutCombinerAdmitsNothing) {
  // Without a combiner buffering could only delay data: the controller
  // still profiles, but installs an empty set.
  FreqHarness h(basic_config(), nullptr, /*has_combiner=*/false);
  EXPECT_EQ(stream_keys(h, 20000, 1.2, 5), 0u);
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kOptimize);
  ASSERT_TRUE(h.installed.has_value());
  EXPECT_TRUE(h.installed->empty());
  EXPECT_TRUE(h.finish().empty());
}

TEST(FreqBufferController, AutoTunerFitsAlphaAndPicksSamplingFraction) {
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 20;
  config.sampling_fraction = 0.0;  // auto-tune
  config.pre_profile_fraction = 0.01;
  config.share_across_tasks = false;
  FreqHarness h(config);
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kPreProfile);

  stream_keys(h, 100000, 1.0, 42, /*vocab=*/2000);
  ASSERT_TRUE(h.controller->zipf_fit().has_value());
  EXPECT_NEAR(h.controller->zipf_fit()->alpha, 1.0, 0.35);
  EXPECT_GE(h.controller->effective_sampling_fraction(),
            config.pre_profile_fraction);
  EXPECT_EQ(h.controller->stage(), FreqBufferController::Stage::kOptimize);
}

TEST(FreqBufferController, NodeCacheSharesKeySetAcrossTasks) {
  NodeKeyCache cache;
  auto config = basic_config();
  config.share_across_tasks = true;

  FreqHarness first(config, &cache);
  EXPECT_EQ(first.controller->stage(), FreqBufferController::Stage::kProfile);
  stream_keys(first, 20000, 1.2, 1);
  first.finish();
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());

  // Second task on the same node starts directly in kOptimize, with the
  // cached set installed before its first record.
  FreqHarness second(config, &cache);
  EXPECT_EQ(second.controller->stage(), FreqBufferController::Stage::kOptimize);
  EXPECT_EQ(second.installed, cache.get());
  EXPECT_TRUE(second.emit(cache.get()->front(), 1));
}

TEST(NodeKeyCache, FirstWriterWins) {
  NodeKeyCache cache;
  cache.put({"a"});
  cache.put({"b"});
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_EQ(cache.get()->front(), "a");
}

TEST(FreqBufferController, TinyInputEndingDuringPreProfileStillFreezes) {
  NodeKeyCache cache;
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 5;
  config.sampling_fraction = 0.0;
  config.share_across_tasks = true;
  FreqHarness h(config, &cache);
  h.emit("a", 1);
  h.emit("a", 1);
  h.emit("b", 1);
  h.finish();  // still in kPreProfile; must not crash
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());
}

TEST(FreqBufferController, ProfileTimeIsAccounted) {
  FreqHarness h(basic_config());
  stream_keys(h, 20000, 1.0, 3);
  EXPECT_GT(h.metrics.op_ns(mr::Op::kProfile), 0u);
}

}  // namespace
}  // namespace textmr::freqbuf
