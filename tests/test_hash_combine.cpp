#include <gtest/gtest.h>

// Unit battery for the map-side sharded hash-combine path (DESIGN.md §15):
// combine-equivalence against an exact oracle, adversarial prefix-
// collision keys (equal 8-byte prefixes, short keys that prefix longer
// ones, embedded NULs), watermark flushes and mid-stream demotion, staged
// values and the combiner shapes that must not be staged into, and the
// hot-key combine work staying linear — all checked for exact
// record_ref_less run order and byte-identical output against the
// sort-spill baseline.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/inverted_index.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "io/spill_file.hpp"
#include "mr/hash_combine.hpp"
#include "mr/map_task.hpp"
#include "mr/record_arena.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"
#include "mr/types.hpp"

namespace textmr::mr {
namespace {

/// Counting combiner: sums decimal values per key (WordCount's shape).
std::unique_ptr<Reducer> make_summing_combiner() {
  return std::make_unique<LambdaReducer>(
      [](std::string_view key, ValueStream& values, EmitSink& out) {
        std::uint64_t total = 0;
        while (auto v = values.next()) {
          total += std::strtoull(std::string(*v).c_str(), nullptr, 10);
        }
        out.emit(key, std::to_string(total));
      });
}

struct FlatRecord {
  std::uint32_t partition;
  std::string key;
  std::string value;

  friend bool operator==(const FlatRecord&, const FlatRecord&) = default;
};

/// Reads every record of a run, partition by partition, in file order.
std::vector<FlatRecord> read_run(const io::SpillRunInfo& info) {
  std::vector<FlatRecord> records;
  io::SpillRunReader reader(info.path);
  for (std::uint32_t p = 0; p < reader.num_partitions(); ++p) {
    io::RunCursor cursor = reader.open(p);
    while (auto record = cursor.next()) {
      records.push_back(
          FlatRecord{p, std::string(record->key), std::string(record->value)});
    }
  }
  return records;
}

/// Asserts the run respects spill order: within each partition keys are
/// nondecreasing (record_ref_less order projected onto files).
void expect_run_sorted(const std::vector<FlatRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].partition == records[i - 1].partition) {
      EXPECT_LE(records[i - 1].key, records[i].key)
          << "run order violated at record " << i;
    } else {
      EXPECT_LT(records[i - 1].partition, records[i].partition);
    }
  }
}

/// The raw bytes of a run file.
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct TableHarness {
  TempDir dir;
  TaskMetrics metrics;
  std::unique_ptr<Reducer> combiner;
  std::unique_ptr<HashCombineShards> table;

  /// `combiner_in` may be null (the table then chains values).
  explicit TableHarness(
      const HashCombineConfig& config,
      std::unique_ptr<Reducer> combiner_in = make_summing_combiner())
      : combiner(std::move(combiner_in)) {
    table = std::make_unique<HashCombineShards>(
        config, combiner.get(),
        [this](std::uint64_t sequence) {
          return (dir.path() / ("run" + std::to_string(sequence) + ".run"))
              .string();
        },
        metrics, nullptr);
  }
};

TEST(HashCombine, CombineEquivalenceVsExactOracle) {
  // A zipf-ish word stream: the table must produce exactly the oracle's
  // per-key totals, in one globally sorted run (no watermark pressure).
  HashCombineConfig config;
  config.num_partitions = 3;
  TableHarness h(config);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  Xoshiro256 rng(0x68617368ULL);  // "hash"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string word = "w" + std::to_string(rng.next_below(700));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t weight = 1 + rng.next_below(3);
    h.table->insert(partition, word, std::to_string(weight));
    oracle[{partition, word}] += weight;
  }

  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u) << "no-pressure case must emit exactly one run";
  const auto records = read_run(runs[0]);
  expect_run_sorted(records);
  ASSERT_EQ(records.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [pk, total] : oracle) {
    EXPECT_EQ(records[i].partition, pk.first);
    EXPECT_EQ(records[i].key, pk.second);
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
  // Every insert beyond the first per (partition, key) is a hit.
  EXPECT_EQ(h.metrics.hash_combine_hits, 20000u - oracle.size());
  EXPECT_EQ(h.metrics.hash_combine_flushes, 0u);
  EXPECT_EQ(h.metrics.hash_combine_demotions, 0u);
  EXPECT_EQ(h.metrics.spilled_records, records.size());
}

TEST(HashCombine, PrefixCollisionAdversarialKeys) {
  // Keys engineered to tie on the 8-byte big-endian prefix: identical
  // first 8 bytes with divergent tails (including NULs), short keys that
  // are prefixes of longer ones, and empty keys. Equality must confirm on
  // the full key; the radix fallback must order the tails correctly.
  HashCombineConfig config;
  config.num_partitions = 1;
  TableHarness h(config);

  std::vector<std::string> keys = {
      "",
      std::string(1, '\0'),
      std::string("prefix00", 8),
      std::string("prefix00a", 9),
      std::string("prefix00b", 9),
      std::string("prefix00\0x", 10),
      std::string("prefix00\0y", 10),
      "prefix00aaaaaaaaaaaaaaaa",
      "pre",
      "prefix",
      "prefix0",
  };
  std::map<std::string, std::uint64_t> oracle;
  for (std::size_t round = 0; round < 7; ++round) {
    for (const auto& key : keys) {
      h.table->insert(0, key, "1");
      oracle[key] += 1;
    }
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), oracle.size())
      << "prefix-colliding keys must not merge";
  std::size_t i = 0;
  for (const auto& [key, total] : oracle) {
    EXPECT_EQ(records[i].key, key) << "at " << i;
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
}

TEST(HashCombine, NoCombinerChainsAllValues) {
  // Without a combiner the table degrades to grouping: every value
  // survives, chained per key in insertion order.
  HashCombineConfig config;
  config.num_partitions = 1;
  TableHarness h(config, /*combiner_in=*/nullptr);
  for (int i = 0; i < 5; ++i) {
    h.table->insert(0, "alpha", "a" + std::to_string(i));
    h.table->insert(0, "beta", "b" + std::to_string(i));
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].key, "alpha");
    EXPECT_EQ(records[static_cast<std::size_t>(i)].value,
              "a" + std::to_string(i));
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].key, "beta");
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].value,
              "b" + std::to_string(i));
  }
}

TEST(HashCombine, WatermarkFlushesAndDemotes) {
  // A tiny budget (4 KiB per-shard watermark) forces mid-stream flushes,
  // and a shard's fourth flush demotes it to the sort-spill path. The
  // records must all survive across hash runs + demoted runs, with
  // correct per-key totals after re-aggregation.
  HashCombineConfig config;
  config.num_partitions = 2;
  config.memory_budget_bytes = HashCombineShards::kShards * 4096;
  TableHarness h(config);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  Xoshiro256 rng(0x64656d6fULL);  // "demo"
  for (std::size_t i = 0; i < 30000; ++i) {
    const std::string word = "key" + std::to_string(rng.next_below(4000));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(2));
    h.table->insert(partition, word, "1");
    oracle[{partition, word}] += 1;
  }
  const auto runs = h.table->finish();
  ASSERT_GT(runs.size(), 1u) << "pressure must produce several runs";
  EXPECT_GE(h.metrics.hash_combine_flushes,
            h.metrics.hash_combine_demotions *
                HashCombineShards::kDemoteAfterFlushes);
  EXPECT_GT(h.metrics.hash_combine_demotions, 0u);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> totals;
  for (const auto& run : runs) {
    const auto records = read_run(run);
    expect_run_sorted(records);
    for (const auto& r : records) {
      totals[{r.partition, r.key}] +=
          std::strtoull(r.value.c_str(), nullptr, 10);
    }
  }
  EXPECT_EQ(totals, oracle);
}

TEST(HashCombine, FinishedTwiceThrows) {
  HashCombineConfig config;
  TableHarness h(config);
  h.table->insert(0, "k", "1");
  (void)h.table->finish();
  EXPECT_THROW((void)h.table->finish(), InternalError);
}

// ---- admission filter: FreqOpt's top-k set (DESIGN.md §5) ----------------

TEST(HashCombine, FilterAdmitsOnlyItsKeys) {
  // Only admitted keys enter the table; a hot key's hits combine in place,
  // so 1000 of them stay under a 1 KiB watermark and finish() writes one
  // record per admitted key.
  HashCombineConfig config;
  config.memory_budget_bytes = HashCombineShards::kShards * 1024;
  TableHarness h(config);
  EXPECT_TRUE(h.table->admits("cold")) << "no filter admits every key";
  h.table->admit_only({"hot", "warm"});
  EXPECT_TRUE(h.table->admits("hot"));
  EXPECT_TRUE(h.table->admits("warm"));
  EXPECT_FALSE(h.table->admits("cold"));
  EXPECT_FALSE(h.table->admits("ho"));
  for (int i = 0; i < 1000; ++i) h.table->insert(0, "hot", "1");
  h.table->insert(0, "warm", "1");
  EXPECT_EQ(h.metrics.hash_combine_flushes, 0u);
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const std::vector<FlatRecord> expected = {{0, "hot", "1000"},
                                            {0, "warm", "1"}};
  EXPECT_EQ(read_run(runs[0]), expected);
}

TEST(HashCombine, EmptyFilterAdmitsNothing) {
  HashCombineConfig config;
  TableHarness h(config);
  h.table->admit_only({});
  EXPECT_FALSE(h.table->admits("anything"));
  EXPECT_FALSE(h.table->admits(""));
  EXPECT_TRUE(h.table->finish().empty());
}

TEST(HashCombine, FilteredTableConservesCountsUnderPressure) {
  // Randomized conservation against the exact oracle: half the keys are
  // admitted, the rest go where the spill ring would take them. A tight
  // budget drives the admitted keys' shards through watermark flushes and
  // demotion, which under a filter sheds the shard's keys to the ring;
  // every count still arrives exactly once.
  HashCombineConfig config;
  config.num_partitions = 2;
  config.memory_budget_bytes = HashCombineShards::kShards * 512;
  TableHarness h(config);
  std::vector<std::string> admitted;
  for (int i = 0; i < 64; i += 2) admitted.push_back("k" + std::to_string(i));
  h.table->admit_only(admitted);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> totals;
  Xoshiro256 rng(0x66726571ULL);  // "freq"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(64));
    const auto partition = static_cast<std::uint32_t>(rng.next_below(2));
    const std::uint64_t count = 1 + rng.next_below(7);
    oracle[{partition, key}] += count;
    if (h.table->admits(key)) {
      h.table->insert(partition, key, std::to_string(count));
    } else {
      totals[{partition, key}] += count;  // the ring's share
    }
  }
  const auto runs = h.table->finish();
  EXPECT_GT(h.metrics.hash_combine_flushes, 0u);
  EXPECT_GT(h.metrics.hash_combine_demotions, 0u);
  // A demoted shard's keys left the filter: the ring takes them from then
  // on, and the table wrote no raw sort-spill runs of its own.
  std::size_t still_admitted = 0;
  for (const std::string& key : admitted) {
    still_admitted += h.table->admits(key) ? 1 : 0;
  }
  EXPECT_LT(still_admitted, admitted.size());
  for (const auto& run : runs) {
    const auto records = read_run(run);
    expect_run_sorted(records);
    for (const auto& r : records) {
      totals[{r.partition, r.key}] +=
          std::strtoull(r.value.c_str(), nullptr, 10);
    }
  }
  EXPECT_EQ(totals, oracle);
}

TEST(HashCombine, FilteredTableWithoutCombinerKeepsEveryValue) {
  // No combiner: admitted values cannot shrink, so the budget forces
  // flushes; every value reaches a run exactly once, in arrival order.
  HashCombineConfig config;
  config.memory_budget_bytes = HashCombineShards::kShards * 512;
  TableHarness h(config, /*combiner_in=*/nullptr);
  h.table->admit_only({"a", "b"});
  for (int i = 0; i < 40; ++i) {
    h.table->insert(0, "a", "a" + std::to_string(i));
    h.table->insert(0, "b", "b" + std::to_string(i));
  }
  const auto runs = h.table->finish();
  EXPECT_GT(h.metrics.hash_combine_flushes, 0u);
  std::map<std::string, std::vector<std::string>> values;
  for (const auto& run : runs) {
    for (const auto& r : read_run(run)) values[r.key].push_back(r.value);
  }
  ASSERT_EQ(values.size(), 2u);
  for (const char* key : {"a", "b"}) {
    ASSERT_EQ(values[key].size(), 40u) << key;
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(values[key][i], key + std::to_string(i));
    }
  }
}

// ---- staged, batched combine ----------------------------------------------

struct Insert {
  std::uint32_t partition;
  std::string key;
  std::string value;
};

/// What the sort-spill path writes for `inserts` as one spill: the bytes a
/// no-pressure hash table's single run must reproduce.
std::string sort_path_bytes(const std::vector<Insert>& inserts,
                            Reducer* combiner, std::uint32_t partitions,
                            const std::filesystem::path& path) {
  RecordArena arena;
  for (const Insert& r : inserts) arena.append(r.partition, r.key, r.value);
  Spill spill;
  spill.records = arena.records();
  spill.data_bytes = arena.payload_bytes();
  spill.is_final = true;
  TaskMetrics metrics;
  const io::SpillRunInfo info =
      sort_and_spill(spill, combiner, path.string(), partitions, metrics,
                     nullptr);
  return file_bytes(info.path);
}

/// A zipf-ish stream over `distinct` keys with one hot key ("hot", about
/// one insert in four), spread over `partitions`.
std::vector<Insert> hot_key_stream(std::size_t n, std::size_t distinct,
                                   std::uint32_t partitions,
                                   std::uint64_t seed) {
  std::vector<Insert> inserts;
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key =
        rng.next_below(4) == 0
            ? std::string("hot")
            : "w" + std::to_string(rng.next_below(distinct) %
                                   (1 + rng.next_below(distinct)));
    inserts.push_back(Insert{
        static_cast<std::uint32_t>(rng.next_below(partitions)), key,
        std::to_string(1 + rng.next_below(3))});
  }
  return inserts;
}

/// InvertedIndexCombiner, counting every posting it is handed: its work,
/// which re-reading a growing head on every hit makes quadratic.
class CountingPostingsCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValueStream& values,
              EmitSink& out) override {
    CountingStream counted(values, postings_);
    inner_.reduce(key, counted, out);
  }

  std::uint64_t postings() const { return postings_; }

 private:
  class CountingStream final : public ValueStream {
   public:
    CountingStream(ValueStream& in, std::uint64_t& postings)
        : in_(in), postings_(postings) {}

    std::optional<std::string_view> next() override {
      auto value = in_.next();
      if (value) {
        std::size_t pos = 0;
        postings_ += get_varint(*value, pos);  // the list's count prefix
      }
      return value;
    }

   private:
    ValueStream& in_;
    std::uint64_t& postings_;
  };

  apps::InvertedIndexCombiner inner_;
  std::uint64_t postings_ = 0;
};

/// Feeds one key `n` single-location postings (ascending line offsets, as
/// one map task emits them), checks the run holds exactly that list and
/// returns how many postings the combiner was handed.
std::uint64_t hot_key_combine_work(std::size_t n) {
  HashCombineConfig config;
  config.memory_budget_bytes = 256u << 20;  // no watermark flushes
  auto owned = std::make_unique<CountingPostingsCombiner>();
  const CountingPostingsCombiner& combiner = *owned;
  TableHarness h(config, std::move(owned));

  Xoshiro256 rng(0x686f74ULL);  // "hot"
  std::vector<std::uint64_t> locations;
  std::vector<std::uint64_t> single(1);
  std::string value;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offset += 20 + rng.next_below(80);  // one line of text further on
    single[0] = apps::postings::make_location(0, offset);
    locations.push_back(single[0]);
    apps::postings::encode(value, single);
    h.table->insert(0, "the", value);
  }
  const auto runs = h.table->finish();
  EXPECT_EQ(runs.size(), 1u);
  const auto records = read_run(runs.at(0));
  EXPECT_EQ(records.size(), 1u) << "one combined record per key";
  std::vector<std::uint64_t> merged;
  apps::postings::decode_into(records.at(0).value, merged);
  EXPECT_EQ(merged, locations);
  return combiner.postings();
}

TEST(HashCombine, HotKeyCombineWorkIsLinear) {
  // Combining on every hit hands the combiner the whole growing list each
  // time: ~n^2/2 postings. Staged, batched combine must stay within a
  // constant per posting, and doubling the input must about double it.
  constexpr std::size_t kN = 5000;
  const std::uint64_t once = hot_key_combine_work(kN);
  const std::uint64_t twice = hot_key_combine_work(2 * kN);
  EXPECT_LE(once, 8 * kN) << "combiner input for " << kN << " values";
  EXPECT_LE(twice, 8 * 2 * kN) << "combiner input for " << 2 * kN
                               << " values";
  EXPECT_LE(twice * 2, once * 5)
      << "doubling the values multiplied the combiner input by "
      << static_cast<double>(twice) / static_cast<double>(once);
}

TEST(HashCombine, StagedValuesCombineAtFinishAndBeforeFlushes) {
  // No pressure: staged values are combined at finish(), and the one run
  // is byte-identical to the sort path's single spill.
  {
    HashCombineConfig config;
    config.num_partitions = 3;
    TableHarness h(config);
    const auto inserts = hot_key_stream(20000, 500, 3, 0x73746167ULL);
    for (const Insert& r : inserts) {
      h.table->insert(r.partition, r.key, r.value);
    }
    const auto runs = h.table->finish();
    ASSERT_EQ(runs.size(), 1u);
    const auto combiner = make_summing_combiner();
    EXPECT_EQ(file_bytes(runs[0].path),
              sort_path_bytes(inserts, combiner.get(), 3,
                              h.dir.path() / "sorted.run"));
    EXPECT_EQ(h.metrics.hash_combine_flushes, 0u);
  }
  // A 2 KiB watermark: shards flush mid-stream (and demote). Every run
  // must hold one combined record per (partition, key), and the runs
  // together the oracle's totals; the flushes' combine time is kCombine.
  {
    HashCombineConfig config;
    config.num_partitions = 2;
    config.memory_budget_bytes = HashCombineShards::kShards * 2048;
    TableHarness h(config);
    std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
    for (const Insert& r : hot_key_stream(30000, 3000, 2, 0x666c7573ULL)) {
      h.table->insert(r.partition, r.key, r.value);
      oracle[{r.partition, r.key}] +=
          std::strtoull(r.value.c_str(), nullptr, 10);
    }
    const auto runs = h.table->finish();
    EXPECT_GT(h.metrics.hash_combine_flushes, 0u);
    EXPECT_GT(h.metrics.op_ns(Op::kCombine), 0u);
    std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> totals;
    for (const auto& run : runs) {
      const auto records = read_run(run);
      expect_run_sorted(records);
      for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_FALSE(records[i].partition == records[i - 1].partition &&
                     records[i].key == records[i - 1].key)
            << "uncombined duplicate of " << records[i].key;
      }
      for (const auto& r : records) {
        totals[{r.partition, r.key}] +=
            std::strtoull(r.value.c_str(), nullptr, 10);
      }
    }
    EXPECT_EQ(totals, oracle);
  }
}

TEST(HashCombine, CombinerEmittingNothingIsNeverStagedInto) {
  // Keys starting "drop" combine to nothing: any key seen twice vanishes,
  // as in the sort path, whether its values were staged, compacted or
  // combined whole. Other keys sum.
  auto make_dropping = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view key, ValueStream& values, EmitSink& out) {
          std::uint64_t total = 0;
          while (auto v = values.next()) {
            total += std::strtoull(std::string(*v).c_str(), nullptr, 10);
          }
          if (!key.starts_with("drop")) out.emit(key, std::to_string(total));
        });
  };
  HashCombineConfig config;
  config.num_partitions = 2;
  TableHarness h(config, make_dropping());
  std::vector<Insert> inserts;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> counts;
  Xoshiro256 rng(0x64726f70ULL);  // "drop"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(300);
    const std::string key = (k % 3 == 0 ? "drop" : "keep") +
                            std::to_string(k % (1 + rng.next_below(300)));
    inserts.push_back(Insert{static_cast<std::uint32_t>(k % 2), key, "1"});
    h.table->insert(inserts.back().partition, key, "1");
    ++counts[{inserts.back().partition, key}];
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  std::vector<FlatRecord> expected;
  for (const auto& [pk, count] : counts) {
    if (count == 1 || !pk.second.starts_with("drop")) {
      expected.push_back(FlatRecord{pk.first, pk.second,
                                    std::to_string(count)});
    }
  }
  EXPECT_EQ(records, expected);
  const auto combiner = make_dropping();
  EXPECT_EQ(file_bytes(runs[0].path),
            sort_path_bytes(inserts, combiner.get(), 2,
                            h.dir.path() / "sorted.run"));
}

TEST(HashCombine, TwoValueCombinerChainIsNeverStagedInto) {
  // The combiner concatenates its values in stream order and emits the
  // result as two halves, so a key's chain spans two blocks. Staging
  // behind such a head would put new values between the halves; the
  // output must be every key's values concatenated in arrival order.
  HashCombineConfig config;
  config.num_partitions = 1;
  TableHarness h(config, std::make_unique<LambdaReducer>(
                             [](std::string_view key, ValueStream& values,
                                EmitSink& out) {
                               std::string all;
                               while (auto v = values.next()) all += *v;
                               const std::size_t half = all.size() / 2;
                               out.emit(key, all.substr(0, half));
                               out.emit(key, all.substr(half));
                             }));
  std::map<std::string, std::pair<std::size_t, std::string>> oracle;
  Xoshiro256 rng(0x74776f76ULL);  // "twov"
  for (std::size_t i = 0; i < 6000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40) %
                                                 (1 + rng.next_below(40)));
    const std::string value = std::to_string(i) + ";";
    h.table->insert(0, key, value);
    oracle[key].first += 1;
    oracle[key].second += value;
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  std::vector<FlatRecord> expected;
  for (const auto& [key, seen] : oracle) {
    const auto& [count, all] = seen;
    if (count == 1) {
      expected.push_back(FlatRecord{0, key, all});
    } else {
      expected.push_back(FlatRecord{0, key, all.substr(0, all.size() / 2)});
      expected.push_back(FlatRecord{0, key, all.substr(all.size() / 2)});
    }
  }
  EXPECT_EQ(read_run(runs[0]), expected);
}

TEST(HashCombine, CombinerEmittingBeforeDrainingSeesStagedValues) {
  // The combiner emits its first value before reading the rest, then the
  // sum of the rest. Whatever it emits must not overwrite staged values
  // it has yet to read: the values of each key must still sum to the
  // oracle's total.
  HashCombineConfig config;
  config.num_partitions = 1;
  TableHarness h(config, std::make_unique<LambdaReducer>(
                             [](std::string_view key, ValueStream& values,
                                EmitSink& out) {
                               auto first = values.next();
                               if (!first) return;
                               out.emit(key, *first);
                               std::uint64_t rest = 0;
                               while (auto v = values.next()) {
                                 rest += std::strtoull(std::string(*v).c_str(),
                                                       nullptr, 10);
                               }
                               out.emit(key, std::to_string(rest));
                             }));
  std::map<std::string, std::uint64_t> oracle;
  Xoshiro256 rng(0x6561726cULL);  // "earl"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(60) %
                                                 (1 + rng.next_below(60)));
    const std::uint64_t value = 1 + rng.next_below(1000);
    h.table->insert(0, key, std::to_string(value));
    oracle[key] += value;
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  std::map<std::string, std::uint64_t> totals;
  std::map<std::string, std::size_t> values_per_key;
  for (const auto& r : read_run(runs[0])) {
    totals[r.key] += std::strtoull(r.value.c_str(), nullptr, 10);
    ++values_per_key[r.key];
  }
  EXPECT_EQ(totals, oracle);
  for (const auto& [key, n] : values_per_key) EXPECT_LE(n, 2u) << key;
}

// ---- whole-map-task byte-identity ----------------------------------------

struct MapOutput {
  std::string bytes;  // the raw output run file
  TaskMetrics map_thread;
};

/// Whitespace word splitter with per-word unit counts.
std::unique_ptr<Mapper> make_word_mapper() {
  return std::make_unique<LambdaMapper>(
      [](std::uint64_t, std::string_view line, EmitSink& out) {
        std::size_t start = 0;
        while (start < line.size()) {
          const std::size_t end = line.find(' ', start);
          const std::string_view word = line.substr(
              start, end == std::string_view::npos ? std::string_view::npos
                                                   : end - start);
          if (!word.empty()) out.emit(word, "1");
          if (end == std::string_view::npos) break;
          start = end + 1;
        }
      });
}

/// Runs one map task over `input` in the given combine mode and memory
/// budget and returns its output run. A non-zero `freq_table_budget_bytes`
/// turns FreqOpt on (top 20 keys after 5% of the input) with that budget.
MapOutput map_output(const std::filesystem::path& input,
                     const std::filesystem::path& scratch, CombineMode mode,
                     std::size_t spill_buffer_bytes,
                     MapperFactory mapper = make_word_mapper,
                     ReducerFactory combiner = make_summing_combiner,
                     std::uint64_t freq_table_budget_bytes = 0) {
  MapTaskConfig config;
  config.task_id = 0;
  config.split = io::InputSplit{input.string(), 0,
                                std::filesystem::file_size(input)};
  config.num_partitions = 4;
  config.mapper = std::move(mapper);
  config.combiner = std::move(combiner);
  config.spill_buffer_bytes = spill_buffer_bytes;
  config.scratch_dir = scratch;
  config.combine_mode = mode;
  if (freq_table_budget_bytes != 0) {
    config.freqbuf.enabled = true;
    config.freqbuf.top_k = 20;
    config.freqbuf.sampling_fraction = 0.05;
    config.freqbuf.share_across_tasks = false;
    config.freq_table_budget_bytes = freq_table_budget_bytes;
  }
  const MapTaskResult result = run_map_task(config);
  return MapOutput{file_bytes(result.output.path), result.map_thread};
}

TEST(HashCombine, MapTaskByteIdenticalAcrossModes) {
  TempDir dir;
  const std::filesystem::path input = dir.path() / "input.txt";
  {
    std::ofstream out(input);
    Xoshiro256 rng(0x62797465ULL);  // "byte"
    for (int line = 0; line < 4000; ++line) {
      for (int w = 0; w < 8; ++w) {
        out << "word" << rng.next_below(900) << (w == 7 ? '\n' : ' ');
      }
    }
  }
  // 64 KiB forces sort-path spills; 1 MiB keeps every hash shard under
  // its watermark; 16 KiB (2 KiB per shard) pushes shards through
  // flushes AND demotion mid-stream.
  const MapOutput sorted =
      map_output(input, dir.path() / "s", CombineMode::kSort, 64u << 10);
  const MapOutput hashed =
      map_output(input, dir.path() / "h", CombineMode::kHash, 1u << 20);
  const MapOutput demoted =
      map_output(input, dir.path() / "d", CombineMode::kHash, 16u << 10);
  ASSERT_FALSE(sorted.bytes.empty());
  EXPECT_EQ(sorted.bytes, hashed.bytes)
      << "hash-combine output differs from sort path";
  EXPECT_EQ(hashed.map_thread.hash_combine_flushes, 0u);
  EXPECT_EQ(sorted.bytes, demoted.bytes)
      << "watermark/demotion path output differs from sort path";
  EXPECT_GT(demoted.map_thread.hash_combine_flushes, 0u);
  EXPECT_GT(demoted.map_thread.hash_combine_demotions, 0u);

  // InvertedIndex with a hot key ("the" on every line): posting lists
  // grow, so the hash table stages, compacts and moves values between
  // blocks; all three modes must still write the same bytes.
  const std::filesystem::path text = dir.path() / "text.txt";
  {
    std::ofstream out(text);
    Xoshiro256 rng(0x74657874ULL);  // "text"
    for (int line = 0; line < 4000; ++line) {
      out << "the";
      for (int w = 0; w < 6; ++w) {
        out << " word" << rng.next_below(600) % (1 + rng.next_below(600));
      }
      out << '\n';
    }
  }
  const MapperFactory index_mapper = [] {
    return std::make_unique<apps::InvertedIndexMapper>();
  };
  const ReducerFactory index_combiner = [] {
    return std::make_unique<apps::InvertedIndexCombiner>();
  };
  const MapOutput index_sorted =
      map_output(text, dir.path() / "is", CombineMode::kSort, 64u << 10,
                 index_mapper, index_combiner);
  const MapOutput index_hashed =
      map_output(text, dir.path() / "ih", CombineMode::kHash, 1u << 20,
                 index_mapper, index_combiner);
  const MapOutput index_forced =
      map_output(text, dir.path() / "id", CombineMode::kHash, 16u << 10,
                 index_mapper, index_combiner);
  ASSERT_FALSE(index_sorted.bytes.empty());
  EXPECT_EQ(index_sorted.bytes, index_hashed.bytes)
      << "InvertedIndex hash-combine output differs from sort path";
  EXPECT_EQ(index_hashed.map_thread.hash_combine_flushes, 0u);
  EXPECT_EQ(index_sorted.bytes, index_forced.bytes)
      << "InvertedIndex watermark/demotion output differs from sort path";
  EXPECT_GT(index_forced.map_thread.hash_combine_flushes, 0u);
  EXPECT_GT(index_forced.map_thread.hash_combine_demotions, 0u);
}

TEST(HashCombine, FreqOptTableInFrontOfRingMatchesSortPath) {
  // FreqOpt on the sort path: the filtered table absorbs the top-k keys
  // and its runs join the ring's in the final merge. The output must be
  // the sort path's bytes, with a roomy table and with one (2 KiB, 256 B
  // per shard) that flushes and demotes.
  TempDir dir;
  const std::filesystem::path input = dir.path() / "input.txt";
  {
    std::ofstream out(input);
    Xoshiro256 rng(0x66726571ULL);  // "freq"
    for (int line = 0; line < 4000; ++line) {
      for (int w = 0; w < 8; ++w) {
        out << "word" << rng.next_below(1 + rng.next_below(900))
            << (w == 7 ? '\n' : ' ');
      }
    }
  }
  const MapOutput sorted =
      map_output(input, dir.path() / "s", CombineMode::kSort, 64u << 10);
  const MapOutput roomy =
      map_output(input, dir.path() / "f", CombineMode::kSort, 64u << 10,
                 make_word_mapper, make_summing_combiner, 64u << 10);
  const MapOutput tight =
      map_output(input, dir.path() / "t", CombineMode::kSort, 64u << 10,
                 make_word_mapper, make_summing_combiner, 2u << 10);
  ASSERT_FALSE(sorted.bytes.empty());
  EXPECT_EQ(sorted.bytes, roomy.bytes);
  EXPECT_EQ(sorted.bytes, tight.bytes);
  EXPECT_EQ(sorted.map_thread.freq_hits, 0u);
  for (const MapOutput* freq : {&roomy, &tight}) {
    const TaskMetrics& m = freq->map_thread;
    EXPECT_GT(m.freq_hits, 0u);
    EXPECT_GT(m.freq_flushes, 0u);
    EXPECT_LE(m.freq_flushes, m.freq_hits);
    EXPECT_EQ(m.spill_input_records + m.freq_hits, m.map_output_records);
    EXPECT_GT(m.op_ns(Op::kFreqTable), 0u);
  }
  EXPECT_LT(roomy.map_thread.freq_flushes * 10, roomy.map_thread.freq_hits);
  EXPECT_EQ(roomy.map_thread.hash_combine_flushes, 0u);
  EXPECT_GT(tight.map_thread.hash_combine_flushes, 0u);
  EXPECT_GT(tight.map_thread.hash_combine_demotions, 0u);

  // Without a combiner FreqOpt still profiles but admits nothing.
  const MapOutput plain =
      map_output(input, dir.path() / "p", CombineMode::kSort, 64u << 10,
                 make_word_mapper, nullptr);
  const MapOutput plain_freq =
      map_output(input, dir.path() / "pf", CombineMode::kSort, 64u << 10,
                 make_word_mapper, nullptr, 64u << 10);
  EXPECT_EQ(plain.bytes, plain_freq.bytes);
  EXPECT_EQ(plain_freq.map_thread.freq_hits, 0u);
  EXPECT_EQ(plain_freq.map_thread.freq_flushes, 0u);
  EXPECT_EQ(plain_freq.map_thread.spill_input_records,
            plain_freq.map_thread.map_output_records);
}

}  // namespace
}  // namespace textmr::mr
