#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "mr/merger.hpp"

namespace textmr::mr {
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

io::SpillRunInfo write_run(const std::filesystem::path& path,
                           std::uint32_t partitions,
                           const std::vector<std::tuple<std::uint32_t,
                                                        std::string,
                                                        std::string>>& recs) {
  io::SpillRunWriter writer(path.string(), partitions);
  for (const auto& [p, k, v] : recs) writer.append(p, k, v);
  return writer.finish();
}

TEST(MergeStream, MergesSortedVectorsGlobally) {
  std::vector<io::Record> a = {{"apple", "1"}, {"mango", "2"}};
  std::vector<io::Record> b = {{"banana", "3"}, {"zebra", "4"}};
  std::vector<io::Record> c = {{"apple", "5"}};
  std::vector<std::unique_ptr<RecordCursor>> cursors;
  cursors.push_back(std::make_unique<VectorRunCursor>(&a));
  cursors.push_back(std::make_unique<VectorRunCursor>(&b));
  cursors.push_back(std::make_unique<VectorRunCursor>(&c));
  MergeStream stream(std::move(cursors));

  std::vector<std::pair<std::string, std::string>> out;
  while (auto record = stream.next()) {
    out.emplace_back(std::string(record->key), std::string(record->value));
  }
  // Equal keys ordered by cursor index (stable across runs).
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"apple", "1"}, {"apple", "5"}, {"banana", "3"},
      {"mango", "2"}, {"zebra", "4"},
  };
  EXPECT_EQ(out, expected);
}

TEST(MergeStream, EmptyCursorsAreFine) {
  std::vector<io::Record> empty;
  std::vector<std::unique_ptr<RecordCursor>> cursors;
  cursors.push_back(std::make_unique<VectorRunCursor>(&empty));
  MergeStream stream(std::move(cursors));
  EXPECT_FALSE(stream.next().has_value());
}

TEST(MergeStream, NoCursorsAtAll) {
  MergeStream stream({});
  EXPECT_FALSE(stream.next().has_value());
}

TEST(KeyGroups, GroupsConsecutiveEqualKeys) {
  std::vector<io::Record> a = {{"a", "1"}, {"a", "2"}, {"b", "3"}};
  std::vector<io::Record> b = {{"a", "4"}, {"c", "5"}};
  std::vector<std::unique_ptr<RecordCursor>> cursors;
  cursors.push_back(std::make_unique<VectorRunCursor>(&a));
  cursors.push_back(std::make_unique<VectorRunCursor>(&b));
  MergeStream stream(std::move(cursors));
  KeyGroups groups(stream);

  std::map<std::string, std::vector<std::string>> seen;
  while (auto key = groups.next_group()) {
    auto& list = seen[std::string(*key)];
    while (auto value = groups.values().next()) {
      list.emplace_back(*value);
    }
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["a"], (std::vector<std::string>{"1", "2", "4"}));
  EXPECT_EQ(seen["b"], (std::vector<std::string>{"3"}));
  EXPECT_EQ(seen["c"], (std::vector<std::string>{"5"}));
}

TEST(KeyGroups, UnconsumedValuesAreDrained) {
  std::vector<io::Record> a = {{"a", "1"}, {"a", "2"}, {"b", "3"}};
  std::vector<std::unique_ptr<RecordCursor>> cursors;
  cursors.push_back(std::make_unique<VectorRunCursor>(&a));
  MergeStream stream(std::move(cursors));
  KeyGroups groups(stream);

  auto first = groups.next_group();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "a");
  // Skip the values entirely; next_group must still land on "b".
  auto second = groups.next_group();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "b");
  EXPECT_EQ(*groups.values().next(), "3");
  EXPECT_FALSE(groups.next_group().has_value());
}

TEST(MergeRuns, CombinesAcrossRuns) {
  TempDir dir;
  std::vector<io::SpillRunInfo> runs;
  runs.push_back(write_run(dir.file("r0"), 2,
                           {{0, "apple", varint_value(2)},
                            {1, "pear", varint_value(1)}}));
  runs.push_back(write_run(dir.file("r1"), 2,
                           {{0, "apple", varint_value(3)},
                            {0, "cherry", varint_value(4)}}));
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto merged = merge_runs(runs, &combiner, dir.file("out").string(), 2,
                                 metrics);
  EXPECT_EQ(merged.records, 3u);

  io::SpillRunReader reader(merged.path);
  auto c0 = reader.open(0);
  auto apple = c0.next();
  EXPECT_EQ(apple->key, "apple");
  EXPECT_EQ(varint_of(apple->value), 5u);
  auto cherry = c0.next();
  EXPECT_EQ(cherry->key, "cherry");
  EXPECT_EQ(varint_of(cherry->value), 4u);
  auto c1 = reader.open(1);
  EXPECT_EQ(c1.next()->key, "pear");
  EXPECT_GT(metrics.op_ns(Op::kMerge), 0u);
  EXPECT_EQ(metrics.merged_records, 3u);
}

TEST(MergeRuns, WithoutCombinerKeepsAllRecords) {
  TempDir dir;
  std::vector<io::SpillRunInfo> runs;
  runs.push_back(write_run(dir.file("r0"), 1, {{0, "k", "a"}, {0, "k", "b"}}));
  runs.push_back(write_run(dir.file("r1"), 1, {{0, "k", "c"}}));
  TaskMetrics metrics;
  const auto merged = merge_runs(runs, nullptr, dir.file("out").string(), 1,
                                 metrics);
  EXPECT_EQ(merged.records, 3u);
  io::SpillRunReader reader(merged.path);
  auto cursor = reader.open(0);
  std::vector<std::string> values;
  while (auto record = cursor.next()) values.emplace_back(record->value);
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MergeRuns, RandomizedManyRunsMatchReference) {
  TempDir dir;
  Xoshiro256 rng(17);
  constexpr std::uint32_t kPartitions = 3;
  std::vector<io::SpillRunInfo> runs;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  for (int run = 0; run < 6; ++run) {
    // Each run: per-partition sorted unique keys (post-combine shape).
    std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> local;
    const int keys = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < keys; ++i) {
      const std::uint32_t p = static_cast<std::uint32_t>(rng.next_below(kPartitions));
      const std::string key = "w" + std::to_string(rng.next_below(40));
      const std::uint64_t count = 1 + rng.next_below(9);
      local[{p, key}] += count;
      expected[{p, key}] += count;
    }
    io::SpillRunWriter writer(dir.file("run" + std::to_string(run)).string(),
                              kPartitions);
    for (const auto& [pk, count] : local) {
      writer.append(pk.first, pk.second, varint_value(count));
    }
    runs.push_back(writer.finish());
  }
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto merged =
      merge_runs(runs, &combiner, dir.file("out").string(), kPartitions,
                 metrics);
  EXPECT_EQ(merged.records, expected.size());

  io::SpillRunReader reader(merged.path);
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    auto cursor = reader.open(p);
    std::string previous;
    bool first = true;
    while (auto record = cursor.next()) {
      actual[{p, std::string(record->key)}] = varint_of(record->value);
      if (!first) { EXPECT_LT(previous, record->key); }  // unique + sorted
      previous.assign(record->key);
      first = false;
    }
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace textmr::mr
