#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "io/spill_file.hpp"

namespace textmr::io {
namespace {

struct Rec {
  std::uint32_t partition;
  std::string key;
  std::string value;
};

TEST(SpillFile, RoundTripsMultiplePartitions) {
  TempDir dir;
  const auto path = dir.file("run").string();
  const std::vector<Rec> records = {
      {0, "apple", "1"}, {0, "banana", "22"}, {1, "car", ""},
      {2, "dog", "value with spaces"}, {2, "dog", "another"},
  };
  SpillRunWriter writer(path, 3);
  for (const auto& r : records) writer.append(r.partition, r.key, r.value);
  const auto info = writer.finish();
  EXPECT_EQ(info.records, records.size());
  EXPECT_EQ(info.partitions.size(), 3u);
  EXPECT_EQ(info.partitions[0].records, 2u);
  EXPECT_EQ(info.partitions[1].records, 1u);
  EXPECT_EQ(info.partitions[2].records, 2u);

  SpillRunReader reader(path);
  ASSERT_EQ(reader.num_partitions(), 3u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    auto cursor = reader.open(p);
    for (const auto& r : records) {
      if (r.partition != p) continue;
      auto got = cursor.next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->key, r.key);
      EXPECT_EQ(got->value, r.value);
    }
    EXPECT_FALSE(cursor.next().has_value());
  }
}

TEST(SpillFile, EmptyPartitionsAreReadable) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 4);
  writer.append(2, "only", "record");
  writer.finish();

  SpillRunReader reader(path);
  for (const std::uint32_t p : {0u, 1u, 3u}) {
    auto cursor = reader.open(p);
    EXPECT_FALSE(cursor.next().has_value()) << p;
  }
  auto cursor = reader.open(2);
  EXPECT_TRUE(cursor.next().has_value());
}

TEST(SpillFile, CompletelyEmptyRun) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 2);
  const auto info = writer.finish();
  EXPECT_EQ(info.records, 0u);
  SpillRunReader reader(path);
  EXPECT_FALSE(reader.open(0).next().has_value());
  EXPECT_FALSE(reader.open(1).next().has_value());
}

TEST(SpillFile, LargeValuesCrossReadChunks) {
  TempDir dir;
  const auto path = dir.file("run").string();
  Xoshiro256 rng(3);
  std::vector<Rec> records;
  for (int i = 0; i < 50; ++i) {
    std::string value(1 << 15, static_cast<char>('a' + (i % 26)));
    records.push_back({0, "key" + std::to_string(i), std::move(value)});
  }
  SpillRunWriter writer(path, 1);
  for (const auto& r : records) writer.append(r.partition, r.key, r.value);
  writer.finish();

  SpillRunReader reader(path);
  auto cursor = reader.open(0);
  for (const auto& r : records) {
    auto got = cursor.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->key, r.key);
    EXPECT_EQ(got->value, r.value);
  }
  EXPECT_FALSE(cursor.next().has_value());
}

TEST(SpillFile, BinaryKeysAndValuesSurvive) {
  TempDir dir;
  const auto path = dir.file("run").string();
  const std::string key("k\0ey\xff", 5);
  const std::string value("\x00\x80\xff", 3);
  SpillRunWriter writer(path, 1);
  writer.append(0, key, value);
  writer.finish();
  SpillRunReader reader(path);
  auto cursor = reader.open(0);
  auto got = cursor.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key, key);
  EXPECT_EQ(got->value, value);
}

TEST(SpillFile, RejectsDecreasingPartitionOrder) {
  TempDir dir;
  SpillRunWriter writer(dir.file("run").string(), 3);
  writer.append(2, "a", "b");
  EXPECT_THROW(writer.append(1, "c", "d"), InternalError);
}

TEST(SpillFile, MultipleConcurrentCursorsOnOneRun) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 1);
  for (int i = 0; i < 100; ++i) {
    writer.append(0, "k" + std::to_string(i), "v");
  }
  writer.finish();
  SpillRunReader reader(path);
  auto c1 = reader.open(0);
  auto c2 = reader.open(0);
  // Interleave: both cursors see the full stream independently.
  for (int i = 0; i < 100; ++i) {
    auto r1 = c1.next();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->key, "k" + std::to_string(i));
    if (i % 2 == 0) {
      auto r2 = c2.next();
      ASSERT_TRUE(r2.has_value());
      EXPECT_EQ(r2->key, "k" + std::to_string(i / 2));
    }
  }
}

TEST(SpillFile, ReaderRejectsCorruptMagic) {
  TempDir dir;
  const auto path = dir.file("bad").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = {0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);
}

TEST(SpillFile, ReaderRejectsTinyFile) {
  TempDir dir;
  const auto path = dir.file("tiny").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("abc", 1, 3, f);
  std::fclose(f);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);
}

TEST(SpillFile, CursorRejectsHeaderWhoseSizesWrapTheirSum) {
  // klen + vlen wraps to 5: summing the two sizes before the bounds check
  // would accept this frame and return a 20-byte key plus a value that
  // overlaps the header.
  TempDir dir;
  const auto path = dir.file("run").string();
  std::string frame;
  put_varint(frame, ~std::uint64_t{0} - 4);  // 2^64 - 5
  put_varint(frame, 10);
  frame.append(20, 'x');
  SpillRunWriter writer(path, 1);
  writer.append_frame(0, frame);
  writer.finish();
  auto cursor = SpillRunReader(path).open(0);
  EXPECT_THROW(cursor.next(), FormatError);
}

TEST(EncodedRecordSize, MatchesActualEncoding) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::size_t klen = rng.next_below(300);
    const std::size_t vlen = rng.next_below(5000);
    const std::string key(klen, 'k');
    const std::string value(vlen, 'v');
    std::string out;
    encode_record(out, key, value);
    EXPECT_EQ(out.size(), encoded_record_size(klen, vlen));
  }
}

TEST(SpillFile, InfoByteCountsAreConsistent) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 2);
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t p = i < 200 ? 0 : 1;
    const std::string key = "key" + std::to_string(i);
    const std::string value(static_cast<std::size_t>(i % 50), 'x');
    writer.append(p, key, value);
    expected_bytes += encoded_record_size(key.size(), value.size());
  }
  const auto info = writer.finish();
  EXPECT_EQ(info.bytes, expected_bytes);
  EXPECT_EQ(info.partitions[0].bytes + info.partitions[1].bytes,
            expected_bytes);
  // Extents must tile the record stream.
  EXPECT_EQ(info.partitions[0].offset, 0u);
  EXPECT_EQ(info.partitions[1].offset, info.partitions[0].bytes);
}

}  // namespace
}  // namespace textmr::io
