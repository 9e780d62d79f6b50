#include <gtest/gtest.h>

// Seeded fuzz battery for the packed record codec and the zero-copy
// record path (ISSUE 4): adversarial keys/values — empty, embedded NULs,
// shared 8-byte prefixes (the prefix-comparator tie path), >64 KiB
// payloads that straddle the RunCursor read-chunk boundary, ring-wrap
// straddling records — through frame/unframe, the spill ring, sort +
// spill write, bulk read + index, and the k-way merge. Every iteration
// derives from a fixed base seed, so failures replay deterministically;
// the failing seed is printed via SCOPED_TRACE. TEXTMR_FUZZ_ITERS
// multiplies the iteration counts (the `pressure` ctest label sets 10).

#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "io/spill_file.hpp"
#include "mr/merger.hpp"
#include "mr/record_arena.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

std::size_t fuzz_scale() {
  if (const char* env = std::getenv("TEXTMR_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v > 100 ? 100 : v);
  }
  return 1;
}

constexpr std::uint64_t kBaseSeed = 0x7465787432303134ull;  // "text2014"

/// Adversarial key: empty, tiny binary (embedded NULs), exactly-8-byte,
/// long with a shared prefix (forces the full compare past the 8-byte
/// prefix), or plain words.
std::string fuzz_key(Xoshiro256& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return "";
    case 1: {
      std::string key(1 + rng.next_below(8), '\0');
      for (char& c : key) c = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 2: {
      std::string key(8, 'p');
      key[7] = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 3: {
      // 8-byte common prefix + divergent binary tail: the prefix integer
      // ties and record_ref_less / record_key_equal must read the tail.
      std::string key = "prefix08";
      const std::size_t tail = 1 + rng.next_below(24);
      for (std::size_t i = 0; i < tail; ++i) {
        key.push_back(static_cast<char>(rng.next_below(256)));
      }
      return key;
    }
    case 4: {
      std::string key(9 + rng.next_below(292), 'k');
      for (char& c : key) c = static_cast<char>('a' + rng.next_below(26));
      return key;
    }
    default:
      return "w" + std::to_string(rng.next_below(40));
  }
}

/// Adversarial value: empty, NUL-laden binary, or — occasionally — larger
/// than the 64 KiB RunCursor read chunk, so one framed record straddles
/// several buffered reads.
std::string fuzz_value(Xoshiro256& rng, bool allow_huge) {
  const std::uint64_t kind = rng.next_below(allow_huge ? 5 : 4);
  std::size_t size = 0;
  switch (kind) {
    case 0:
      return "";
    case 1:
      size = 1 + rng.next_below(16);
      break;
    case 2:
      size = 1 + rng.next_below(512);
      break;
    case 3:
      size = (1u << 16) - 4 + rng.next_below(8);  // hugs the chunk boundary
      break;
    default:
      size = (1u << 16) + 1 + rng.next_below(1u << 14);  // > one read chunk
      break;
  }
  std::string value(size, '\0');
  for (std::size_t i = 0; i < size; i += 1 + rng.next_below(7)) {
    value[i] = static_cast<char>(rng.next_below(256));
  }
  return value;
}

using RecordTuple = std::tuple<std::uint32_t, std::string, std::string>;

TEST(RecordFuzz, FrameHeaderRoundTripAndTruncationSafety) {
  const std::size_t sizes[] = {0,     1,     7,      8,     9,     127,
                               128,   16383, 16384,  65535, 65536, 70001};
  for (const std::size_t klen : sizes) {
    for (const std::size_t vlen : sizes) {
      char header[io::kMaxFrameHeaderBytes];
      const std::size_t header_size =
          io::encode_frame_header(header, klen, vlen);
      ASSERT_LE(header_size, io::kMaxFrameHeaderBytes);

      std::string frame(header, header_size);
      frame.append(klen, 'k');
      frame.append(vlen, 'v');
      const io::FrameHeader decoded = io::decode_frame_header(frame);
      EXPECT_EQ(decoded.key_size, klen);
      EXPECT_EQ(decoded.value_size, vlen);
      EXPECT_EQ(decoded.header_size, header_size);

      // Every strict prefix must be rejected: either the header varint
      // is cut short or the declared payload overruns the buffer.
      for (const std::size_t cut :
           {std::size_t{0}, header_size / 2, header_size, frame.size() - 1}) {
        if (cut >= frame.size()) continue;
        EXPECT_THROW(
            io::decode_frame_header(std::string_view(frame.data(), cut)),
            FormatError)
            << "klen=" << klen << " vlen=" << vlen << " cut=" << cut;
      }
    }
  }
}

TEST(RecordFuzz, ArenaRoundTripAdversarialRecords) {
  for (std::size_t iter = 0; iter < 4 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + iter);
    RecordArena arena;
    std::vector<RecordTuple> expected;
    for (int i = 0; i < 400; ++i) {
      const auto partition = static_cast<std::uint32_t>(rng.next_below(4));
      std::string key = fuzz_key(rng);
      std::string value = fuzz_value(rng, /*allow_huge=*/i % 67 == 0);
      arena.append(partition, key, value);
      expected.emplace_back(partition, std::move(key), std::move(value));
    }
    ASSERT_EQ(arena.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const RecordRef& ref = arena.records()[i];
      const auto& [partition, key, value] = expected[i];
      ASSERT_EQ(ref.partition, partition) << i;
      ASSERT_EQ(ref.key(), key) << i;
      ASSERT_EQ(ref.value(), value) << i;
      ASSERT_EQ(ref.key_prefix, key_prefix8(key)) << i;
    }
    // The denormalized comparators must agree with the plain tuple order
    // on random pairs, including prefix ties and embedded NULs.
    for (int pair = 0; pair < 2000; ++pair) {
      const auto& a = arena.records()[rng.next_below(expected.size())];
      const auto& b = arena.records()[rng.next_below(expected.size())];
      const bool expect_less = std::make_pair(a.partition, a.key()) <
                               std::make_pair(b.partition, b.key());
      ASSERT_EQ(record_ref_less(a, b), expect_less);
      ASSERT_EQ(record_key_equal(a, b), a.key() == b.key());
    }
  }
}

TEST(RecordFuzz, SpillBufferRingWrapRoundTrip) {
  // A small ring forces records to straddle the wrap point; the framed
  // representation must survive wrap padding, empty keys/values and NULs.
  for (std::size_t iter = 0; iter < 2 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 100 + iter);
    SpillBuffer buffer(1 << 14, 0.5);
    std::vector<RecordTuple> collected;
    std::thread consumer([&] {
      while (auto spill = buffer.take()) {
        for (const RecordRef& ref : spill->records) {
          collected.emplace_back(ref.partition, std::string(ref.key()),
                                 std::string(ref.value()));
        }
        buffer.release(*spill, 1);
      }
    });
    std::vector<RecordTuple> expected;
    for (int i = 0; i < 2000; ++i) {
      const auto partition = static_cast<std::uint32_t>(rng.next_below(3));
      std::string key = fuzz_key(rng);
      std::string value = fuzz_value(rng, /*allow_huge=*/false);
      if (value.size() > 2048) value.resize(2048);  // stay well under capacity
      buffer.put(partition, key, value);
      expected.emplace_back(partition, std::move(key), std::move(value));
    }
    buffer.close();
    consumer.join();
    ASSERT_EQ(collected, expected);
  }
}

TEST(RecordFuzz, SortSpillReadAndIndexRoundTrip) {
  for (std::size_t iter = 0; iter < 3 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 200 + iter);
    TempDir dir("textmr-record-fuzz");
    const auto partitions = static_cast<std::uint32_t>(1 + rng.next_below(3));

    RecordArena arena;
    Spill spill;
    std::multiset<RecordTuple> expected;
    for (int i = 0; i < 250; ++i) {
      const auto partition =
          static_cast<std::uint32_t>(rng.next_below(partitions));
      const std::string key = fuzz_key(rng);
      // Every iteration gets a few >64 KiB values so framed records span
      // multiple RunCursor read chunks.
      const std::string value = fuzz_value(rng, /*allow_huge=*/i % 50 == 0);
      spill.records.push_back(arena.append(partition, key, value));
      spill.data_bytes += key.size() + value.size();
      expected.emplace(partition, key, value);
    }

    TaskMetrics metrics;
    const auto info =
        sort_and_spill(spill, nullptr, dir.file("run").string(), partitions,
                       metrics);
    ASSERT_EQ(info.records, expected.size());

    // Pass 1: the streaming cursor (the merge input path).
    io::SpillRunReader reader(info.path);
    std::multiset<RecordTuple> streamed;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      auto cursor = reader.open(p);
      std::string previous;
      bool first = true;
      while (auto record = cursor.next()) {
        streamed.emplace(p, std::string(record->key),
                         std::string(record->value));
        if (!first) ASSERT_LE(previous, record->key);
        previous.assign(record->key);
        first = false;
      }
    }
    ASSERT_EQ(streamed, expected);

    // Pass 2: bulk read + in-place index (the zero-copy shuffle path).
    std::multiset<RecordTuple> indexed;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      const std::string bytes = reader.read_partition(p);
      ASSERT_EQ(bytes.size(), reader.extent(p).bytes);
      const auto refs = index_frames(bytes, p);
      ASSERT_EQ(refs.size(), reader.extent(p).records);
      for (const RecordRef& ref : refs) {
        indexed.emplace(p, std::string(ref.key()), std::string(ref.value()));
        ASSERT_EQ(ref.key_prefix, key_prefix8(ref.key()));
      }
      // A stream cut inside the final frame must be rejected, never
      // silently decoded.
      if (!bytes.empty()) {
        EXPECT_THROW(index_frames(std::string_view(bytes.data(),
                                                   bytes.size() - 1),
                                  p),
                     FormatError);
      }
    }
    ASSERT_EQ(indexed, expected);
  }
}

TEST(RecordFuzz, MultiRunMergeRoundTrip) {
  for (std::size_t iter = 0; iter < 2 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 300 + iter);
    TempDir dir("textmr-merge-fuzz");
    const std::uint32_t partitions = 2;

    std::vector<io::SpillRunInfo> runs;
    std::multiset<RecordTuple> expected;
    RecordArena arena;
    for (int run = 0; run < 4; ++run) {
      arena.clear();
      Spill spill;
      for (int i = 0; i < 120; ++i) {
        const auto partition =
            static_cast<std::uint32_t>(rng.next_below(partitions));
        const std::string key = fuzz_key(rng);
        const std::string value = fuzz_value(rng, /*allow_huge=*/i % 60 == 0);
        spill.records.push_back(arena.append(partition, key, value));
        spill.data_bytes += key.size() + value.size();
        expected.emplace(partition, key, value);
      }
      TaskMetrics metrics;
      runs.push_back(sort_and_spill(spill, nullptr,
                                    dir.file("run" + std::to_string(run))
                                        .string(),
                                    partitions, metrics));
    }

    TaskMetrics merge_metrics;
    const auto merged = merge_runs(runs, nullptr, dir.file("merged").string(),
                                   partitions, merge_metrics);
    ASSERT_EQ(merged.records, expected.size());

    io::SpillRunReader reader(merged.path);
    std::multiset<RecordTuple> actual;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      auto cursor = reader.open(p);
      std::string previous;
      bool first = true;
      while (auto record = cursor.next()) {
        actual.emplace(p, std::string(record->key), std::string(record->value));
        if (!first) ASSERT_LE(previous, record->key);
        previous.assign(record->key);
        first = false;
      }
    }
    ASSERT_EQ(actual, expected);
  }
}

}  // namespace
}  // namespace textmr::mr
