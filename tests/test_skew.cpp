#include <gtest/gtest.h>

// Skew-aware partitioning battery (DESIGN.md §12): seeded fuzz over the
// kSkewPlan wire codec and the segment-file format (empty keys, embedded
// NULs, >64 KiB keys/blobs, truncation), unit coverage of the
// SkewAwarePartitioner routing rules (placement, split round-robin,
// hash fallback), determinism and threshold behavior of
// build_skew_plan, the split-merge end-to-end invariant (byte-identical
// to a hash-partitioner run, validated against the ExactCounter
// oracle), bin-packing of input files, and JobSpec validation. Fuzz
// iterations derive from a fixed base seed so failures replay
// deterministically; TEXTMR_FUZZ_ITERS multiplies the counts.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/protocol.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "mr/task_runner.hpp"

namespace textmr {
namespace {

std::size_t fuzz_scale() {
  if (const char* env = std::getenv("TEXTMR_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v > 100 ? 100 : v);
  }
  return 1;
}

constexpr std::uint64_t kBaseSeed = 0x736b657732303134ull;  // "skew2014"

/// Adversarial key: empty, NUL-laden binary, 8-byte, >64 KiB (a heavy
/// key is arbitrary user data — nothing bounds its length), or plain.
std::string fuzz_key(Xoshiro256& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return "";
    case 1: {
      std::string key(1 + rng.next_below(12), '\0');
      for (char& c : key) c = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 2: {
      std::string key(8, 'p');
      key[7] = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 3: {
      // Larger than the segment reader's 64 KiB read chunk.
      std::string key((1u << 16) + 1 + rng.next_below(4096), 'K');
      for (std::size_t i = 0; i < key.size(); i += 997) {
        key[i] = static_cast<char>(rng.next_below(256));
      }
      return key;
    }
    case 4: {
      std::string key(9 + rng.next_below(200), 'k');
      for (char& c : key) c = static_cast<char>('a' + rng.next_below(26));
      return key;
    }
    default:
      return "w" + std::to_string(rng.next_below(64));
  }
}

std::string fuzz_blob(Xoshiro256& rng, bool allow_huge) {
  std::size_t size = 0;
  switch (rng.next_below(allow_huge ? 4 : 3)) {
    case 0:
      return "";
    case 1:
      size = 1 + rng.next_below(32);
      break;
    case 2:
      size = 1 + rng.next_below(2048);
      break;
    default:
      size = (1u << 16) + 1 + rng.next_below(1u << 13);
      break;
  }
  std::string blob(size, '\0');
  for (std::size_t i = 0; i < size; i += 1 + rng.next_below(9)) {
    blob[i] = static_cast<char>(rng.next_below(256));
  }
  return blob;
}

// ---- kSkewPlan wire codec --------------------------------------------------

mr::SkewPlan decode_payload(std::string_view payload) {
  cluster::WireReader r(payload);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(cluster::MsgType::kSkewPlan));
  return cluster::decode_skew_plan(r);
}

TEST(SkewPlanCodec, RoundTripAdversarialPlans) {
  for (std::size_t iter = 0; iter < 8 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + iter);
    mr::SkewPlan plan;
    plan.num_canonical = static_cast<std::uint32_t>(1 + rng.next_below(16));
    const std::size_t n = rng.next_below(24);  // 0 = empty plan
    std::uint32_t next_physical = plan.num_canonical;
    for (std::size_t i = 0; i < n; ++i) {
      mr::SkewPlan::Entry entry;
      entry.key = fuzz_key(rng);
      entry.mode = rng.next_below(2) == 0 ? mr::SkewPlan::Mode::kPlace
                                          : mr::SkewPlan::Mode::kSplit;
      entry.num_shares = entry.mode == mr::SkewPlan::Mode::kPlace
                             ? 1
                             : static_cast<std::uint32_t>(2 + rng.next_below(6));
      entry.first_physical = next_physical;
      next_physical += entry.num_shares;
      plan.entries.push_back(std::move(entry));
    }

    const std::string payload = cluster::encode_skew_plan(plan);
    const mr::SkewPlan decoded = decode_payload(payload);
    ASSERT_EQ(decoded.num_canonical, plan.num_canonical);
    ASSERT_EQ(decoded.entries.size(), plan.entries.size());
    for (std::size_t i = 0; i < plan.entries.size(); ++i) {
      ASSERT_EQ(decoded.entries[i].key, plan.entries[i].key) << i;
      ASSERT_EQ(decoded.entries[i].mode, plan.entries[i].mode) << i;
      ASSERT_EQ(decoded.entries[i].first_physical,
                plan.entries[i].first_physical)
          << i;
      ASSERT_EQ(decoded.entries[i].num_shares, plan.entries[i].num_shares)
          << i;
    }
    // Re-encoding the decoded plan must reproduce the payload bit-for-bit
    // (the broadcast is the cross-engine determinism contract).
    EXPECT_EQ(cluster::encode_skew_plan(decoded), payload);
  }
}

TEST(SkewPlanCodec, EveryTruncatedPrefixThrows) {
  mr::SkewPlan plan;
  plan.num_canonical = 3;
  plan.entries.push_back({"heavy", mr::SkewPlan::Mode::kPlace, 3, 1});
  plan.entries.push_back({std::string("\x00key", 4), mr::SkewPlan::Mode::kSplit,
                          4, 2});
  const std::string payload = cluster::encode_skew_plan(plan);

  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(decode_payload(std::string_view(payload.data(), cut)),
                 FormatError)
        << "cut=" << cut;
  }
}

TEST(SkewPlanCodec, BadEntryModeThrows) {
  cluster::WireWriter w;
  w.u8(static_cast<std::uint8_t>(cluster::MsgType::kSkewPlan));
  w.u32(2);  // num_canonical
  w.u32(1);  // entries
  w.str("heavy");
  w.u8(7);  // invalid mode
  w.u32(2);
  w.u32(1);
  EXPECT_THROW(decode_payload(w.take()), FormatError);
}

TEST(SkewPlanCodec, TrailingBytesThrow) {
  mr::SkewPlan plan;
  plan.num_canonical = 2;
  plan.entries.push_back({"heavy", mr::SkewPlan::Mode::kPlace, 2, 1});
  std::string payload = cluster::encode_skew_plan(plan);
  payload.push_back('\0');
  EXPECT_THROW(decode_payload(payload), FormatError);
}

// ---- SkewAwarePartitioner routing -----------------------------------------

TEST(SkewPartitioner, NullAndEmptyPlansAreExactlyHashPartitioning) {
  const std::string keys[] = {"", std::string("\x00\x01", 2), "the",
                              "prefix08", std::string(70000, 'K'), "zzz"};
  mr::HashPartitioner hash(5);
  mr::SkewAwarePartitioner null_plan(5, nullptr, 3);
  mr::SkewPlan empty;
  empty.num_canonical = 5;
  mr::SkewAwarePartitioner empty_plan(5, &empty, 3);

  EXPECT_EQ(null_plan.num_partitions(), 5u);
  EXPECT_EQ(empty_plan.num_partitions(), 5u);
  for (const auto& key : keys) {
    const std::uint32_t expected = hash(key);
    EXPECT_EQ(null_plan(key), expected) << key.size();
    EXPECT_EQ(empty_plan(key), expected) << key.size();
  }
}

mr::SkewPlan two_entry_plan() {
  mr::SkewPlan plan;
  plan.num_canonical = 4;
  plan.entries.push_back({"apple", mr::SkewPlan::Mode::kPlace, 4, 1});
  plan.entries.push_back({"zebra", mr::SkewPlan::Mode::kSplit, 5, 3});
  return plan;
}

TEST(SkewPartitioner, PlacedKeysRouteToTheirDedicatedPartition) {
  const mr::SkewPlan plan = two_entry_plan();
  EXPECT_EQ(plan.num_physical(), 8u);
  for (const std::uint32_t task : {0u, 1u, 7u}) {
    mr::SkewAwarePartitioner part(4, &plan, task);
    EXPECT_EQ(part.num_partitions(), 8u);
    // Placement ignores the task id — one dedicated partition, always.
    EXPECT_EQ(part("apple"), 4u) << task;
    EXPECT_EQ(part("apple"), 4u) << task;
  }
}

TEST(SkewPartitioner, SplitKeysRoundRobinSeededByTaskId) {
  const mr::SkewPlan plan = two_entry_plan();
  {
    mr::SkewAwarePartitioner part(4, &plan, /*task_id=*/0);
    EXPECT_EQ(part("zebra"), 5u);
    EXPECT_EQ(part("zebra"), 6u);
    EXPECT_EQ(part("zebra"), 7u);
    EXPECT_EQ(part("zebra"), 5u);  // wraps
  }
  {
    // task 1 starts one share later, so shares fill evenly across tasks.
    mr::SkewAwarePartitioner part(4, &plan, /*task_id=*/1);
    EXPECT_EQ(part("zebra"), 6u);
    EXPECT_EQ(part("zebra"), 7u);
    EXPECT_EQ(part("zebra"), 5u);
  }
}

TEST(SkewPartitioner, NonHeavyKeysFallBackToHash) {
  const mr::SkewPlan plan = two_entry_plan();
  mr::HashPartitioner hash(4);
  mr::SkewAwarePartitioner part(4, &plan, 2);
  for (const std::string key : {"banana", "zeb", "zebras", "appl", ""}) {
    EXPECT_EQ(part(key), hash(key)) << key;
    EXPECT_LT(part(key), 4u) << key;
  }
}

TEST(SkewPartitioner, PlanLookupHelpers) {
  const mr::SkewPlan plan = two_entry_plan();
  ASSERT_NE(plan.find("zebra"), nullptr);
  EXPECT_EQ(plan.find("zebra")->mode, mr::SkewPlan::Mode::kSplit);
  EXPECT_EQ(plan.find("aardvark"), nullptr);
  EXPECT_EQ(plan.entry_for_partition(3), nullptr);  // canonical
  ASSERT_NE(plan.entry_for_partition(4), nullptr);
  EXPECT_EQ(plan.entry_for_partition(4)->key, "apple");
  for (const std::uint32_t p : {5u, 6u, 7u}) {
    ASSERT_NE(plan.entry_for_partition(p), nullptr) << p;
    EXPECT_EQ(plan.entry_for_partition(p)->key, "zebra") << p;
  }
}

// ---- build_skew_plan -------------------------------------------------------

mr::JobSpec corpus_job(const TempDir& dir, double alpha,
                       std::uint32_t num_reducers,
                       const apps::AppBundle& app) {
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 15000;
  corpus_spec.vocabulary = 500;
  corpus_spec.alpha = alpha;
  corpus_spec.seed = 4242;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(app, io::make_splits(corpus.string(), 48 * 1024),
                             dir.file("s"), dir.file("o"), num_reducers);
  spec.skew.enabled = true;
  spec.skew.top_k = 32;
  spec.skew.sample_bytes = 1u << 20;
  spec.skew.place_threshold = 0.3;
  spec.skew.split_threshold = 0.8;
  spec.skew.max_split_shares = 3;
  return spec;
}

TEST(SkewPlanBuild, DeterministicWithSplitOnSkewedCorpus) {
  TempDir dir;
  const auto spec = corpus_job(dir, /*alpha=*/1.5, 3, apps::wordcount_app());
  const mr::SkewPlan plan = mr::build_skew_plan(spec);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.num_canonical, 3u);

  bool has_split = false;
  // Which modes touch each dedicated partition: split shares must own
  // their partition exclusively; placed keys may share a bin.
  std::map<std::uint32_t, std::vector<mr::SkewPlan::Mode>> hosted;
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    const auto& entry = plan.entries[i];
    // Entries are key-sorted; every dedicated partition id sits in
    // [num_canonical, num_physical).
    if (i > 0) {
      EXPECT_LT(plan.entries[i - 1].key, entry.key);
    }
    EXPECT_GE(entry.first_physical, plan.num_canonical);
    EXPECT_LE(entry.first_physical + entry.num_shares, plan.num_physical());
    for (std::uint32_t s = 0; s < entry.num_shares; ++s) {
      hosted[entry.first_physical + s].push_back(entry.mode);
    }
    if (entry.mode == mr::SkewPlan::Mode::kSplit) {
      has_split = true;
      EXPECT_GE(entry.num_shares, 2u);
      EXPECT_LE(entry.num_shares, 3u);
    } else {
      EXPECT_EQ(entry.num_shares, 1u);
    }
  }
  for (const auto& [partition, modes] : hosted) {
    if (std::count(modes.begin(), modes.end(), mr::SkewPlan::Mode::kSplit) >
        0) {
      EXPECT_EQ(modes.size(), 1u) << "split share shares partition "
                                  << partition;
    }
    // entry_for_partition resolves every hosted partition to some entry.
    EXPECT_NE(plan.entry_for_partition(partition), nullptr) << partition;
  }
  // α=1.5's top word carries ~40% of the mass: weight ≈ 1.2 with three
  // reducers, past the 0.8 split bar.
  EXPECT_TRUE(has_split);

  // Same spec => byte-identical plan (the determinism contract).
  const mr::SkewPlan again = mr::build_skew_plan(spec);
  EXPECT_EQ(cluster::encode_skew_plan(again), cluster::encode_skew_plan(plan));
}

TEST(SkewPlanBuild, FlatCorpusYieldsEmptyPlan) {
  TempDir dir;
  const auto spec = corpus_job(dir, /*alpha=*/0.7, 3, apps::wordcount_app());
  const mr::SkewPlan plan = mr::build_skew_plan(spec);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.num_physical(), 3u);
}

TEST(SkewPlanBuild, SplitDemotedToPlacementWithoutCombiner) {
  TempDir dir;
  auto app = apps::wordcount_app();
  app.combiner = nullptr;  // and no skew.merge_combiner either
  const auto spec = corpus_job(dir, /*alpha=*/1.5, 3, app);
  const mr::SkewPlan plan = mr::build_skew_plan(spec);
  ASSERT_FALSE(plan.empty());
  for (const auto& entry : plan.entries) {
    EXPECT_EQ(entry.mode, mr::SkewPlan::Mode::kPlace) << entry.key;
    EXPECT_EQ(entry.num_shares, 1u) << entry.key;
  }
}

TEST(SkewPlanBuild, MergeCombinerEnablesSplitting) {
  TempDir dir;
  auto app = apps::wordcount_app();
  app.combiner = nullptr;
  auto spec = corpus_job(dir, /*alpha=*/1.5, 3, app);
  spec.skew.merge_combiner = [] {
    return std::make_unique<apps::WordCountCombiner>();
  };
  const mr::SkewPlan plan = mr::build_skew_plan(spec);
  ASSERT_FALSE(plan.empty());
  bool has_split = false;
  for (const auto& entry : plan.entries) {
    has_split |= entry.mode == mr::SkewPlan::Mode::kSplit;
  }
  EXPECT_TRUE(has_split);
}

TEST(SkewPlanBuild, DedicatedPartitionBudgetCapsAllHeavyCorpus) {
  // A tiny uniform vocabulary with a near-zero placement bar makes every
  // word heavy; the dedicated-partition budget (= num_reducers by
  // default) must cap the fan-out instead of growing without bound.
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 6000;
  corpus_spec.vocabulary = 12;
  corpus_spec.alpha = 0.1;
  corpus_spec.seed = 99;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 48 * 1024),
                             dir.file("s"), dir.file("o"), 4);
  spec.skew.enabled = true;
  spec.skew.place_threshold = 0.05;
  spec.skew.split_threshold = 10.0;  // placement only
  const mr::SkewPlan plan = mr::build_skew_plan(spec);
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.num_physical() - plan.num_canonical, 4u);
}

TEST(SkewPlanBuild, SingleReducerDisablesSkew) {
  TempDir dir;
  const auto spec = corpus_job(dir, /*alpha=*/1.5, 1, apps::wordcount_app());
  EXPECT_TRUE(mr::build_skew_plan(spec).empty());
}

// ---- segment files ---------------------------------------------------------

TEST(SkewSegmentFile, RoundTripAdversarialEntries) {
  for (std::size_t iter = 0; iter < 6 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 500 + iter);
    TempDir dir("textmr-skew-fuzz");
    const std::string path = dir.file("seg").string();

    std::vector<std::pair<std::string, std::string>> expected;
    std::vector<mr::SegmentKind> kinds;
    mr::SegmentWriter writer(path);
    const std::size_t n = 1 + rng.next_below(120);
    for (std::size_t i = 0; i < n; ++i) {
      const auto kind = rng.next_below(2) == 0 ? mr::SegmentKind::kOutput
                                               : mr::SegmentKind::kPartial;
      std::string key = fuzz_key(rng);
      std::string blob = fuzz_blob(rng, /*allow_huge=*/i % 29 == 0);
      writer.add(kind, key, blob);
      kinds.push_back(kind);
      expected.emplace_back(std::move(key), std::move(blob));
    }
    // A final entry with a non-empty blob, so the truncation pass below
    // always cuts inside a payload rather than at an entry boundary.
    writer.add(mr::SegmentKind::kOutput, "sentinel", "tail");
    kinds.push_back(mr::SegmentKind::kOutput);
    expected.emplace_back("sentinel", "tail");
    const std::uint64_t bytes = writer.finish();
    EXPECT_GT(bytes, 0u);

    mr::SegmentReader reader(path);
    std::size_t i = 0;
    while (auto entry = reader.next()) {
      ASSERT_LT(i, expected.size());
      ASSERT_EQ(entry->kind, kinds[i]) << i;
      ASSERT_EQ(entry->key, expected[i].first) << i;
      ASSERT_EQ(entry->blob, expected[i].second) << i;
      ++i;
    }
    ASSERT_EQ(i, expected.size());

    // Truncating the final blob must throw, never silently decode.
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_EQ(data.size(), bytes);
    const std::string cut_path = dir.file("cut").string();
    std::ofstream(cut_path, std::ios::binary)
        << std::string_view(data.data(), data.size() - 1);
    EXPECT_THROW(
        {
          mr::SegmentReader cut(cut_path);
          while (cut.next()) {
          }
        },
        FormatError);
  }
}

TEST(SkewSegmentFile, BadEntryKindThrows) {
  TempDir dir;
  const std::string path = dir.file("seg").string();
  std::ofstream(path, std::ios::binary) << "\x07rest";
  mr::SegmentReader reader(path);
  EXPECT_THROW(reader.next(), FormatError);
}

TEST(SkewSegmentFile, PartialValueBlobRoundTrip) {
  for (std::size_t iter = 0; iter < 8 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 900 + iter);
    std::string blob;
    std::vector<std::string> expected;
    const std::size_t n = rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      std::string value = fuzz_blob(rng, /*allow_huge=*/i % 13 == 0);
      mr::append_partial_value(blob, value);
      expected.push_back(std::move(value));
    }
    mr::append_partial_value(blob, "tail");  // non-empty terminator
    expected.emplace_back("tail");

    const auto values = mr::decode_partial_values(blob);
    ASSERT_EQ(values.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(values[i], expected[i]) << i;
    }
    EXPECT_THROW(
        mr::decode_partial_values(
            std::string_view(blob.data(), blob.size() - 1)),
        FormatError);
  }
}

// ---- split-merge end-to-end ------------------------------------------------

TEST(SkewEndToEnd, SplitMergeMatchesHashRunAndExactOracle) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 20000;
  corpus_spec.vocabulary = 500;
  corpus_spec.alpha = 1.5;
  corpus_spec.seed = 77;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  const auto splits = io::make_splits(corpus.string(), 32 * 1024);

  // No map-side combiner: the split shares and the finalize merge run on
  // the dedicated merge_combiner alone — the skew battery configuration.
  auto app = apps::wordcount_app();
  app.combiner = nullptr;

  auto hash_spec = test::make_job(app, splits, dir.file("hs"), dir.file("ho"));
  auto skew_spec = test::make_job(app, splits, dir.file("ss"), dir.file("so"));
  skew_spec.skew.enabled = true;
  skew_spec.skew.top_k = 32;
  skew_spec.skew.place_threshold = 0.3;
  skew_spec.skew.split_threshold = 0.8;
  skew_spec.skew.max_split_shares = 3;
  skew_spec.skew.merge_combiner = [] {
    return std::make_unique<apps::WordCountCombiner>();
  };

  // Sanity: this corpus really exercises the split path.
  const mr::SkewPlan plan = mr::build_skew_plan(skew_spec);
  ASSERT_FALSE(plan.empty());
  bool has_split = false;
  for (const auto& entry : plan.entries) {
    has_split |= entry.mode == mr::SkewPlan::Mode::kSplit;
  }
  ASSERT_TRUE(has_split);

  mr::LocalEngine engine;
  const auto hash_result = engine.run(hash_spec);
  const auto skew_result = engine.run(skew_spec);

  // The layout invariant: canonical part files, byte for byte.
  ASSERT_EQ(skew_result.outputs.size(), hash_result.outputs.size());
  for (std::size_t i = 0; i < hash_result.outputs.size(); ++i) {
    std::ifstream a(hash_result.outputs[i], std::ios::binary);
    std::ifstream b(skew_result.outputs[i], std::ios::binary);
    std::string bytes_a((std::istreambuf_iterator<char>(a)),
                        std::istreambuf_iterator<char>());
    std::string bytes_b((std::istreambuf_iterator<char>(b)),
                        std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes_b, bytes_a) << "part " << i;
  }
  EXPECT_TRUE(test::part_files_sorted(skew_result.outputs));

  // The skew run really ran extra physical reduce tasks and recorded the
  // per-partition byte statistics the analyzer consumes.
  EXPECT_EQ(hash_result.metrics.reduce_tasks, 3u);
  EXPECT_EQ(skew_result.metrics.reduce_tasks, plan.num_physical());
  EXPECT_GT(skew_result.metrics.reduce_tasks, 3u);
  EXPECT_GT(skew_result.metrics.partition_bytes_max, 0u);
  EXPECT_GE(skew_result.metrics.partition_skew_ratio(), 1.0);

  // Ground truth: the ExactCounter oracle over the raw token stream.
  sketch::ExactCounter counter;
  std::ifstream in(corpus);
  std::string line;
  std::string scratch;
  while (std::getline(in, line)) {
    apps::for_each_token(line, scratch,
                         [&](std::string_view token) { counter.offer(token); });
  }
  const auto actual = test::read_outputs(skew_result.outputs);
  ASSERT_EQ(actual.size(), counter.distinct());
  for (const auto& [word, count] : actual) {
    EXPECT_EQ(count, std::to_string(counter.count(word))) << word;
  }
}

// ---- bin-packing of input files --------------------------------------------

std::filesystem::path write_file(const TempDir& dir, const std::string& name,
                                 std::size_t bytes) {
  const auto path = dir.file(name);
  std::ofstream out(path, std::ios::binary);
  out << std::string(bytes, 'x');
  return path;
}

TEST(PackInputFiles, RejectsZeroTasksAndMissingFiles) {
  TempDir dir;
  const auto a = write_file(dir, "a", 100);
  EXPECT_THROW(mr::pack_input_files({a.string()}, 0), ConfigError);
  EXPECT_THROW(mr::pack_input_files({dir.file("missing").string()}, 2),
               IoError);
}

TEST(PackInputFiles, EmptyFilesGetOneEmptySplitEach) {
  TempDir dir;
  const auto a = write_file(dir, "a", 0);
  const auto b = write_file(dir, "b", 0);
  const auto splits = mr::pack_input_files({a.string(), b.string()}, 4);
  ASSERT_EQ(splits.size(), 2u);
  for (const auto& split : splits) {
    EXPECT_EQ(split.offset, 0u);
    EXPECT_EQ(split.length, 0u);
  }
}

TEST(PackInputFiles, ProportionalChunksCoverEachFileContiguously) {
  TempDir dir;
  const auto big = write_file(dir, "big", 100000);
  const auto small = write_file(dir, "small", 10000);
  const auto splits =
      mr::pack_input_files({big.string(), small.string()}, 4);

  // target = 110000/4 = 27500: the big file splits into ~4 chunks, the
  // small one stays whole — bigger files get more tasks.
  std::map<std::string, std::vector<io::InputSplit>> by_file;
  for (const auto& split : splits) by_file[split.path].push_back(split);
  ASSERT_EQ(by_file.size(), 2u);
  EXPECT_GT(by_file[big.string()].size(), by_file[small.string()].size());
  EXPECT_EQ(by_file[small.string()].size(), 1u);

  const std::map<std::string, std::uint64_t> sizes = {
      {big.string(), 100000}, {small.string(), 10000}};
  for (auto& [path, file_splits] : by_file) {
    std::sort(file_splits.begin(), file_splits.end(),
              [](const io::InputSplit& x, const io::InputSplit& y) {
                return x.offset < y.offset;
              });
    std::uint64_t next = 0;
    for (const auto& split : file_splits) {
      EXPECT_EQ(split.offset, next) << path;
      EXPECT_GT(split.length, 0u) << path;
      next = split.offset + split.length;
    }
    EXPECT_EQ(next, sizes.at(path)) << path;
  }
}

TEST(PackInputFiles, MoreFilesThanTasksDegradesToOneSplitPerFile) {
  TempDir dir;
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    paths.push_back(write_file(dir, "f" + std::to_string(i), 5000).string());
  }
  const auto splits = mr::pack_input_files(paths, 1);
  ASSERT_EQ(splits.size(), 3u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(splits[i].path, paths[i]);
    EXPECT_EQ(splits[i].offset, 0u);
    EXPECT_EQ(splits[i].length, 5000u);
  }
}

// ---- JobSpec validation ----------------------------------------------------

TEST(SkewValidate, RejectsInvalidSkewConfigs) {
  TempDir dir;
  const auto base = corpus_job(dir, 1.1, 3, apps::wordcount_app());
  EXPECT_NO_THROW(mr::validate_job(base));

  auto zero_place = base;
  zero_place.skew.place_threshold = 0.0;
  EXPECT_THROW(mr::validate_job(zero_place), ConfigError);

  auto inverted = base;
  inverted.skew.place_threshold = 0.9;
  inverted.skew.split_threshold = 0.5;
  EXPECT_THROW(mr::validate_job(inverted), ConfigError);

  auto one_share = base;
  one_share.skew.max_split_shares = 1;
  EXPECT_THROW(mr::validate_job(one_share), ConfigError);
}

}  // namespace
}  // namespace textmr
