#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "mr/map_task.hpp"
#include "mr/partitioner.hpp"
#include "textgen/corpus_gen.hpp"

namespace textmr::mr {
namespace {

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

io::InputSplit write_corpus(const TempDir& dir, const std::string& name,
                            int lines) {
  const auto path = dir.file(name);
  std::ofstream out(path);
  std::uint64_t size = 0;
  for (int i = 0; i < lines; ++i) {
    const std::string line =
        "alpha beta gamma alpha delta alpha beta line" + std::to_string(i);
    out << line << "\n";
    size += line.size() + 1;
  }
  out.close();
  return io::InputSplit{path.string(), 0, size};
}

MapTaskConfig base_config(const TempDir& dir, io::InputSplit split) {
  MapTaskConfig config;
  config.task_id = 0;
  config.split = std::move(split);
  config.num_partitions = 2;
  config.mapper = [] { return std::make_unique<apps::WordCountMapper>(); };
  config.combiner = [] { return std::make_unique<apps::WordCountCombiner>(); };
  config.spill_buffer_bytes = 64 * 1024;  // small: forces several spills
  config.scratch_dir = dir.file("scratch");
  return config;
}

std::map<std::string, std::uint64_t> read_output_counts(
    const io::SpillRunInfo& output, std::uint32_t partitions) {
  std::map<std::string, std::uint64_t> counts;
  io::SpillRunReader reader(output.path);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    auto cursor = reader.open(p);
    while (auto record = cursor.next()) {
      counts[std::string(record->key)] += varint_of(record->value);
    }
  }
  return counts;
}

TEST(MapTask, ProducesCombinedSortedOutput) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 3000));
  const auto result = run_map_task(config);

  const auto counts = read_output_counts(result.output, 2);
  EXPECT_EQ(counts.at("alpha"), 9000u);
  EXPECT_EQ(counts.at("beta"), 6000u);
  EXPECT_EQ(counts.at("gamma"), 3000u);
  EXPECT_EQ(counts.at("delta"), 3000u);
  EXPECT_EQ(counts.at("line42"), 1u);

  EXPECT_GT(result.spills, 1u);
  EXPECT_EQ(result.map_thread.input_records, 3000u);
  EXPECT_EQ(result.map_thread.map_output_records, 8u * 3000u);
  EXPECT_GT(result.map_thread.op_ns(Op::kMapUser), 0u);
  EXPECT_GT(result.support_thread.op_ns(Op::kSort), 0u);
}

TEST(MapTask, OutputKeysAreSortedWithinPartitions) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 2000));
  const auto result = run_map_task(config);
  io::SpillRunReader reader(result.output.path);
  for (std::uint32_t p = 0; p < 2; ++p) {
    auto cursor = reader.open(p);
    std::string previous;
    bool first = true;
    while (auto record = cursor.next()) {
      if (!first) { EXPECT_LT(previous, record->key); }  // sorted and combined
      previous.assign(record->key);
      first = false;
    }
  }
}

TEST(MapTask, PartitionAssignmentMatchesPartitioner) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 200));
  const auto result = run_map_task(config);
  HashPartitioner partitioner(2);
  io::SpillRunReader reader(result.output.path);
  for (std::uint32_t p = 0; p < 2; ++p) {
    auto cursor = reader.open(p);
    while (auto record = cursor.next()) {
      EXPECT_EQ(partitioner(record->key), p) << record->key;
    }
  }
}

TEST(MapTask, SingleSpillIsAdoptedWithoutMerge) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 50));
  config.spill_buffer_bytes = 4 << 20;  // everything fits in one spill
  const auto result = run_map_task(config);
  EXPECT_EQ(result.spills, 1u);
  EXPECT_EQ(result.map_thread.op_ns(Op::kMerge), 0u);
  const auto counts = read_output_counts(result.output, 2);
  EXPECT_EQ(counts.at("alpha"), 150u);
}

TEST(MapTask, WithoutCombinerEveryRecordSurvives) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 500));
  config.combiner = nullptr;
  const auto result = run_map_task(config);
  EXPECT_EQ(result.output.records, 8u * 500u);
}

TEST(MapTask, FreqBufferingReducesSpilledRecords) {
  TempDir dir;
  const auto split = write_corpus(dir, "in.txt", 4000);

  auto baseline_config = base_config(dir, split);
  const auto baseline = run_map_task(baseline_config);

  auto freq_config = base_config(dir, split);
  freq_config.scratch_dir = dir.file("scratch2");
  freq_config.freqbuf.enabled = true;
  freq_config.freqbuf.top_k = 8;
  freq_config.freqbuf.sampling_fraction = 0.05;
  freq_config.freqbuf.share_across_tasks = false;
  freq_config.freq_table_budget_bytes = 16 * 1024;
  const auto freq = run_map_task(freq_config);

  // Same final answer...
  EXPECT_EQ(read_output_counts(baseline.output, 2),
            read_output_counts(freq.output, 2));
  // ...but far fewer records entered the sort-spill machinery.
  EXPECT_LT(freq.map_thread.spill_input_records,
            baseline.map_thread.spill_input_records / 2);
  EXPECT_GT(freq.map_thread.freq_hits, 0u);
}

TEST(MapTask, OneLoopFeedsBothOutputStagesIdentically) {
  // The combine mode picks only the output stage: the read/map/emit loop
  // must see the same records in sort and hash mode, with FreqOpt off and
  // on.
  TempDir dir;
  const auto split = write_corpus(dir, "in.txt", 3000);
  for (const bool freq : {false, true}) {
    SCOPED_TRACE(freq ? "freq on" : "freq off");
    MapTaskResult results[2];
    for (const CombineMode mode : {CombineMode::kSort, CombineMode::kHash}) {
      auto config = base_config(dir, split);
      config.combine_mode = mode;
      config.scratch_dir = dir.file(
          std::string(mode == CombineMode::kHash ? "hash" : "sort") +
          (freq ? "-freq" : ""));
      if (freq) {
        config.freqbuf.enabled = true;
        config.freqbuf.top_k = 8;
        config.freqbuf.sampling_fraction = 0.05;
        config.freqbuf.share_across_tasks = false;
        config.freq_table_budget_bytes = 16 * 1024;
      }
      results[mode == CombineMode::kHash ? 1 : 0] = run_map_task(config);
    }
    const TaskMetrics& sorted = results[0].map_thread;
    const TaskMetrics& hashed = results[1].map_thread;
    EXPECT_EQ(sorted.input_records, 3000u);
    EXPECT_EQ(hashed.input_records, sorted.input_records);
    EXPECT_EQ(hashed.input_bytes, sorted.input_bytes);
    EXPECT_EQ(hashed.map_output_records, sorted.map_output_records);
    EXPECT_EQ(hashed.map_output_bytes, sorted.map_output_bytes);
    // FreqOpt is built on the sort path only: in hash mode the table
    // already admits every key.
    EXPECT_EQ(hashed.freq_hits, 0u);
    EXPECT_EQ(sorted.freq_hits > 0, freq);
    EXPECT_EQ(read_output_counts(results[1].output, 2),
              read_output_counts(results[0].output, 2));
  }
}

TEST(MapTask, SpillMatcherKeepsAnswerIdentical) {
  TempDir dir;
  const auto split = write_corpus(dir, "in.txt", 3000);
  auto fixed_config = base_config(dir, split);
  const auto fixed = run_map_task(fixed_config);

  auto adaptive_config = base_config(dir, split);
  adaptive_config.scratch_dir = dir.file("scratch3");
  adaptive_config.spill_policy = [] {
    return std::make_unique<spillmatch::SpillMatcher>();
  };
  const auto adaptive = run_map_task(adaptive_config);
  EXPECT_EQ(read_output_counts(fixed.output, 2),
            read_output_counts(adaptive.output, 2));
  // The matcher must actually have moved the threshold off the default.
  EXPECT_NE(adaptive.final_spill_threshold, 0.8);
}

TEST(MapTask, EmptyInputYieldsEmptyOutputRun) {
  TempDir dir;
  const auto path = dir.file("empty.txt");
  std::ofstream(path).close();
  auto config = base_config(dir, io::InputSplit{path.string(), 0, 0});
  const auto result = run_map_task(config);
  EXPECT_EQ(result.output.records, 0u);
  io::SpillRunReader reader(result.output.path);
  EXPECT_FALSE(reader.open(0).next().has_value());
}

TEST(MapTask, MapperErrorPropagates) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 10));
  config.mapper = [] {
    return std::make_unique<LambdaMapper>(
        [](std::uint64_t, std::string_view, EmitSink&) {
          throw std::runtime_error("user map bug");
        });
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, CombinerErrorInSupportThreadPropagates) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 2000));
  config.combiner = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view, ValueStream&, EmitSink&) {
          throw std::runtime_error("user combine bug");
        });
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, CombinerFactoryErrorAfterSupportThreadStartedPropagates) {
  // The third factory call (map thread, support 0, support 1) throws
  // while support 0 already runs: it must be joined, not abandoned.
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 10));
  config.support_threads = 2;
  auto calls = std::make_shared<int>(0);
  config.combiner = [calls]() -> std::unique_ptr<Reducer> {
    if (++*calls == 3) throw std::runtime_error("combiner factory bug");
    return std::make_unique<apps::WordCountCombiner>();
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, IdleTimeIsMeasured) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 3000));
  const auto result = run_map_task(config);
  // At least one of the two threads must have waited at some point (the
  // pipeline cannot be perfectly matched), and wall clock covers both.
  EXPECT_GT(result.map_thread.op_ns(Op::kMapIdle) +
                result.support_thread.op_ns(Op::kSupportIdle),
            0u);
  EXPECT_GT(result.wall_ns, 0u);
  EXPECT_GE(result.wall_ns, result.pipeline_wall_ns);
}

TEST(MapTask, MapThreadOpsSumToTaskWall) {
  // The map thread's op clock runs from task start to wall_ns, so its ops
  // (idle included) must add up to the task's wall time in every output
  // stage: the spill ring, FreqOpt's table in front of it, and hash mode.
  TempDir dir;
  textgen::CorpusSpec spec;
  spec.total_words = 1'000'000;  // ~3 MB of Zipf(1.0) text
  spec.vocabulary = 20'000;
  spec.seed = 11;
  const auto corpus = dir.file("zipf.txt");
  const auto stats = textgen::generate_corpus(spec, corpus.string());
  ASSERT_GT(stats.bytes, 2'500'000u);
  for (const char* cell : {"sort", "freq", "hash"}) {
    SCOPED_TRACE(cell);
    auto config = base_config(dir, io::InputSplit{corpus.string(), 0,
                                                  stats.bytes});
    config.num_partitions = 4;
    config.spill_buffer_bytes = 1u << 20;
    config.scratch_dir = dir.file(std::string("scratch-") + cell);
    if (std::string_view(cell) == "freq") {
      config.freqbuf.enabled = true;
      config.freqbuf.top_k = 250;
      config.freqbuf.sampling_fraction = 0.01;
      config.freqbuf.share_across_tasks = false;
      config.freq_table_budget_bytes = config.spill_buffer_bytes * 3 / 10;
    } else if (std::string_view(cell) == "hash") {
      config.combine_mode = CombineMode::kHash;
    }
    const auto result = run_map_task(config);
    const double ops = static_cast<double>(
        result.map_thread.total_ns(/*include_idle=*/true));
    const double wall = static_cast<double>(result.wall_ns);
    EXPECT_NEAR(ops / wall, 1.0, 0.01)
        << "ops " << ops * 1e-6 << " ms, wall " << wall * 1e-6 << " ms";
  }
}

}  // namespace
}  // namespace textmr::mr
