#include "mr/spill_sorter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace textmr::mr {
namespace {

/// ValueStream over a run [begin, end) of sorted RecordRefs sharing a key.
class RefValueStream final : public ValueStream {
 public:
  RefValueStream(const RecordRef* begin, const RecordRef* end)
      : it_(begin), end_(end) {}

  std::optional<std::string_view> next() override {
    if (it_ == end_) return std::nullopt;
    return (it_++)->value();
  }

 private:
  const RecordRef* it_;
  const RecordRef* end_;
};

/// Sink appending combiner output to the run writer under a fixed
/// (partition, key); enforces the key-preserving combiner contract.
class CombineToRunSink final : public EmitSink {
 public:
  CombineToRunSink(io::SpillRunWriter& writer, std::uint32_t partition,
                   std::string_view expected_key)
      : writer_(writer), partition_(partition), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_,
                 "combiner must be key-preserving (spill path)");
    writer_.append(partition_, key, value);
    ++records_;
  }

  std::uint64_t records() const { return records_; }

 private:
  io::SpillRunWriter& writer_;
  std::uint32_t partition_;
  std::string_view expected_key_;
  std::uint64_t records_ = 0;
};

}  // namespace

io::SpillRunInfo sort_and_spill(Spill& spill, Reducer* combiner,
                                std::string_view run_path,
                                std::uint32_t num_partitions,
                                TaskMetrics& metrics,
                                obs::TraceBuffer* trace) {
  TEXTMR_FAILPOINT("support.sort");
  {
    obs::SpanTimer sort_span(trace, "spill", "spill_sort");
    sort_span.arg("records", static_cast<double>(spill.records.size()));
    OpScope sort(metrics, Op::kSort);
    // record_ref_less decides almost every text-key pair on the
    // denormalized 8-byte prefix without touching ring memory.
    std::sort(spill.records.begin(), spill.records.end(), record_ref_less);
  }

  obs::SpanTimer write_span(trace, "spill", "spill_write");
  OpScope write(metrics, Op::kSpillWrite);
  const std::uint64_t combine_before = metrics.op_ns(Op::kCombine);

  io::SpillRunWriter writer(std::string(run_path), num_partitions);
  // Records are already framed in the ring, so uncombined records are
  // written as verbatim frame blits.

  const RecordRef* const data = spill.records.data();
  const std::size_t n = spill.records.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && data[j].partition == data[i].partition &&
           record_key_equal(data[j], data[i])) {
      ++j;
    }
    if (combiner != nullptr && j - i > 1) {
      OpScope combine(metrics, Op::kCombine);
      RefValueStream values(data + i, data + j);
      CombineToRunSink sink(writer, data[i].partition, data[i].key());
      combiner->reduce(data[i].key(), values, sink);
    } else {
      for (std::size_t r = i; r < j; ++r) {
        writer.append_frame(data[r].partition, data[r].frame_view());
      }
    }
    i = j;
  }

  auto info = writer.finish();
  write_span.arg("records", static_cast<double>(info.records));
  write_span.arg("bytes", static_cast<double>(info.bytes));
  write_span.arg("combine_ms",
                 static_cast<double>(metrics.op_ns(Op::kCombine) -
                                     combine_before) *
                     1e-6);
  metrics.spilled_records += info.records;
  metrics.spilled_bytes += info.bytes;
  metrics.spill_count += 1;
  return info;
}

}  // namespace textmr::mr
