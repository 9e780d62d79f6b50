#include "mr/hash_combine.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

// Value chain block layout inside Shard::values (offset-addressed so heap
// growth never invalidates a reference): [u32 next][u32 size][u32 cap]
// [cap bytes]. Offsets rather than pointers are the point — the decoder-
// bounds and view-escape rules in tools/check treat pointers held across
// arena growth as errors (see tools/check/corpus/hash_combine.cpp).
constexpr std::size_t kBlockHeader = 12;

inline std::uint32_t load_u32(const std::vector<char>& heap,
                              std::size_t offset) {
  TEXTMR_CHECK(offset + sizeof(std::uint32_t) <= heap.size(),
               "value-heap offset out of bounds");
  std::uint32_t v;
  std::memcpy(&v, heap.data() + offset, sizeof(v));
  return v;
}

inline void store_u32(std::vector<char>& heap, std::size_t offset,
                      std::uint32_t v) {
  TEXTMR_CHECK(offset + sizeof(v) <= heap.size(),
               "value-heap offset out of bounds");
  std::memcpy(heap.data() + offset, &v, sizeof(v));
}

inline void store_bytes(std::vector<char>& heap, std::size_t offset,
                        std::string_view bytes) {
  TEXTMR_CHECK(offset + bytes.size() <= heap.size(),
               "value-heap write out of bounds");
  std::memcpy(heap.data() + offset, bytes.data(), bytes.size());
}

/// Appends heap[offset, offset + size) to `out`.
inline void append_bytes(std::vector<char>& out, const std::vector<char>& heap,
                         std::size_t offset, std::size_t size) {
  TEXTMR_CHECK(offset + size <= heap.size(), "value-heap read out of bounds");
  out.insert(out.end(), heap.data() + offset, heap.data() + offset + size);
}

inline std::string_view block_value(const std::vector<char>& heap,
                                    std::uint32_t offset) {
  const std::uint32_t size = load_u32(heap, offset + 4);
  TEXTMR_CHECK(offset + kBlockHeader + size <= heap.size(),
               "value-heap block overruns the heap");
  return {heap.data() + offset + kBlockHeader, size};
}

// Staged values, and the combiner's input and output, are
// [u32 len][len bytes] frames. In a head block's staged region the
// length's top bit marks a value the combiner produced (a compacted
// batch); the frames after the last marked one are raw hits.
constexpr std::size_t kFrameHeader = 4;
constexpr std::uint32_t kCombinedBit = 0x80000000u;

inline std::uint32_t frame_size(std::string_view value) {
  TEXTMR_CHECK(value.size() < kCombinedBit, "hash-combine value too large");
  return static_cast<std::uint32_t>(kFrameHeader + value.size());
}

inline void append_frame(std::vector<char>& frames, std::string_view value) {
  const std::size_t offset = frames.size();
  frames.resize(offset + frame_size(value));
  store_u32(frames, offset, static_cast<std::uint32_t>(value.size()));
  store_bytes(frames, offset + kFrameHeader, value);
}

/// The value of the frame at `offset`, which must end by `end`.
inline std::string_view frame_value(const std::vector<char>& frames,
                                    std::size_t offset, std::size_t end) {
  const std::uint32_t size = load_u32(frames, offset) & ~kCombinedBit;
  TEXTMR_CHECK(offset + kFrameHeader + size <= end && end <= frames.size(),
               "hash-combine frame overruns its region");
  return {frames.data() + offset + kFrameHeader, size};
}

/// ValueStream over a snapshot of frames. The views it hands out stay
/// valid for the whole reduce() call: the snapshot is not written until
/// the combiner returns.
class FrameValueStream final : public ValueStream {
 public:
  explicit FrameValueStream(const std::vector<char>& frames)
      : frames_(frames) {}

  std::optional<std::string_view> next() override {
    if (cursor_ == frames_.size()) return std::nullopt;
    const std::string_view value =
        frame_value(frames_, cursor_, frames_.size());
    cursor_ += kFrameHeader + value.size();
    return value;
  }

 private:
  const std::vector<char>& frames_;
  std::size_t cursor_ = 0;
};

/// Sink appending combiner output to a frame buffer.
class FrameSink final : public EmitSink {
 public:
  FrameSink(std::vector<char>& frames, std::string_view expected_key)
      : frames_(frames), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_,
                 "combiner must be key-preserving (hash-combine path)");
    append_frame(frames_, value);
  }

 private:
  std::vector<char>& frames_;
  std::string_view expected_key_;
};

/// Shard from the key hash's high bits, slot index (inside hash_insert)
/// from a remix of the low: using the same bits for both would leave every
/// shard's table clustered in 1/P of its slots.
inline std::uint32_t shard_of(std::uint64_t key_hash) {
  return static_cast<std::uint32_t>((key_hash >> 32) %
                                    HashCombineShards::kShards);
}

inline std::uint32_t shard_of(std::string_view key) {
  return shard_of(hash_key(key));
}

inline std::size_t filter_hash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

HashCombineShards::HashCombineShards(
    const HashCombineConfig& config, Reducer* combiner,
    std::function<std::string(std::uint64_t)> next_run_path,
    TaskMetrics& metrics, obs::TraceBuffer* trace)
    : config_(config),
      combiner_(combiner),
      next_run_path_(std::move(next_run_path)),
      metrics_(metrics),
      trace_(trace) {
  watermark_ = config_.memory_budget_bytes / kShards;
  shards_.resize(kShards);
}

HashCombineShards::~HashCombineShards() = default;

void HashCombineShards::admit_only(std::vector<std::string> keys) {
  filtered_ = true;
  admitted_ = std::move(keys);
  std::size_t size = 16;
  while (size < 2 * admitted_.size()) size *= 2;
  admit_slots_.assign(size, 0);
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    std::size_t j = filter_hash(admitted_[i]) & (size - 1);
    while (admit_slots_[j] != 0) j = (j + 1) & (size - 1);
    admit_slots_[j] = static_cast<std::uint32_t>(i + 1);
  }
}

bool HashCombineShards::filter_contains(std::string_view key) const {
  const std::size_t mask = admit_slots_.size() - 1;
  for (std::size_t j = filter_hash(key) & mask; admit_slots_[j] != 0;
       j = (j + 1) & mask) {
    if (admitted_[admit_slots_[j] - 1] == key) return true;
  }
  return false;
}

std::size_t HashCombineShards::resident_bytes(const Shard& shard) const {
  return shard.keys.payload_bytes() + shard.values.size() +
         shard.entries.capacity() * sizeof(Entry) +
         shard.slots.size() * sizeof(std::uint32_t);
}

std::uint32_t HashCombineShards::alloc_block(Shard& shard,
                                             std::string_view value,
                                             std::size_t min_slack) {
  // Slack so counter-style combined values can grow a few digits without
  // abandoning the block.
  const std::size_t cap =
      value.size() + std::max((value.size() >> 1) + 8, min_slack);
  const std::size_t offset = shard.values.size();
  TEXTMR_CHECK(offset + kBlockHeader + cap < kNil,
               "hash-combine shard value heap overflow");
  shard.values.resize(offset + kBlockHeader + cap);
  store_u32(shard.values, offset, kNil);
  store_u32(shard.values, offset + 4,
            static_cast<std::uint32_t>(value.size()));
  store_u32(shard.values, offset + 8, static_cast<std::uint32_t>(cap));
  std::memcpy(shard.values.data() + offset + kBlockHeader, value.data(),
              value.size());
  return static_cast<std::uint32_t>(offset);
}

void HashCombineShards::grow_slots(Shard& shard) {
  const std::size_t size =
      shard.slots.empty() ? 64 : shard.slots.size() * 2;
  shard.slots.assign(size, 0);
  const std::uint32_t mask = static_cast<std::uint32_t>(size - 1);
  for (std::size_t e = 0; e < shard.entries.size(); ++e) {
    std::uint32_t j = shard.entries[e].hash & mask;
    while (shard.slots[j] != 0) j = (j + 1) & mask;
    shard.slots[j] = static_cast<std::uint32_t>(e + 1);
  }
}

void HashCombineShards::gather_chain(const Shard& shard, const Entry& entry,
                                     std::uint32_t staged_end) {
  std::uint32_t cursor = entry.value_head;
  if (cursor == kNil) return;
  const std::string_view head = block_value(shard.values, cursor);
  append_frame(combine_in_, head);
  // The staged region already is a run of frames; copy it as it is.
  TEXTMR_CHECK(head.size() + staged_end <= load_u32(shard.values, cursor + 8),
               "staged region overruns its block");
  append_bytes(combine_in_, shard.values, cursor + kBlockHeader + head.size(),
               staged_end);
  for (cursor = load_u32(shard.values, cursor); cursor != kNil;
       cursor = load_u32(shard.values, cursor)) {
    append_frame(combine_in_, block_value(shard.values, cursor));
  }
}

void HashCombineShards::run_combiner(std::string_view key) {
  combine_out_.clear();
  FrameValueStream values(combine_in_);
  FrameSink sink(combine_out_, key);
  combiner_->reduce(key, values, sink);
}

void HashCombineShards::place_combined(Shard& shard, Entry& entry,
                                       bool keep_slack) {
  std::uint32_t head = entry.value_head;
  entry.value_head = entry.value_tail = kNil;
  entry.staged = 0;
  // On a hit the head must keep room to stage the next batch: an eighth of
  // its size, so the next full combine, which re-reads the head, waits for
  // a batch that is a fixed fraction of it. A value the combine did not
  // grow (a counter) keeps at least kHitSlack, so it stages a dozen hits
  // per combine instead of one.
  std::size_t head_slack = 0;
  if (keep_slack && !combine_out_.empty()) {
    const std::size_t size =
        frame_value(combine_out_, 0, combine_out_.size()).size();
    head_slack = size / 8;
    if (head != kNil && size <= load_u32(shard.values, head + 4)) {
      head_slack = std::max(head_slack, kHitSlack);
    }
  }
  // A combiner may legitimately emit nothing for a key; the entry then
  // holds no values and the flush skips it (exactly what the sort path
  // does when a combined group produces no records).
  for (std::size_t at = 0; at < combine_out_.size();) {
    const std::string_view value =
        frame_value(combine_out_, at, combine_out_.size());
    at += kFrameHeader + value.size();
    if (head != kNil) {
      // The first value overwrites the old head in place if it fits with
      // its slack; the old chain tail (if any) becomes heap garbage until
      // the next flush reclaims the shard.
      const std::size_t cap = load_u32(shard.values, head + 8);
      if (value.size() + head_slack <= cap) {
        store_u32(shard.values, head, kNil);
        store_u32(shard.values, head + 4,
                  static_cast<std::uint32_t>(value.size()));
        store_bytes(shard.values, head + kBlockHeader, value);
        entry.value_head = entry.value_tail = head;
        head = kNil;
        continue;
      }
      head = kNil;
    }
    const std::uint32_t block = alloc_block(
        shard, value, entry.value_tail == kNil ? head_slack : 0);
    if (entry.value_tail == kNil) {
      entry.value_head = entry.value_tail = block;
    } else {
      store_u32(shard.values, entry.value_tail, block);
      entry.value_tail = block;
    }
  }
}

void HashCombineShards::absorb(Shard& shard, Entry& entry,
                               std::string_view value) {
  const std::string_view key = entry.key_ref.key();
  const std::uint32_t head = entry.value_head;
  combine_in_.clear();
  // Stage only behind a single-block chain: after a multi-value combine
  // the staged values would sit between the chain's values, out of
  // arrival order.
  if (head != kNil && head == entry.value_tail) {
    const std::size_t size = load_u32(shard.values, head + 4);
    const std::size_t cap = load_u32(shard.values, head + 8);
    TEXTMR_CHECK(size + entry.staged <= cap,
                 "staged region overruns its block");
    const std::size_t region = head + kBlockHeader + size;
    if (size + entry.staged + frame_size(value) <= cap) {
      // Stage: the hit costs one copy; the combiner runs later, in batch.
      store_u32(shard.values, region + entry.staged,
                static_cast<std::uint32_t>(value.size()));
      store_bytes(shard.values, region + entry.staged + kFrameHeader, value);
      entry.staged += frame_size(value);
      return;
    }
    // The slack is full. Raw hits start after the last combined frame.
    std::uint32_t raw = 0;
    std::uint32_t at = 0;
    while (at < entry.staged) {
      const std::uint32_t len = load_u32(shard.values, region + at);
      at += static_cast<std::uint32_t>(kFrameHeader) + (len & ~kCombinedBit);
      if ((len & kCombinedBit) != 0) raw = at;
    }
    TEXTMR_CHECK(at == entry.staged, "staged region is not whole frames");
    // A head no larger than the raw hits costs less to re-read than a
    // compaction saves (counters stay a few bytes), so compact only behind
    // a larger one.
    if (raw < entry.staged && entry.staged - raw < size) {
      // Compact the raw hits and the incoming value into combined frames
      // in their place, without re-reading the head or earlier batches.
      append_bytes(combine_in_, shard.values, region + raw,
                   entry.staged - raw);
      append_frame(combine_in_, value);
      run_combiner(key);
      if (!combine_out_.empty() && size + raw + combine_out_.size() <= cap) {
        for (std::size_t out = 0; out < combine_out_.size();) {
          const std::string_view combined =
              frame_value(combine_out_, out, combine_out_.size());
          store_u32(shard.values, region + raw + out,
                    static_cast<std::uint32_t>(combined.size()) |
                        kCombinedBit);
          store_bytes(shard.values, region + raw + out + kFrameHeader,
                      combined);
          out += kFrameHeader + combined.size();
        }
        entry.staged = raw + static_cast<std::uint32_t>(combine_out_.size());
        return;
      }
      // No room for the output, or nothing emitted (which the head must
      // still be combined with): combine the head, the earlier batches
      // and this output.
      combine_in_.clear();
      gather_chain(shard, entry, raw);
      combine_in_.insert(combine_in_.end(), combine_out_.begin(),
                         combine_out_.end());
      run_combiner(key);
      place_combined(shard, entry, /*keep_slack=*/true);
      return;
    }
  }
  gather_chain(shard, entry, entry.staged);
  append_frame(combine_in_, value);
  run_combiner(key);
  place_combined(shard, entry, /*keep_slack=*/true);
}

void HashCombineShards::hash_insert(Shard& shard, std::uint64_t key_hash,
                                    std::uint32_t partition,
                                    std::string_view key,
                                    std::string_view value) {
  if (shard.entries.size() + 1 > shard.slots.size() * 7 / 10) {
    grow_slots(shard);
  }
  // The slot hash remixes the key hash with the partition: entries are
  // keyed by (partition, key) — the skew partitioner round-robins one
  // split key across partitions, and those streams must combine apart.
  const std::uint32_t slot_hash = static_cast<std::uint32_t>(
      mix64(key_hash + partition * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t prefix = key_prefix8(key);
  const std::uint32_t mask = static_cast<std::uint32_t>(shard.slots.size() - 1);
  std::uint32_t j = slot_hash & mask;
  while (true) {
    const std::uint32_t idx = shard.slots[j];
    if (idx == 0) break;
    Entry& entry = shard.entries[idx - 1];
    // Cheap rejects first (hash, partition, size, 8-byte prefix); the
    // full-key compare confirms — equal prefixes with differing tails
    // are a first-class case (tests/test_hash_combine.cpp).
    if (entry.hash == slot_hash && entry.key_ref.partition == partition &&
        entry.key_ref.key_size == key.size() &&
        entry.key_ref.key_prefix == prefix && entry.key_ref.key() == key) {
      ++metrics_.hash_combine_hits;
      if (combiner_ != nullptr) {
        absorb(shard, entry, value);
      } else {
        const std::uint32_t block = alloc_block(shard, value);
        if (entry.value_tail == kNil) {
          entry.value_head = entry.value_tail = block;
        } else {
          store_u32(shard.values, entry.value_tail, block);
          entry.value_tail = block;
        }
      }
      return;
    }
    j = (j + 1) & mask;
  }
  // New key: the frame lives in the shard's key arena (stable addresses);
  // the RecordRef is copied out *by value* — records() can reallocate on
  // the next append, so holding the returned reference is the lifetime
  // bug the static analyzer hunts (DESIGN.md §15).
  Entry entry;
  entry.key_ref = shard.keys.append(partition, key, std::string_view(""));
  entry.hash = slot_hash;
  entry.value_head = entry.value_tail = alloc_block(shard, value);
  shard.entries.push_back(entry);
  shard.slots[j] = static_cast<std::uint32_t>(shard.entries.size());
}

void HashCombineShards::demoted_insert(Shard& shard, std::uint32_t partition,
                                       std::string_view key,
                                       std::string_view value) {
  shard.spill.append(partition, key, value);
  if (shard.spill.payload_bytes() >= watermark_) {
    flush_demoted(shard, /*final=*/false);
  }
}

void HashCombineShards::insert(std::uint32_t partition, std::string_view key,
                               std::string_view value) {
  const std::uint64_t h = hash_key(key);
  const std::uint32_t shard_index = shard_of(h);
  Shard& shard = shards_[shard_index];
  if (shard.demoted) {
    demoted_insert(shard, partition, key, value);
    return;
  }
  hash_insert(shard, h, partition, key, value);
  if (resident_bytes(shard) > watermark_) {
    flush_shard(shard_index);
  }
}

void HashCombineShards::radix_sort(std::vector<FlushItem>& items) {
  const std::size_t n = items.size();
  if (n < 2) return;
  flush_scratch_.resize(n);
  FlushItem* a = items.data();
  FlushItem* b = flush_scratch_.data();
  std::array<std::uint32_t, 257> count;

  // Stable LSD over the big-endian key prefix: least-significant byte
  // first, so the final pass (most-significant = first key byte) owns the
  // order and earlier passes break its ties.
  for (unsigned shift = 0; shift < 64; shift += 8) {
    count.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      ++count[((a[i].prefix >> shift) & 0xff) + 1];
    }
    // Short text keys zero-pad the low prefix bytes; skip uniform passes.
    bool uniform = false;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      if (count[bucket] == n) {
        uniform = true;
        break;
      }
      if (count[bucket] != 0) break;
    }
    if (uniform) continue;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      count[bucket] += count[bucket - 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      b[count[(a[i].prefix >> shift) & 0xff]++] = a[i];
    }
    std::swap(a, b);
  }

  // Most-significant pass: the partition (runs group by partition first).
  part_count_.assign(config_.num_partitions + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++part_count_[a[i].partition + 1];
  for (std::size_t p = 1; p <= config_.num_partitions; ++p) {
    part_count_[p] += part_count_[p - 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[part_count_[a[i].partition]++] = a[i];
  }
  std::swap(a, b);
  if (a != items.data()) {
    std::memcpy(items.data(), a, n * sizeof(FlushItem));
  }

  // Fallback comparison on (partition, prefix) ties: equal prefixes decide
  // nothing for >8-byte keys or zero-padded short keys (record_arena.hpp),
  // so those spans fall back to the full-key compare.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && items[j].partition == items[i].partition &&
           items[j].prefix == items[i].prefix) {
      ++j;
    }
    if (j - i > 1) {
      std::sort(items.begin() + static_cast<std::ptrdiff_t>(i),
                items.begin() + static_cast<std::ptrdiff_t>(j),
                [this](const FlushItem& x, const FlushItem& y) {
                  return shards_[x.shard].entries[x.entry].key_ref.key() <
                         shards_[y.shard].entries[y.entry].key_ref.key();
                });
    }
    i = j;
  }
}

void HashCombineShards::collect_items(std::uint32_t shard_index) {
  Shard& shard = shards_[shard_index];
  // One clock pair per shard, not per entry: the combine of staged values
  // is the flush's share of kCombine, as in sort_and_spill. Without a
  // combiner, collecting the items is the sort's first step.
  OpScope scope(metrics_, combiner_ != nullptr ? Op::kCombine : Op::kSort);
  for (std::size_t e = 0; e < shard.entries.size(); ++e) {
    Entry& entry = shard.entries[e];
    if (entry.staged != 0) {
      combine_in_.clear();
      gather_chain(shard, entry, entry.staged);
      run_combiner(entry.key_ref.key());
      place_combined(shard, entry, /*keep_slack=*/false);
    }
    if (entry.value_head == kNil) continue;
    flush_items_.push_back(FlushItem{entry.key_ref.key_prefix,
                                     entry.key_ref.partition,
                                     static_cast<std::uint32_t>(e),
                                     shard_index});
  }
}

void HashCombineShards::write_run(obs::SpanTimer& span) {
  OpScope scope(metrics_, Op::kSort);
  radix_sort(flush_items_);
  metrics_.switch_op(Op::kSpillWrite);

  io::SpillRunWriter writer(next_run_path_(run_sequence_++),
                            config_.num_partitions);
  for (const FlushItem& item : flush_items_) {
    const Shard& shard = shards_[item.shard];
    const Entry& entry = shard.entries[item.entry];
    std::uint32_t cursor = entry.value_head;
    while (cursor != kNil) {
      writer.append(item.partition, entry.key_ref.key(),
                    block_value(shard.values, cursor));
      cursor = load_u32(shard.values, cursor);
    }
  }
  io::SpillRunInfo info = writer.finish();
  span.arg("records", static_cast<double>(info.records));

  metrics_.spilled_records += info.records;
  metrics_.spilled_bytes += info.bytes;
  metrics_.spill_count += 1;
  runs_.push_back(std::move(info));
}

void HashCombineShards::flush_shard(std::uint32_t shard_index) {
  Shard& shard = shards_[shard_index];
  obs::SpanTimer span(trace_, "spill", "hash_flush");
  span.arg("shard", static_cast<double>(shard_index));
  span.arg("entries", static_cast<double>(shard.entries.size()));

  flush_items_.clear();
  collect_items(shard_index);
  write_run(span);
  ++metrics_.hash_combine_flushes;
  ++shard.flush_count;

  // Reset the shard but keep every allocation (arena chunks, entry and
  // slot capacity, the value heap) — refills are allocation-free.
  shard.entries.clear();
  shard.keys.clear();
  shard.values.clear();
  std::fill(shard.slots.begin(), shard.slots.end(), 0);

  if (shard.flush_count >= kDemoteAfterFlushes) {
    // Persistent pressure: this keyspace does not fit the watermark, so
    // hashing only adds probe cost on top of the same spill volume. Fall
    // back to the proven sort-spill path for the rest of the task. Behind
    // an admission filter that path is the caller's (the spill ring): the
    // shard's keys leave the filter rather than start a second sort-spill
    // path on the map thread.
    if (filtered_) {
      std::erase_if(admitted_, [shard_index](const std::string& key) {
        return shard_of(key) == shard_index;
      });
      admit_only(std::move(admitted_));
    } else {
      shard.demoted = true;
    }
    ++metrics_.hash_combine_demotions;
    obs::record_instant(trace_, "spill", "hash_demote", "shard",
                        static_cast<double>(shard_index), "flushes",
                        static_cast<double>(shard.flush_count));
  }
}

void HashCombineShards::flush_demoted(Shard& shard, bool final) {
  if (shard.spill.size() == 0) return;
  // The demoted path *is* the existing sort path: build a Spill over the
  // arena's refs and reuse sort_and_spill (same sort, same combiner
  // grouping, same frame blits) so pressured shards write byte-identical
  // runs to what the ring pipeline would have produced.
  Spill spill;
  spill.records = shard.spill.records();
  spill.data_bytes = shard.spill.payload_bytes();
  spill.sequence = run_sequence_;
  spill.is_final = final;
  io::SpillRunInfo info =
      sort_and_spill(spill, combiner_, next_run_path_(run_sequence_++),
                     config_.num_partitions, metrics_, trace_);
  runs_.push_back(std::move(info));
  shard.spill.clear();
}

std::vector<io::SpillRunInfo> HashCombineShards::finish() {
  TEXTMR_CHECK(!finished_, "hash-combine table finished twice");
  finished_ = true;

  for (Shard& shard : shards_) {
    if (shard.demoted) flush_demoted(shard, /*final=*/true);
  }

  // Residue fast path: all live shards' entries globally sorted into ONE
  // run. In the common no-pressure case this is the task's only run, so
  // the final merge degenerates to a rename.
  flush_items_.clear();
  for (std::uint32_t s = 0; s < kShards; ++s) collect_items(s);
  if (!flush_items_.empty()) {
    obs::SpanTimer span(trace_, "spill", "hash_flush");
    span.arg("entries", static_cast<double>(flush_items_.size()));
    span.arg("final", 1.0);
    write_run(span);
  }
  return runs_;
}

}  // namespace textmr::mr
