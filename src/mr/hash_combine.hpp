#pragma once

// Map-side sharded hash-combine (DESIGN.md §15): the one map-side
// combining table, Metis-style. In hash combine mode it takes the whole
// keyspace; with frequency-buffering on the sort path (paper §III-A,
// DESIGN.md §5) its admission filter is the frozen top-k key set and the
// spill ring takes every declined record. Each map task owns P shard
// hash tables; a record is routed to a shard by key hash (open
// addressing, 8-byte big-endian key-prefix confirm, then full key).
// Sorting is deferred to flush time: a stable LSD radix pass over
// (partition, key prefix) with a full-key fallback comparison on prefix
// ties — exactly record_ref_less order, so the emitted runs are
// indistinguishable from sort-spill runs.
//
// Staged, batched combine: a hit does not run the combiner. Its value is
// staged as [u32 len][bytes] in the slack of the key's head block. When
// the slack is full, the combiner compacts the raw staged values in
// place; once the slack holds only compacted values, it runs over the
// head, every staged value and the incoming value, and the head keeps
// (or moves to a block with) slack of an eighth of its size, and at least
// kHitSlack bytes when the combine did not grow it (a counter). Each full
// combine thus grows the head by a fixed fraction, so the combiner's
// total input per key is amortized linear in the key's values, where
// combining on every hit would be quadratic for values that grow
// (posting lists). Flushes combine whatever is staged first, so every
// run still holds one combined record per key.
//
// Memory discipline: every shard has a byte watermark (an equal share of
// the budget). Breaching it flushes the shard to a sorted combined run
// and keeps hashing; a shard that keeps breaching (kDemoteAfterFlushes)
// is *demoted* to the existing sort-spill path (RecordArena +
// sort_and_spill), so behavior under pressure is the proven baseline
// path, not a new one. Behind an admission filter that path is the
// caller's spill ring: demotion removes the shard's keys from the filter.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/record_arena.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

struct HashCombineConfig {
  /// The table's memory budget: the map task's spill_buffer_bytes in hash
  /// mode, where the table replaces the spill ring, or FreqOpt's
  /// freq_table_budget_bytes in front of the ring.
  std::size_t memory_budget_bytes = 16u << 20;
  std::uint32_t num_partitions = 1;
};

/// The per-task shard set. Single-threaded: lives on the map thread and
/// is driven from the emit sink. Flush work switches the map thread's op
/// clock (DESIGN.md §5c) to kCombine, kSort and kSpillWrite and back, so
/// a flush inside insert() leaves the caller's emit op by construction.
class HashCombineShards {
 public:
  /// Shards per task (routed on the key hash's high bits). One shard ran
  /// InvertedIndex ~8% slower than eight at the same memory (DESIGN.md
  /// §15).
  static constexpr std::uint32_t kShards = 8;
  /// Watermark breaches before a shard is demoted to the sort-spill path.
  static constexpr std::uint64_t kDemoteAfterFlushes = 4;

  /// `combiner` may be null (values chain per key instead of combining).
  /// `next_run_path` names each flushed run; `metrics` receives
  /// kSort/kCombine/kSpillWrite time, spill volume counters and the
  /// hash_combine_{hits,flushes,demotions} counts.
  HashCombineShards(const HashCombineConfig& config, Reducer* combiner,
                    std::function<std::string(std::uint64_t sequence)>
                        next_run_path,
                    TaskMetrics& metrics, obs::TraceBuffer* trace);
  ~HashCombineShards();

  HashCombineShards(const HashCombineShards&) = delete;
  HashCombineShards& operator=(const HashCombineShards&) = delete;

  /// Installs (or replaces) the admission filter: from now on admits()
  /// takes exactly `keys`. A table never given one admits every key.
  void admit_only(std::vector<std::string> keys);

  /// Whether the admission filter takes `key`; insert() is only called
  /// for keys it takes.
  bool admits(std::string_view key) const {
    return !filtered_ || filter_contains(key);
  }

  /// Routes one map-output record: staged or combined in its shard's
  /// table, or arena append when the shard is demoted. May flush.
  void insert(std::uint32_t partition, std::string_view key,
              std::string_view value);

  /// Flushes all residue and returns every run written over the task's
  /// lifetime, in write order. The common no-pressure case produces
  /// exactly one run: all shards' resident entries globally radix-sorted
  /// into a single file (no merge needed downstream).
  std::vector<io::SpillRunInfo> finish();

 private:
  struct Entry {
    RecordRef key_ref;  // frame (empty value) in the shard's key arena
    std::uint32_t hash = 0;    // low half of the slot hash
    std::uint32_t staged = 0;  // bytes staged after the head block's value
    std::uint32_t value_head = kNil;
    std::uint32_t value_tail = kNil;
  };
  static_assert(sizeof(Entry) == 48, "Entry is the per-key resident cost");

  struct Shard {
    std::vector<std::uint32_t> slots;  // entry index + 1; 0 = empty
    std::vector<Entry> entries;
    RecordArena keys;            // framed keys, stable addresses
    std::vector<char> values;    // chained value blocks (offset-addressed)
    std::uint64_t flush_count = 0;
    bool demoted = false;
    RecordArena spill;  // demoted mode: framed records for sort_and_spill
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Least staging room a head keeps after a hit whose combine did not
  /// grow it (DESIGN.md §15): a dozen staged counter hits per combine.
  static constexpr std::size_t kHitSlack = 64;

  void hash_insert(Shard& shard, std::uint64_t key_hash,
                   std::uint32_t partition, std::string_view key,
                   std::string_view value);
  void demoted_insert(Shard& shard, std::uint32_t partition,
                      std::string_view key, std::string_view value);
  /// A hit with a combiner: stage `value` in the head block's slack, or
  /// compact the staged tail, or combine the whole chain.
  void absorb(Shard& shard, Entry& entry, std::string_view value);
  /// Appends the entry's chain (head value, staged region up to
  /// `staged_end`, further blocks) to combine_in_ as frames.
  void gather_chain(const Shard& shard, const Entry& entry,
                    std::uint32_t staged_end);
  /// Runs the combiner over combine_in_; its output frames land in
  /// combine_out_.
  void run_combiner(std::string_view key);
  /// Replaces the entry's chain and staged values with combine_out_.
  /// `keep_slack` moves a head that would be left with too little slack
  /// to stage into to a fresh block.
  void place_combined(Shard& shard, Entry& entry, bool keep_slack);

  /// A block holding `value` with at least `min_slack` free bytes.
  std::uint32_t alloc_block(Shard& shard, std::string_view value,
                            std::size_t min_slack = 0);
  std::size_t resident_bytes(const Shard& shard) const;
  void grow_slots(Shard& shard);

  /// Sorts `items` into record_ref_less order: stable LSD radix over the
  /// 8-byte key prefix, a stable counting pass over the partition, then a
  /// full-key comparison fallback on equal-(partition, prefix) spans.
  struct FlushItem {
    std::uint64_t prefix;
    std::uint32_t partition;
    std::uint32_t entry;
    std::uint32_t shard;
  };
  void radix_sort(std::vector<FlushItem>& items);
  /// Combines every entry's staged values, then appends the shard's live
  /// entries (those still holding values) to flush_items_.
  void collect_items(std::uint32_t shard_index);
  /// Sorts flush_items_ and writes them as one run — the single
  /// sort-and-write path behind watermark flushes and finish()'s residue.
  void write_run(obs::SpanTimer& span);

  void flush_shard(std::uint32_t shard_index);
  void flush_demoted(Shard& shard, bool final);

  bool filter_contains(std::string_view key) const;

  HashCombineConfig config_;
  std::size_t watermark_;
  Reducer* combiner_;
  std::function<std::string(std::uint64_t)> next_run_path_;
  TaskMetrics& metrics_;
  obs::TraceBuffer* trace_;

  // The admission filter: open addressing (linear probing, at most half
  // full) over the admitted keys, looked up on every record the map task
  // offers.
  bool filtered_ = false;
  std::vector<std::string> admitted_;
  std::vector<std::uint32_t> admit_slots_;  // admitted_ index + 1; 0 = empty

  std::vector<Shard> shards_;
  std::vector<io::SpillRunInfo> runs_;
  std::uint64_t run_sequence_ = 0;
  // Combiner input and output as [u32 len][bytes] frames (reused). Input
  // is a snapshot: the output is placed into the heap only after the
  // combiner returns, so nothing it reads is overwritten under it.
  std::vector<char> combine_in_;
  std::vector<char> combine_out_;
  std::vector<FlushItem> flush_items_;      // reused across flushes
  std::vector<FlushItem> flush_scratch_;    // radix ping-pong buffer
  std::vector<std::uint32_t> part_count_;   // partition counting-sort buckets
  bool finished_ = false;
};

}  // namespace textmr::mr
