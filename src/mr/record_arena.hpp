#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "io/spill_file.hpp"

namespace textmr::mr {

/// First 8 key bytes, big-endian, zero-padded. Because the load is
/// big-endian, integer comparison of two prefixes orders them exactly like
/// lexicographic comparison of the first 8 key bytes; a zero pad ranks a
/// short key before any longer key it prefixes. When two prefixes are
/// *equal* nothing is decided (the short-key pad is indistinguishable from
/// embedded NULs) and the caller must fall back to a full compare — see
/// record_ref_less.
inline std::uint64_t key_prefix8(std::string_view key) {
  std::uint64_t prefix = 0;
  const std::size_t n = key.size() < 8 ? key.size() : 8;
  for (std::size_t i = 0; i < n; ++i) {
    prefix |= static_cast<std::uint64_t>(static_cast<unsigned char>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

/// A reference to one *framed* record — [header][key][value], the spill
/// file's record layout — living in storage owned by someone else (the
/// spill ring, a RecordArena, or a bulk-read partition buffer). Valid
/// until that storage is released. The key prefix and sizes are denormalized here so the sort
/// comparator touches record bytes only on prefix ties (DESIGN.md §8).
struct RecordRef {
  const char* frame;         // start of the framed record
  std::uint64_t key_prefix;  // key_prefix8(key())
  std::uint32_t key_size;
  std::uint32_t value_size;
  std::uint32_t partition;
  std::uint16_t header_size;  // frame bytes before the key

  std::string_view key() const { return {frame + header_size, key_size}; }
  std::string_view value() const {
    return {frame + header_size + key_size, value_size};
  }
  std::size_t frame_bytes() const {
    return static_cast<std::size_t>(header_size) + key_size + value_size;
  }
  std::string_view frame_view() const { return {frame, frame_bytes()}; }
};

/// Spill-path record order: (partition, key). The prefix comparison
/// resolves almost every pair for text keys without touching the frames.
inline bool record_ref_less(const RecordRef& a, const RecordRef& b) {
  if (a.partition != b.partition) return a.partition < b.partition;
  if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
  return a.key() < b.key();
}

/// Key equality for grouping sorted refs. Keys of <= 8 bytes are decided
/// by (size, prefix) alone.
inline bool record_key_equal(const RecordRef& a, const RecordRef& b) {
  if (a.key_size != b.key_size || a.key_prefix != b.key_prefix) return false;
  if (a.key_size <= 8) return true;
  return std::memcmp(a.frame + a.header_size + 8, b.frame + b.header_size + 8,
                     a.key_size - 8) == 0;
}

/// Append-only arena of framed records with stable addresses: records are
/// encoded once into chunked storage and referenced through RecordRefs,
/// so sorting, combining and writing never copy key/value bytes again.
/// Used by the map-side hash-combine shards, the test spill builders and
/// the record-path benchmarks; the map-side ring (SpillBuffer) implements the
/// same frame layout with bounded circular storage instead.
class RecordArena {
 public:
  explicit RecordArena(std::size_t chunk_bytes = 1u << 18)
      : chunk_bytes_(chunk_bytes) {}

  const RecordRef& append(std::uint32_t partition, std::string_view key,
                          std::string_view value) TEXTMR_LIFETIME_BOUND;

  const std::vector<RecordRef>& records() const TEXTMR_LIFETIME_BOUND {
    return records_;
  }
  std::vector<RecordRef>& records() TEXTMR_LIFETIME_BOUND {
    return records_;  // sortable in place
  }
  std::size_t size() const { return records_.size(); }
  std::uint64_t payload_bytes() const { return payload_bytes_; }

  /// Forgets all records but keeps the chunk storage for reuse, so a
  /// cleared arena refills without heap allocations.
  void clear();

 private:
  char* allocate(std::size_t bytes);

  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_chunk_ = 0;  // chunks_[active_chunk_] is being filled
  std::size_t chunk_used_ = 0;
  std::vector<RecordRef> records_;
  std::uint64_t payload_bytes_ = 0;
};

/// Decodes a partition's record-stream bytes (as returned by
/// SpillRunReader::read_partition) into RecordRefs pointing *into* `data`
/// — the zero-copy half of the shuffle. `data` must stay alive and
/// unmoved while the refs are used. Throws FormatError on a malformed
/// stream.
std::vector<RecordRef> index_frames(std::string_view data
                                        TEXTMR_LIFETIME_BOUND,
                                    std::uint32_t partition);

}  // namespace textmr::mr
