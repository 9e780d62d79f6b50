#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "io/record.hpp"

namespace textmr::io {

/// On-disk format for one sorted run produced by a spill (or by the final
/// map-side merge). Records are grouped by partition, and within each
/// partition sorted by key — the invariant the shuffle and merge phases
/// rely on.
///
/// Layout:
///   record stream:  per record  [varint klen][varint vlen][key][value]
///   footer:         per partition [fixed64 offset][fixed64 bytes][fixed64 count]
///                   [fixed32 num_partitions][fixed32 magic]
///
/// Varint framing is the only record framing. Readers bound the key and
/// the value sizes one at a time against the bytes that remain, so a
/// corrupt header is a FormatError, never an out-of-range view.
///
/// `SpillFormat` survives only as the type of two fields that the whole-job
/// benchmark still assigns (`JobSpec::spill_format`,
/// `ShuffleServer::Options::spill_format`); no code in `src/` reads it.
enum class SpillFormat : std::uint8_t { kCompactVarint };

struct PartitionExtent {
  std::uint64_t offset = 0;  // byte offset of first record
  std::uint64_t bytes = 0;   // total record-stream bytes
  std::uint64_t records = 0;
};

struct SpillRunInfo {
  std::string path;
  std::uint64_t bytes = 0;    // record-stream bytes (excludes footer)
  std::uint64_t records = 0;
  std::vector<PartitionExtent> partitions;
};

/// Upper bound on the frame header (two 10-byte varints); callers
/// encoding into raw storage must have at least this much room.
inline constexpr std::size_t kMaxFrameHeaderBytes = 20;

/// Decoded frame header of the record at the start of a byte range.
struct FrameHeader {
  std::uint32_t key_size = 0;
  std::uint32_t value_size = 0;
  std::uint16_t header_size = 0;  // bytes before the key
};

/// Encodes the frame header for a (key_size, value_size) record into
/// `dest` (which must have room for kMaxFrameHeaderBytes); returns the
/// header size. The full frame is [header][key][value] — exactly the
/// record stream layout above, so frames built in memory can be written
/// to a run file verbatim (SpillRunWriter::append_frame).
std::size_t encode_frame_header(char* dest, std::size_t key_size,
                                std::size_t value_size);

/// Decodes the frame header at the start of `data`, validating that the
/// whole framed record fits inside `data`. Throws FormatError otherwise.
FrameHeader decode_frame_header(std::string_view data);

/// Sequential writer. `append` must be called with nondecreasing partition
/// ids; key order within a partition is the caller's responsibility (the
/// spill sorter guarantees it).
class SpillRunWriter {
 public:
  SpillRunWriter(std::string path, std::uint32_t num_partitions);
  ~SpillRunWriter();

  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  void append(std::uint32_t partition, std::string_view key,
              std::string_view value);

  /// Appends one record that is already framed (a blit — no re-encoding).
  /// The spill path uses this to write ring records byte-for-byte as they
  /// already sit in memory.
  void append_frame(std::uint32_t partition, std::string_view frame);

  /// Writes the footer and closes the file. Must be called exactly once.
  SpillRunInfo finish();

 private:
  void flush_buffer();

  std::string path_;
  std::FILE* file_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  std::int64_t current_partition_ = -1;
  std::vector<PartitionExtent> partitions_;
  bool finished_ = false;
};

/// Streaming cursor over one partition's records in a run file. Each cursor
/// owns an independent file handle, so many cursors (k-way merge inputs)
/// can be open on the same run.
class RunCursor {
 public:
  RunCursor(const std::string& path, const PartitionExtent& extent);
  ~RunCursor();

  RunCursor(const RunCursor&) = delete;
  RunCursor& operator=(const RunCursor&) = delete;
  RunCursor(RunCursor&&) noexcept;

  /// Next record, or nullopt at the end of the partition. The view is
  /// valid until the next call.
  std::optional<RecordView> next() TEXTMR_LIFETIME_BOUND;

  std::uint64_t bytes_read() const { return bytes_consumed_; }

 private:
  // Buffers `needed` bytes past pos_, or every unread byte if fewer remain.
  void ensure(std::size_t needed);

  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::uint64_t remaining_bytes_ = 0;   // record-stream bytes not yet buffered
  std::uint64_t remaining_records_ = 0;
  std::uint64_t bytes_consumed_ = 0;
};

/// Opens a run file's footer.
class SpillRunReader {
 public:
  explicit SpillRunReader(std::string path);

  std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }
  const PartitionExtent& extent(std::uint32_t partition) const
      TEXTMR_LIFETIME_BOUND;

  /// Cursor over one partition.
  RunCursor open(std::uint32_t partition) const;

  /// Reads one partition's whole record stream in a single bulk read.
  /// The returned bytes are framed records; decode them in
  /// place with mr::index_frames for a copy-free record index (the
  /// reduce-side shuffle path).
  std::string read_partition(std::uint32_t partition) const;

 private:
  std::string path_;
  std::vector<PartitionExtent> partitions_;
};

/// Appends one framed record ([header][key][value]) to `out`.
void encode_record(std::string& out, std::string_view key,
                   std::string_view value);

/// Size in bytes `encode_record` would produce.
std::size_t encoded_record_size(std::size_t key_size, std::size_t value_size);

}  // namespace textmr::io
