#include "io/spill_file.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/varint.hpp"

namespace textmr::io {
namespace {

constexpr std::uint32_t kMagic = 0x54585252;  // "TXRR"
constexpr std::size_t kWriteBufferBytes = 1 << 18;
constexpr std::size_t kReadChunkBytes = 1 << 16;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

char* put_raw_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Decodes the [varint klen][varint vlen] header at the start of `data` and
// checks that the whole record fits in the first `limit` bytes from there.
// `limit` may exceed data.size() when the rest of the record is not yet
// buffered (RunCursor); it is never less.
FrameHeader decode_header(std::string_view data, std::uint64_t limit) {
  std::size_t pos = 0;
  const std::uint64_t klen = textmr::get_varint(data, pos);
  const std::uint64_t vlen = textmr::get_varint(data, pos);
  // Two comparisons, not klen + vlen (which a corrupt varint could wrap).
  if (klen > limit - pos || vlen > limit - pos - klen) {
    throw FormatError("record frame exceeds available bytes");
  }
  FrameHeader header;
  header.key_size = static_cast<std::uint32_t>(klen);
  header.value_size = static_cast<std::uint32_t>(vlen);
  header.header_size = static_cast<std::uint16_t>(pos);
  return header;
}

}  // namespace

std::size_t encode_frame_header(char* dest, std::size_t key_size,
                                std::size_t value_size) {
  char* p = put_raw_varint(dest, key_size);
  p = put_raw_varint(p, value_size);
  return static_cast<std::size_t>(p - dest);
}

FrameHeader decode_frame_header(std::string_view data) {
  return decode_header(data, data.size());
}

void encode_record(std::string& out, std::string_view key,
                   std::string_view value) {
  char header[kMaxFrameHeaderBytes];
  out.append(header, encode_frame_header(header, key.size(), value.size()));
  out.append(key.data(), key.size());
  out.append(value.data(), value.size());
}

std::size_t encoded_record_size(std::size_t key_size, std::size_t value_size) {
  return varint_size(key_size) + varint_size(value_size) + key_size +
         value_size;
}

SpillRunWriter::SpillRunWriter(std::string path, std::uint32_t num_partitions)
    : path_(std::move(path)) {
  TEXTMR_CHECK(num_partitions > 0, "run file needs >= 1 partition");
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) throw IoError("cannot create run file " + path_);
  partitions_.resize(num_partitions);
  buffer_.reserve(kWriteBufferBytes + 4096);
}

SpillRunWriter::~SpillRunWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void SpillRunWriter::flush_buffer() {
  if (buffer_.empty()) return;
  std::size_t want = buffer_.size();
  if (failpoint::enabled()) {
    // "spill.write" owns a byte buffer, so it honors every action kind:
    // kShortWrite writes a prefix and lets the existing short-write check
    // below fire (like a real ENOSPC), kCorrupt flips a byte mid-buffer.
    if (const auto fault = failpoint::consume("spill.write")) {
      switch (fault->kind) {
        case failpoint::ActionKind::kThrow:
          throw failpoint::InjectedFault("spill.write");
        case failpoint::ActionKind::kShortWrite:
          want /= 2;
          break;
        case failpoint::ActionKind::kCorrupt:
          buffer_[buffer_.size() / 2] =
              static_cast<char>(buffer_[buffer_.size() / 2] ^ 0x5a);
          break;
        case failpoint::ActionKind::kDelay:
          failpoint::maybe_delay(*fault);
          break;
      }
    }
  }
  if (std::fwrite(buffer_.data(), 1, want, file_) != buffer_.size()) {
    throw IoError("short write to " + path_);
  }
  buffer_.clear();
}

void SpillRunWriter::append(std::uint32_t partition, std::string_view key,
                            std::string_view value) {
  TEXTMR_CHECK(!finished_, "append after finish");
  TEXTMR_CHECK(partition < partitions_.size(), "partition out of range");
  TEXTMR_CHECK(static_cast<std::int64_t>(partition) >= current_partition_,
               "partitions must be appended in nondecreasing order");
  if (static_cast<std::int64_t>(partition) != current_partition_) {
    current_partition_ = partition;
    partitions_[partition].offset = bytes_;
  }
  const std::size_t before = buffer_.size();
  encode_record(buffer_, key, value);
  const std::uint64_t record_bytes = buffer_.size() - before;
  bytes_ += record_bytes;
  records_ += 1;
  partitions_[partition].bytes += record_bytes;
  partitions_[partition].records += 1;
  if (buffer_.size() >= kWriteBufferBytes) flush_buffer();
}

void SpillRunWriter::append_frame(std::uint32_t partition,
                                  std::string_view frame) {
  TEXTMR_CHECK(!finished_, "append after finish");
  TEXTMR_CHECK(partition < partitions_.size(), "partition out of range");
  TEXTMR_CHECK(static_cast<std::int64_t>(partition) >= current_partition_,
               "partitions must be appended in nondecreasing order");
  if (static_cast<std::int64_t>(partition) != current_partition_) {
    current_partition_ = partition;
    partitions_[partition].offset = bytes_;
  }
  buffer_.append(frame.data(), frame.size());
  bytes_ += frame.size();
  records_ += 1;
  partitions_[partition].bytes += frame.size();
  partitions_[partition].records += 1;
  if (buffer_.size() >= kWriteBufferBytes) flush_buffer();
}

SpillRunInfo SpillRunWriter::finish() {
  TEXTMR_CHECK(!finished_, "finish called twice");
  finished_ = true;
  // Partitions that received no records still need a consistent offset:
  // point them at the position where their records would have begun.
  std::uint64_t running = 0;
  for (auto& extent : partitions_) {
    if (extent.records == 0) extent.offset = running;
    running = extent.offset + extent.bytes;
  }
  for (const auto& extent : partitions_) {
    textmr::put_fixed64(buffer_, extent.offset);
    textmr::put_fixed64(buffer_, extent.bytes);
    textmr::put_fixed64(buffer_, extent.records);
  }
  textmr::put_fixed32(buffer_, static_cast<std::uint32_t>(partitions_.size()));
  textmr::put_fixed32(buffer_, kMagic);
  flush_buffer();
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    throw IoError("close failed for " + path_);
  }
  file_ = nullptr;
  return SpillRunInfo{path_, bytes_, records_, partitions_};
}

SpillRunReader::SpillRunReader(std::string path) : path_(std::move(path)) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open run file " + path_);
  if (std::fseek(f, -8, SEEK_END) != 0) {
    std::fclose(f);
    throw FormatError("run file too small: " + path_);
  }
  char tail[8];
  if (std::fread(tail, 1, 8, f) != 8) {
    std::fclose(f);
    throw FormatError("cannot read run footer: " + path_);
  }
  std::size_t pos = 0;
  const std::string_view tail_view(tail, 8);
  const std::uint32_t num_partitions = textmr::get_fixed32(tail_view, pos);
  const std::uint32_t magic = textmr::get_fixed32(tail_view, pos);
  if (magic != kMagic) {
    std::fclose(f);
    throw FormatError("bad magic in run file " + path_);
  }
  const long footer_bytes = static_cast<long>(num_partitions) * 24 + 8;
  if (std::fseek(f, -footer_bytes, SEEK_END) != 0) {
    std::fclose(f);
    throw FormatError("run footer exceeds file size: " + path_);
  }
  std::string footer(static_cast<std::size_t>(footer_bytes) - 8, '\0');
  if (std::fread(footer.data(), 1, footer.size(), f) != footer.size()) {
    std::fclose(f);
    throw FormatError("short footer read: " + path_);
  }
  std::fclose(f);
  partitions_.resize(num_partitions);
  pos = 0;
  for (auto& extent : partitions_) {
    extent.offset = textmr::get_fixed64(footer, pos);
    extent.bytes = textmr::get_fixed64(footer, pos);
    extent.records = textmr::get_fixed64(footer, pos);
  }
}

const PartitionExtent& SpillRunReader::extent(std::uint32_t partition) const {
  TEXTMR_CHECK(partition < partitions_.size(), "partition out of range");
  return partitions_[partition];
}

RunCursor SpillRunReader::open(std::uint32_t partition) const {
  return RunCursor(path_, extent(partition));
}

std::string SpillRunReader::read_partition(std::uint32_t partition) const {
  const PartitionExtent& ext = extent(partition);
  std::string data(static_cast<std::size_t>(ext.bytes), '\0');
  if (ext.bytes == 0) return data;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open run file " + path_);
  if (std::fseek(f, static_cast<long>(ext.offset), SEEK_SET) != 0) {
    std::fclose(f);
    throw IoError("cannot seek in run file " + path_);
  }
  const std::size_t got = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) throw FormatError("unexpected EOF in run file");
  if (failpoint::enabled()) {
    // Same "spill.read" site as the streaming cursor, consumed once per
    // bulk read: kCorrupt flips a mid-buffer byte, other kinds throw or
    // delay.
    if (const auto fault = failpoint::consume("spill.read")) {
      if (fault->kind == failpoint::ActionKind::kCorrupt) {
        data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x5a);
      } else if (fault->kind == failpoint::ActionKind::kDelay) {
        failpoint::maybe_delay(*fault);
      } else {
        throw failpoint::InjectedFault("spill.read");
      }
    }
  }
  return data;
}

RunCursor::RunCursor(const std::string& path, const PartitionExtent& extent)
    : remaining_bytes_(extent.bytes),
      remaining_records_(extent.records) {
  if (extent.records == 0) return;  // never opens the file
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) throw IoError("cannot open run file " + path);
  if (std::fseek(file_, static_cast<long>(extent.offset), SEEK_SET) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw IoError("cannot seek in run file " + path);
  }
}

RunCursor::~RunCursor() {
  if (file_ != nullptr) std::fclose(file_);
}

RunCursor::RunCursor(RunCursor&& other) noexcept
    : file_(other.file_),
      buffer_(std::move(other.buffer_)),
      pos_(other.pos_),
      remaining_bytes_(other.remaining_bytes_),
      remaining_records_(other.remaining_records_),
      bytes_consumed_(other.bytes_consumed_) {
  other.file_ = nullptr;
  other.remaining_records_ = 0;
}

void RunCursor::ensure(std::size_t needed) {
  if (buffer_.size() - pos_ >= needed) return;
  // Compact consumed prefix, then top up from the file.
  buffer_.erase(0, pos_);
  pos_ = 0;
  while (buffer_.size() < needed && remaining_bytes_ > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunkBytes, remaining_bytes_));
    const std::size_t old = buffer_.size();
    buffer_.resize(old + want);
    const std::size_t got = std::fread(buffer_.data() + old, 1, want, file_);
    buffer_.resize(old + got);
    remaining_bytes_ -= got;
    if (got == 0) throw FormatError("unexpected EOF in run file");
    if (failpoint::enabled()) {
      // "spill.read": kCorrupt flips a byte of the freshly read chunk
      // (surfacing later as a FormatError or garbled record); other
      // fault kinds throw here.
      if (const auto fault = failpoint::consume("spill.read")) {
        if (fault->kind == failpoint::ActionKind::kCorrupt) {
          buffer_[old + got / 2] =
              static_cast<char>(buffer_[old + got / 2] ^ 0x5a);
        } else if (fault->kind == failpoint::ActionKind::kDelay) {
          failpoint::maybe_delay(*fault);
        } else {
          throw failpoint::InjectedFault("spill.read");
        }
      }
    }
  }
}

std::optional<RecordView> RunCursor::next() {
  if (remaining_records_ == 0) return std::nullopt;
  // A header is at most kMaxFrameHeaderBytes; buffer that much (or what is
  // left) to decode it, bound the record by the partition's unread bytes,
  // then buffer the payload.
  ensure(kMaxFrameHeaderBytes);
  const std::string_view view = std::string_view(buffer_).substr(pos_);
  const FrameHeader header =
      decode_header(view, view.size() + remaining_bytes_);
  const std::size_t payload = std::size_t{header.key_size} + header.value_size;
  ensure(header.header_size + payload);  // fits: decode_header bounded it
  pos_ += header.header_size;
  RecordView record{
      std::string_view(buffer_).substr(pos_, header.key_size),
      std::string_view(buffer_).substr(pos_ + header.key_size,
                                       header.value_size),
  };
  pos_ += payload;
  bytes_consumed_ += header.header_size + payload;
  remaining_records_ -= 1;
  return record;
}

}  // namespace textmr::io
