#include "mr/record_arena.hpp"

#include <algorithm>

namespace textmr::mr {

char* RecordArena::allocate(std::size_t bytes) {
  // Advance through retained chunks until one has room; grow only past the
  // last (an oversized record gets a dedicated chunk of its own size, so a
  // frame is always contiguous).
  while (active_chunk_ >= chunks_.size() ||
         chunk_used_ + bytes > chunks_[active_chunk_].size) {
    if (active_chunk_ + 1 < chunks_.size()) {
      ++active_chunk_;
    } else {
      const std::size_t size = std::max(chunk_bytes_, bytes);
      chunks_.push_back(Chunk{std::make_unique<char[]>(size), size});
      active_chunk_ = chunks_.size() - 1;
    }
    chunk_used_ = 0;
  }
  char* p = chunks_[active_chunk_].data.get() + chunk_used_;
  chunk_used_ += bytes;
  return p;
}

const RecordRef& RecordArena::append(std::uint32_t partition,
                                     std::string_view key,
                                     std::string_view value) {
  const std::size_t frame_bytes =
      io::encoded_record_size(key.size(), value.size());
  char* frame = allocate(frame_bytes);
  const std::size_t header =
      io::encode_frame_header(frame, key.size(), value.size());
  std::memcpy(frame + header, key.data(), key.size());
  std::memcpy(frame + header + key.size(), value.data(), value.size());
  records_.push_back(RecordRef{
      frame,
      key_prefix8(key),
      static_cast<std::uint32_t>(key.size()),
      static_cast<std::uint32_t>(value.size()),
      partition,
      static_cast<std::uint16_t>(header),
  });
  payload_bytes_ += key.size() + value.size();
  return records_.back();
}

void RecordArena::clear() {
  records_.clear();
  payload_bytes_ = 0;
  active_chunk_ = 0;
  chunk_used_ = 0;
}

std::vector<RecordRef> index_frames(std::string_view data,
                                    std::uint32_t partition) {
  std::vector<RecordRef> refs;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const io::FrameHeader header = io::decode_frame_header(data.substr(pos));
    const char* frame = data.data() + pos;
    refs.push_back(RecordRef{
        frame,
        key_prefix8({frame + header.header_size, header.key_size}),
        header.key_size,
        header.value_size,
        partition,
        header.header_size,
    });
    pos += static_cast<std::size_t>(header.header_size) + header.key_size +
           header.value_size;
  }
  return refs;
}

}  // namespace textmr::mr
