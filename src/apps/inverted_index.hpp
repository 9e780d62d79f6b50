#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/varint.hpp"
#include "apps/tokenizer.hpp"
#include "mr/types.hpp"

namespace textmr::apps {

/// InvertedIndex (paper §II-B): for each word, the sorted list of
/// locations where it appears. A location is (task_id << 40) | line
/// ordinal — globally unique and monotone within a task.
///
/// Intermediate value encoding: varint count, then delta-encoded varint
/// locations (ascending). The combiner merges posting lists, so unlike
/// WordCount the combined output *grows* with input — this is the
/// storage-intensive corner of the paper's Fig. 10.
namespace postings {

inline std::uint64_t make_location(std::uint32_t task_id,
                                   std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(task_id) << 40) | (ordinal & ((1ull << 40) - 1));
}

inline void encode(std::string& out, const std::vector<std::uint64_t>& sorted) {
  out.clear();
  put_varint(out, sorted.size());
  std::uint64_t previous = 0;
  for (const std::uint64_t location : sorted) {
    put_varint(out, location - previous);
    previous = location;
  }
}

inline void decode_into(std::string_view bytes,
                        std::vector<std::uint64_t>& out) {
  std::size_t pos = 0;
  const std::uint64_t count = get_varint(bytes, pos);
  std::uint64_t location = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    location += get_varint(bytes, pos);
    out.push_back(location);
  }
}

}  // namespace postings

class InvertedIndexMapper final : public mr::Mapper {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    task_id_ = info.task_id;
  }

  void map(std::uint64_t offset, std::string_view line,
           mr::EmitSink& out) override {
    const std::uint64_t location = postings::make_location(task_id_, offset);
    for_each_token(line, scratch_, [&](std::string_view token) {
      single_[0] = location;
      postings::encode(value_, single_);
      out.emit(token, value_);
    });
  }

 private:
  std::uint32_t task_id_ = 0;
  std::string scratch_;
  std::string value_;
  std::vector<std::uint64_t> single_ = {0};
};

/// Merges posting lists into one sorted list.
class InvertedIndexCombiner final : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override {
    merged_.clear();
    while (auto value = values.next()) {
      postings::decode_into(*value, merged_);
    }
    // Lists usually arrive in location order (each map task emits
    // ascending offsets and runs are merged stably), so the common case
    // is already sorted and the O(n log n) pass is skipped.
    if (!std::is_sorted(merged_.begin(), merged_.end())) {
      std::sort(merged_.begin(), merged_.end());
    }
    postings::encode(value_, merged_);
    out.emit(key, value_);
  }

 private:
  std::vector<std::uint64_t> merged_;
  std::string value_;
};

/// Final reducer: emits "count:loc1,loc2,..." as text.
class InvertedIndexReducer final : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override {
    merged_.clear();
    while (auto value = values.next()) {
      postings::decode_into(*value, merged_);
    }
    // Runs are merged in map-task order, so the lists usually arrive
    // sorted already (as in the combiner above).
    if (!std::is_sorted(merged_.begin(), merged_.end())) {
      std::sort(merged_.begin(), merged_.end());
    }
    text_.clear();
    text_ += std::to_string(merged_.size());
    text_.push_back(':');
    for (std::size_t i = 0; i < merged_.size(); ++i) {
      if (i > 0) text_.push_back(',');
      text_ += std::to_string(merged_[i]);
    }
    out.emit(key, text_);
  }

 private:
  std::vector<std::uint64_t> merged_;
  std::string text_;
};

}  // namespace textmr::apps
