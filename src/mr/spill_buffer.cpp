#include "mr/spill_buffer.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"

namespace textmr::mr {
namespace {

constexpr double kMinThreshold = 0.01;
constexpr double kMaxThreshold = 0.99;

}  // namespace

SpillBuffer::SpillBuffer(std::size_t capacity_bytes, double initial_threshold,
                         std::uint32_t max_outstanding,
                         obs::TraceBuffer* trace, const common::Clock* clock)
    : capacity_(capacity_bytes),
      ring_(capacity_bytes),
      max_outstanding_(max_outstanding),
      trace_(trace),
      clock_(clock != nullptr ? clock : &common::system_clock()) {
  TEXTMR_CHECK(capacity_bytes >= 1024, "spill buffer must be >= 1 KiB");
  TEXTMR_CHECK(max_outstanding >= 1, "need >= 1 outstanding spill slot");
  threshold_ = std::clamp(initial_threshold, kMinThreshold, kMaxThreshold);
}

void SpillBuffer::set_threshold(double threshold) {
  MutexLock lock(mu_);
  threshold_ = std::clamp(threshold, kMinThreshold, kMaxThreshold);
  obs::record_counter(trace_, "spill", "spill_threshold", threshold_);
}

double SpillBuffer::threshold() const {
  MutexLock lock(mu_);
  return threshold_;
}

void SpillBuffer::seal_locked() {
  if (current_records_.empty()) return;
  Spill spill;
  spill.records = std::move(current_records_);
  spill.ring_bytes = current_ring_bytes_;
  spill.data_bytes = current_data_bytes_;
  spill.produce_ns = clock_->now_ns() - current_started_ns_ - current_wait_ns_;
  spill.sequence = sequence_++;
  current_records_ = {};
  current_ring_bytes_ = 0;
  current_data_bytes_ = 0;
  current_wait_ns_ = 0;
  sealed_.push_back(std::move(spill));
  ++outstanding_;
  if (trace_ != nullptr) {
    const Spill& sealed = sealed_.back();
    obs::record_instant(
        trace_, "spill", "spill_seal", "sequence",
        static_cast<double>(sealed.sequence), "data_bytes",
        static_cast<double>(sealed.data_bytes), "produce_ms",
        static_cast<double>(sealed.produce_ns) * 1e-6);
    obs::record_counter(trace_, "spill", "buffer_fill",
                        static_cast<double>(used_) /
                            static_cast<double>(capacity_));
  }
  spill_available_.notify_one();
}

void SpillBuffer::put(std::uint32_t partition, std::string_view key,
                      std::string_view value) {
  // One frame = the record's single in-memory copy; everything downstream
  // points into it.
  const std::uint64_t need = io::encoded_record_size(key.size(), value.size());
  if (need > capacity_) {
    throw ConfigError("record of " + std::to_string(need) +
                      " framed bytes exceeds spill buffer capacity " +
                      std::to_string(capacity_));
  }
  MutexLock lock(mu_);
  TEXTMR_CHECK(!closed_, "put after close");
  if (aborted_) throw InternalError("spill buffer aborted (consumer failed)");
  if (current_records_.empty()) {
    current_started_ns_ = clock_->now_ns();
  }

  // Reserve `need` contiguous bytes, padding past the wrap point if the
  // tail gap is too small. Blocks while the ring is full.
  std::uint64_t pad = 0;
  while (true) {
    if (used_ == 0) {
      head_ = tail_ = 0;  // empty: restart at the origin for max contiguity
    }
    pad = (tail_ + need <= capacity_) ? 0 : capacity_ - tail_;
    if (free_bytes_locked() >= need + pad) break;
    // Hadoop behaviour: a full buffer forces a spill of the current region
    // regardless of the threshold (otherwise producer and consumer would
    // deadlock waiting on each other).
    if (outstanding_ < max_outstanding_) seal_locked();
    const std::uint64_t wait_start = clock_->now_ns();
    producer_waiting_ = true;
    space_available_.wait(mu_);
    producer_waiting_ = false;
    const std::uint64_t waited = clock_->now_ns() - wait_start;
    producer_wait_ns_ += waited;
    current_wait_ns_ += waited;
    if (aborted_) throw InternalError("spill buffer aborted (consumer failed)");
  }

  if (pad > 0) {
    used_ += pad;
    current_ring_bytes_ += pad;
    tail_ = 0;
  }
  char* dest = ring_.data() + tail_;
  const std::size_t header =
      io::encode_frame_header(dest, key.size(), value.size());
  std::memcpy(dest + header, key.data(), key.size());
  std::memcpy(dest + header + key.size(), value.data(), value.size());
  current_records_.push_back(RecordRef{
      dest,
      key_prefix8(key),
      static_cast<std::uint32_t>(key.size()),
      static_cast<std::uint32_t>(value.size()),
      partition,
      static_cast<std::uint16_t>(header),
  });
  tail_ += need;
  if (tail_ == capacity_) tail_ = 0;
  used_ += need;
  current_ring_bytes_ += need;
  current_data_bytes_ += key.size() + value.size();

  // Threshold-based seal. The paper's model (§IV-C) seals a region only
  // when a support thread is free: while all consumers are busy the
  // region keeps growing (with one support thread that is what makes
  // m_i = max{xM, min{(p/c)·m_{i-1}, M − m_{i-1}}}).
  if (outstanding_ < max_outstanding_ &&
      current_ring_bytes_ >= threshold_ * static_cast<double>(capacity_)) {
    seal_locked();
  }
}

void SpillBuffer::close() {
  MutexLock lock(mu_);
  TEXTMR_CHECK(!closed_, "close called twice");
  if (!current_records_.empty()) {
    seal_locked();
    sealed_.back().is_final = true;
  }
  closed_ = true;
  spill_available_.notify_all();
}

void SpillBuffer::abort() {
  MutexLock lock(mu_);
  aborted_ = true;
  space_available_.notify_all();
  spill_available_.notify_all();
}

std::optional<Spill> SpillBuffer::take() {
  MutexLock lock(mu_);
  while (sealed_.empty() && !closed_ && !aborted_) {
    const std::uint64_t wait_start = clock_->now_ns();
    consumer_waiting_ = true;
    spill_available_.wait(mu_);
    consumer_waiting_ = false;
    consumer_wait_ns_ += clock_->now_ns() - wait_start;
  }
  if (aborted_ || sealed_.empty()) return std::nullopt;
  Spill spill = std::move(sealed_.front());
  sealed_.pop_front();
  return spill;
}

void SpillBuffer::release(const Spill& spill, std::uint64_t consume_ns) {
  MutexLock lock(mu_);
  TEXTMR_CHECK(outstanding_ > 0, "release without outstanding spill");
  --outstanding_;
  // Ring space is reclaimed in seal order; a spill released ahead of an
  // earlier one parks until the frontier reaches it.
  released_.emplace(spill.sequence, spill.ring_bytes);
  while (!released_.empty() &&
         released_.begin()->first == next_free_sequence_) {
    const std::uint64_t bytes = released_.begin()->second;
    TEXTMR_CHECK(used_ >= bytes, "release exceeds ring usage");
    head_ = (head_ + bytes) % capacity_;
    used_ -= bytes;
    released_.erase(released_.begin());
    ++next_free_sequence_;
  }
  last_timing_ = SpillTiming{spill.sequence, spill.produce_ns, consume_ns,
                             spill.data_bytes};
  obs::record_counter(trace_, "spill", "buffer_fill",
                      static_cast<double>(used_) /
                          static_cast<double>(capacity_));
  // A consumer just became free; if the producer's region already passed
  // the threshold, seal it now so that consumer does not idle until the
  // next put().
  if (!closed_ && outstanding_ < max_outstanding_ &&
      current_ring_bytes_ >= threshold_ * static_cast<double>(capacity_) &&
      !current_records_.empty()) {
    seal_locked();
  }
  space_available_.notify_one();
}

std::uint64_t SpillBuffer::producer_wait_ns() const {
  MutexLock lock(mu_);
  return producer_wait_ns_;
}

bool SpillBuffer::producer_waiting() const {
  MutexLock lock(mu_);
  return producer_waiting_;
}

bool SpillBuffer::consumer_waiting() const {
  MutexLock lock(mu_);
  return consumer_waiting_;
}

std::uint64_t SpillBuffer::consumer_wait_ns() const {
  MutexLock lock(mu_);
  return consumer_wait_ns_;
}

std::uint64_t SpillBuffer::spills_sealed() const {
  MutexLock lock(mu_);
  return sequence_;
}

std::optional<SpillTiming> SpillBuffer::last_timing() const {
  MutexLock lock(mu_);
  return last_timing_;
}

}  // namespace textmr::mr
