#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "mr/record_arena.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

/// One sealed spill region handed to the support thread. `records` are
/// RecordRefs into the ring: each points at a framed record, already in
/// the spill-file layout, so the sorter writes uncombined records as a
/// verbatim frame blit (SpillRunWriter::append_frame).
struct Spill {
  std::vector<RecordRef> records;
  std::uint64_t ring_bytes = 0;   // ring bytes (incl. wrap padding) to free
  std::uint64_t data_bytes = 0;   // payload bytes (keys + values)
  std::uint64_t produce_ns = 0;   // wall time the map thread took to fill it
  std::uint64_t sequence = 0;
  bool is_final = false;          // the flush spill at end of input
};

/// Timing of one completed produce/consume pair, fed to the spill policy.
struct SpillTiming {
  std::uint64_t sequence = 0;
  std::uint64_t produce_ns = 0;
  std::uint64_t consume_ns = 0;
  std::uint64_t data_bytes = 0;
};

/// Circular in-memory buffer between the map thread (producer) and the
/// support thread (consumer), modeled on Hadoop's map-side kvbuffer
/// (paper §IV-A, Fig. 4).
///
/// The producer appends records *framed in the spill-file layout*
/// ([header][key][value], see io::encode_frame_header) — the one and only
/// copy a record's bytes undergo on the map side: every later stage
/// (sort, combine grouping, spill write, merge) works through RecordRefs
/// and string_views into this ring (DESIGN.md §8). Once the bytes
/// accumulated in the current (unsealed) region reach
/// `threshold * capacity`, the region is sealed into a `Spill` and queued
/// for the consumer. The producer
/// keeps producing into the remaining free space and blocks only when the
/// ring is full — that blocked time is the paper's "map thread idle".
/// The consumer blocks when no sealed spill is pending — "support thread
/// idle". Both waits are measured and exposed.
///
/// Records never wrap: if a record does not fit in the tail gap, the gap
/// is padded and accounted to the current spill, and the record is placed
/// at the ring start. Spills are freed strictly FIFO, which makes the
/// ring bookkeeping a head/tail pair plus a used-byte count.
///
/// Thread contract: exactly one producer thread; up to `max_outstanding`
/// consumer ("support") threads, each cycling take() -> release(). With
/// more than one consumer, spills are sealed as soon as any consumer
/// could accept one (outstanding < max_outstanding), generalizing the
/// paper's 1-map/1-support pipeline to its "one or more support threads"
/// form (§IV-A). Releases may arrive out of order; ring space is
/// reclaimed in seal order as the release frontier advances.
class SpillBuffer {
 public:
  /// `trace`, when non-null, receives seal instants and fill-level /
  /// threshold counter samples. Both pipeline threads record into it,
  /// which is safe because every record happens under `mu_` (the one
  /// sanctioned exception to TraceBuffer's single-writer rule).
  /// `clock`, when non-null, replaces the monotonic clock for the
  /// produce/wait timing that feeds the spill policy — tests drive it
  /// with a common::ManualClock to pin eq. (1) inputs exactly.
  explicit SpillBuffer(std::size_t capacity_bytes,
                       double initial_threshold = 0.8,
                       std::uint32_t max_outstanding = 1,
                       obs::TraceBuffer* trace = nullptr,
                       const common::Clock* clock = nullptr);

  std::size_t capacity() const { return capacity_; }

  // ---- producer side -------------------------------------------------

  /// Appends a record. Blocks while the ring is full (the wait is added
  /// to `producer_wait_ns`). Throws ConfigError if a single record can
  /// never fit.
  void put(std::uint32_t partition, std::string_view key,
           std::string_view value);

  /// Sets the spill threshold used for the *next* seal decision
  /// (clamped to [0.01, 0.99]). Called by the spill policy.
  void set_threshold(double threshold);
  double threshold() const;

  /// Seals whatever remains as a final spill (may be empty, in which case
  /// no spill is queued) and wakes the consumer, which will see
  /// end-of-stream after draining. Producer must call exactly once.
  void close();

  /// Poisons the buffer after a failure on either side: the producer's
  /// next put() throws, the consumer's next take() returns nullopt, and
  /// any blocked thread wakes. Idempotent; safe after close().
  void abort();

  // ---- consumer side -------------------------------------------------

  /// Blocks until a sealed spill is available (wait added to
  /// `consumer_wait_ns`) or the buffer is closed and drained (returns
  /// nullopt).
  std::optional<Spill> take() TEXTMR_LIFETIME_BOUND;

  /// Frees the ring space of the oldest outstanding spill. `consume_ns`
  /// is the wall time the support thread spent processing it; the pair
  /// (produce_ns, consume_ns) becomes the SpillTiming the policy sees.
  void release(const Spill& spill, std::uint64_t consume_ns);

  // ---- instrumentation -------------------------------------------------

  std::uint64_t producer_wait_ns() const;
  std::uint64_t consumer_wait_ns() const;
  std::uint64_t spills_sealed() const;

  /// Whether a thread is currently parked in put() (ring full) / take()
  /// (no sealed spill). Test seam: lets a ManualClock-driven test advance
  /// the clock only while the opposite side is provably inside its
  /// measured wait, making the wait-accounting assertions deterministic.
  bool producer_waiting() const;
  bool consumer_waiting() const;

  /// Timing of the most recently released spill, if any.
  std::optional<SpillTiming> last_timing() const;

 private:
  std::uint64_t free_bytes_locked() const TEXTMR_REQUIRES(mu_) {
    return capacity_ - used_;
  }
  // Moves the current region to the sealed queue.
  void seal_locked() TEXTMR_REQUIRES(mu_);

  const std::size_t capacity_;
  // Ring *payload* (framed records). Not guarded: the producer writes a
  // record's bytes under mu_, and once the region is sealed its bytes are
  // immutable until release(), so consumers read them lock-free through
  // the RecordRefs of the Spill they took.
  std::vector<char> ring_;  // check:allow(lock-coverage): see above

  mutable textmr::Mutex mu_{textmr::LockRank::kSpillBuffer,
                            "mr.spill_buffer"};
  textmr::CondVar space_available_;
  textmr::CondVar spill_available_;

  // Ring allocation state.
  std::size_t head_ TEXTMR_GUARDED_BY(mu_) = 0;  // oldest live byte
  std::size_t tail_ TEXTMR_GUARDED_BY(mu_) = 0;  // next allocation point
  std::uint64_t used_ TEXTMR_GUARDED_BY(mu_) = 0;

  // Current (unsealed) region, filled by the producer.
  std::vector<RecordRef> current_records_ TEXTMR_GUARDED_BY(mu_);
  std::uint64_t current_ring_bytes_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t current_data_bytes_ TEXTMR_GUARDED_BY(mu_) = 0;
  // First put after previous seal / producer wait during this region.
  std::uint64_t current_started_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t current_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;

  std::deque<Spill> sealed_ TEXTMR_GUARDED_BY(mu_);
  // Sealed or taken-but-unreleased spills.
  std::uint64_t outstanding_ TEXTMR_GUARDED_BY(mu_) = 0;
  // check:allow(lock-coverage): set once in the constructor, read-only after
  std::uint32_t max_outstanding_ = 1;
  // Out-of-order release bookkeeping: ring bytes of released spills that
  // are still blocked behind an unreleased earlier spill.
  std::map<std::uint64_t, std::uint64_t> released_ TEXTMR_GUARDED_BY(mu_);
  std::uint64_t next_free_sequence_ TEXTMR_GUARDED_BY(mu_) = 0;
  double threshold_ TEXTMR_GUARDED_BY(mu_);
  bool closed_ TEXTMR_GUARDED_BY(mu_) = false;
  bool aborted_ TEXTMR_GUARDED_BY(mu_) = false;
  std::uint64_t sequence_ TEXTMR_GUARDED_BY(mu_) = 0;

  std::uint64_t producer_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t consumer_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  bool producer_waiting_ TEXTMR_GUARDED_BY(mu_) = false;
  bool consumer_waiting_ TEXTMR_GUARDED_BY(mu_) = false;
  std::optional<SpillTiming> last_timing_ TEXTMR_GUARDED_BY(mu_);

  obs::TraceBuffer* const trace_;  // pointee written only under mu_
  const common::Clock* const clock_;
};

}  // namespace textmr::mr
