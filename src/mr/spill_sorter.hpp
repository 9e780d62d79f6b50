#pragma once

#include <string_view>

#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/types.hpp"

namespace textmr::mr {

/// Sorts one sealed spill by (partition, key), applies the combiner to
/// each key group, and writes the resulting sorted run. This is the
/// support thread's workload (paper §II-C2 / §IV-A): its cost is what the
/// spill-matcher balances against map-thread production.
///
/// Records stay in the ring throughout: the sort permutes 32-byte
/// RecordRefs (comparing denormalized key prefixes), and uncombined
/// records are written as verbatim frame blits — no per-record
/// serialization (DESIGN.md §8).
///
/// `combiner` may be null. Returns the run info from the writer's
/// `finish()`. Sort time goes to Op::kSort, user combine time to
/// Op::kCombine, and writing (including framing) to Op::kSpillWrite.
/// `trace`, when non-null, receives spill_sort / spill_write spans (the
/// write span carries the embedded combine time as an argument).
io::SpillRunInfo sort_and_spill(Spill& spill, Reducer* combiner,
                                std::string_view run_path,
                                std::uint32_t num_partitions,
                                TaskMetrics& metrics,
                                obs::TraceBuffer* trace = nullptr);

}  // namespace textmr::mr
