#include <gtest/gtest.h>

// Unit tests for the cluster control protocol (wire codecs, framing) and
// the straggler detector's threshold arithmetic under a ManualClock. The
// process-level battery lives in test_cluster.cpp; everything here is
// in-process and deterministic.

#include <sys/socket.h>
#include <unistd.h>

#include "cluster/liveness.hpp"
#include "textmr.hpp"

namespace textmr::cluster {
namespace {

WireReader reader_skipping_type(const std::string& frame, MsgType expected) {
  WireReader r(frame);
  EXPECT_EQ(static_cast<MsgType>(r.u8()), expected);
  return r;
}

TEST(WireCodec, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1.5);
  w.str("hello\0world");  // embedded NUL is cut by the literal, still fine
  w.str("");
  const std::string buf = w.take();

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireCodec, LittleEndianLayout) {
  WireWriter w;
  w.u32(0x01020304);
  const std::string buf = w.take();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[3]), 0x01);
}

TEST(WireCodec, TruncatedReadsThrowFormatError) {
  WireWriter w;
  w.u32(7);
  const std::string buf = w.take();
  WireReader r(buf);
  r.u32();
  EXPECT_THROW(r.u8(), FormatError);

  WireReader r2(buf);
  EXPECT_THROW(r2.u64(), FormatError);

  // A string whose declared length exceeds the remaining bytes.
  WireWriter w3;
  w3.u32(1000);
  const std::string buf3 = w3.take();
  WireReader r3(buf3);
  EXPECT_THROW(r3.str(), FormatError);
}

TEST(WireCodec, TrailingBytesDetected) {
  WireWriter w;
  w.u32(1);
  w.u8(9);
  const std::string buf = w.take();
  WireReader r(buf);
  r.u32();
  EXPECT_THROW(r.expect_done(), FormatError);
}

TEST(ProtocolCodec, RunTaskRoundTrip) {
  const std::string frame =
      encode_run_task(MsgType::kRunMap, RunTaskMsg{42, 3});
  auto r = reader_skipping_type(frame, MsgType::kRunMap);
  const RunTaskMsg msg = decode_run_task(r);
  EXPECT_EQ(msg.id, 42u);
  EXPECT_EQ(msg.attempt, 3u);
}

TEST(ProtocolCodec, RunReduceRoundTripCarriesMapOutputs) {
  RunReduceMsg msg;
  msg.partition = 2;
  msg.attempt = 1;
  for (int i = 0; i < 3; ++i) {
    io::SpillRunInfo run;
    run.path = "/scratch/map" + std::to_string(i) + "_final";
    run.bytes = 1000 + i;
    run.records = 50 + i;
    for (int p = 0; p < 2; ++p) {
      io::PartitionExtent extent;
      extent.offset = p * 512;
      extent.bytes = 512;
      extent.records = 25;
      run.partitions.push_back(extent);
    }
    msg.map_outputs.push_back(run);
  }
  const std::string frame = encode_run_reduce(msg);
  auto r = reader_skipping_type(frame, MsgType::kRunReduce);
  const RunReduceMsg out = decode_run_reduce(r);
  EXPECT_EQ(out.partition, 2u);
  EXPECT_EQ(out.attempt, 1u);
  ASSERT_EQ(out.map_outputs.size(), 3u);
  EXPECT_EQ(out.map_outputs[1].path, "/scratch/map1_final");
  EXPECT_EQ(out.map_outputs[1].bytes, 1001u);
  ASSERT_EQ(out.map_outputs[2].partitions.size(), 2u);
  EXPECT_EQ(out.map_outputs[2].partitions[1].offset, 512u);
  EXPECT_EQ(out.map_outputs[2].partitions[1].records, 25u);
}

TEST(ProtocolCodec, HeartbeatRoundTrip) {
  HeartbeatMsg msg;
  msg.worker_id = 5;
  msg.kind = TaskKind::kMap;
  msg.id = 17;
  msg.attempt = 2;
  msg.progress = 0.625;
  const std::string frame = encode_heartbeat(msg);
  auto r = reader_skipping_type(frame, MsgType::kHeartbeat);
  const HeartbeatMsg out = decode_heartbeat(r);
  EXPECT_EQ(out.worker_id, 5u);
  EXPECT_EQ(out.kind, TaskKind::kMap);
  EXPECT_EQ(out.id, 17u);
  EXPECT_EQ(out.attempt, 2u);
  EXPECT_EQ(out.progress, 0.625);
  EXPECT_TRUE(out.stats.task_latency_ns.empty());
}

TEST(ProtocolCodec, HeartbeatCarriesWorkerMetrics) {
  HeartbeatMsg msg;
  msg.worker_id = 1;
  msg.stats.records = 1000;
  msg.stats.bytes = 65536;
  msg.stats.spills = 7;
  msg.stats.tasks_completed = 4;
  msg.stats.task_failures = 1;
  msg.stats.trace_dropped = 12;
  msg.stats.task_latency_ns.record(1500);
  msg.stats.task_latency_ns.record(2500000);
  msg.stats.task_latency_ns.record(2500000);

  const std::string frame = encode_heartbeat(msg);
  auto r = reader_skipping_type(frame, MsgType::kHeartbeat);
  const HeartbeatMsg out = decode_heartbeat(r);
  EXPECT_EQ(out.stats.records, 1000u);
  EXPECT_EQ(out.stats.bytes, 65536u);
  EXPECT_EQ(out.stats.spills, 7u);
  EXPECT_EQ(out.stats.tasks_completed, 4u);
  EXPECT_EQ(out.stats.task_failures, 1u);
  EXPECT_EQ(out.stats.trace_dropped, 12u);
  EXPECT_EQ(out.stats.task_latency_ns, msg.stats.task_latency_ns);
  EXPECT_EQ(out.stats.task_latency_ns.count(), 3u);
}

TEST(ProtocolCodec, ClockProbeAndSyncRoundTrip) {
  const std::string probe_frame = encode_clock_probe(ClockProbeMsg{987654321});
  auto pr = reader_skipping_type(probe_frame, MsgType::kClockProbe);
  EXPECT_EQ(decode_clock_probe(pr).t_send, 987654321u);

  ClockSyncMsg sync;
  sync.worker_id = 3;
  sync.t_probe = 987654321;
  sync.t_worker = 999999999;
  const std::string sync_frame = encode_clock_sync(sync);
  auto sr = reader_skipping_type(sync_frame, MsgType::kClockSync);
  const ClockSyncMsg out = decode_clock_sync(sr);
  EXPECT_EQ(out.worker_id, 3u);
  EXPECT_EQ(out.t_probe, 987654321u);
  EXPECT_EQ(out.t_worker, 999999999u);
}

TEST(ProtocolCodec, EstimateClockOffsetMidpointMath) {
  // Worker clock reads 1500 when the coordinator's midpoint is 1000.
  EXPECT_EQ(estimate_clock_offset(900, 1100, 1500), 500);
  // Negative offsets (worker clock behind) work too.
  EXPECT_EQ(estimate_clock_offset(900, 1100, 400), -600);
  // Odd sum: midpoint of (3, 4) rounds to 3 by the halves-plus-carry form.
  EXPECT_EQ(estimate_clock_offset(3, 4, 10), 7);
  // Huge timestamps must not overflow the midpoint computation.
  const std::uint64_t big = 0xfffffffffffffff0ull;
  EXPECT_EQ(estimate_clock_offset(big, big, big), 0);
}

TEST(ProtocolCodec, MsgTypeNamesAreExhaustive) {
  for (MsgType type :
       {MsgType::kRunMap, MsgType::kRunReduce, MsgType::kShutdown,
        MsgType::kClockProbe, MsgType::kHeartbeat, MsgType::kMapDone,
        MsgType::kReduceDone, MsgType::kTaskFailed, MsgType::kClockSync,
        MsgType::kTraceChunk}) {
    EXPECT_STRNE(msg_type_name(type), "unknown")
        << static_cast<int>(type);
  }
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(200)), "unknown");
}

TEST(ProtocolCodec, TaskFailedRoundTrip) {
  TaskFailedMsg msg;
  msg.kind = TaskKind::kReduce;
  msg.id = 9;
  msg.attempt = 4;
  msg.retryable = false;
  msg.message = "io error: disk on fire";
  const std::string frame = encode_task_failed(msg);
  auto r = reader_skipping_type(frame, MsgType::kTaskFailed);
  const TaskFailedMsg out = decode_task_failed(r);
  EXPECT_EQ(out.kind, TaskKind::kReduce);
  EXPECT_EQ(out.id, 9u);
  EXPECT_EQ(out.attempt, 4u);
  EXPECT_FALSE(out.retryable);
  EXPECT_EQ(out.message, "io error: disk on fire");
}

TEST(ProtocolCodec, MapDoneRoundTripPreservesMetricsAndCounters) {
  mr::MapTaskResult result;
  result.output.path = "/scratch/map7_a0_final";
  result.output.bytes = 4096;
  result.output.records = 123;
  io::PartitionExtent extent;
  extent.offset = 0;
  extent.bytes = 4096;
  extent.records = 123;
  result.output.partitions.push_back(extent);
  result.map_thread.op_ns(mr::Op::kMapUser) = 111;
  result.map_thread.input_records = 1000;
  result.map_thread.hash_combine_hits = 77;
  result.map_thread.hash_combine_flushes = 5;
  result.map_thread.hash_combine_demotions = 2;
  result.support_thread.op_ns(mr::Op::kSort) = 222;
  result.support_thread.spilled_bytes = 9999;
  result.counters.increment("tokens", 1000);
  result.counters.increment("skipped", 3);
  result.wall_ns = 5555;
  result.pipeline_wall_ns = 4444;
  result.spills = 6;
  result.final_spill_threshold = 0.42;
  result.freq_sampling_fraction = 0.0625;

  const std::string frame = encode_map_done(7, 1, result);
  auto r = reader_skipping_type(frame, MsgType::kMapDone);
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  mr::MapTaskResult out;
  decode_map_done(r, task, attempt, out);
  EXPECT_EQ(task, 7u);
  EXPECT_EQ(attempt, 1u);
  EXPECT_EQ(out.output.path, result.output.path);
  EXPECT_EQ(out.output.records, 123u);
  EXPECT_EQ(out.map_thread.op_ns(mr::Op::kMapUser), 111u);
  EXPECT_EQ(out.map_thread.input_records, 1000u);
  EXPECT_EQ(out.map_thread.hash_combine_hits, 77u);
  EXPECT_EQ(out.map_thread.hash_combine_flushes, 5u);
  EXPECT_EQ(out.map_thread.hash_combine_demotions, 2u);
  EXPECT_EQ(out.support_thread.op_ns(mr::Op::kSort), 222u);
  EXPECT_EQ(out.support_thread.spilled_bytes, 9999u);
  EXPECT_EQ(out.counters.value("tokens"), 1000u);
  EXPECT_EQ(out.counters.value("skipped"), 3u);
  EXPECT_EQ(out.wall_ns, 5555u);
  EXPECT_EQ(out.pipeline_wall_ns, 4444u);
  EXPECT_EQ(out.spills, 6u);
  EXPECT_EQ(out.final_spill_threshold, 0.42);
  EXPECT_EQ(out.freq_sampling_fraction, 0.0625);
}

TEST(ProtocolCodec, ReduceDoneRoundTrip) {
  mr::ReduceTaskResult result;
  result.output_path = "/out/part-r-00002";
  result.metrics.op_ns(mr::Op::kReduceUser) = 777;
  result.metrics.output_records = 88;
  result.counters.increment("groups", 88);
  result.wall_ns = 3141;

  const std::string frame = encode_reduce_done(2, 0, result);
  auto r = reader_skipping_type(frame, MsgType::kReduceDone);
  std::uint32_t partition = 0;
  std::uint32_t attempt = 99;
  mr::ReduceTaskResult out;
  decode_reduce_done(r, partition, attempt, out);
  EXPECT_EQ(partition, 2u);
  EXPECT_EQ(attempt, 0u);
  EXPECT_EQ(out.output_path, result.output_path);
  EXPECT_EQ(out.metrics.op_ns(mr::Op::kReduceUser), 777u);
  EXPECT_EQ(out.metrics.output_records, 88u);
  EXPECT_EQ(out.counters.value("groups"), 88u);
  EXPECT_EQ(out.wall_ns, 3141u);
}

TEST(ProtocolCodec, TraceChunkRoundTripOwnsStrings) {
  TraceChunkMsg msg;
  msg.worker_id = 1;
  msg.final_chunk = true;
  msg.stats.records = 42;
  msg.stats.task_latency_ns.record(777);
  obs::TraceData& trace = msg.trace;
  trace.enabled = true;
  trace.job_name = "wc";
  trace.epoch_ns = 100;
  trace.dropped_events = 2;
  trace.ring_drops.push_back({200001, 0, 2});
  trace.process_names.emplace_back(200001, "worker-1");
  trace.thread_names.push_back({200001, 0, "task-loop"});
  std::vector<std::string> frames;
  {
    // Build events whose strings die before decoding reads them — the
    // decoder must intern copies, not rely on the encoder's storage.
    // Encoding happens inside this scope (the encoder is allowed to
    // read the event's borrowed pointers); the events are then dropped
    // so decode cannot lean on their storage even by accident.
    const std::string name = "map_dispatch";
    const std::string category = "cluster";
    obs::TraceEvent e;
    e.name = name.c_str();
    e.category = category.c_str();
    e.ts_ns = 500;
    e.kind = obs::EventKind::kInstant;
    e.num_args = 1;
    e.arg_names[0] = "task";
    e.args[0] = 3.0;
    trace.events.push_back(e);
    e.ts_ns = 600;
    e.args[0] = 4.0;
    trace.events.push_back(e);
    frames = encode_trace_chunks(msg);
    trace.events.clear();
  }
  ASSERT_EQ(frames.size(), 1u);

  auto r = reader_skipping_type(frames[0], MsgType::kTraceChunk);
  const TraceChunkMsg out = decode_trace_chunk(r);
  EXPECT_EQ(out.worker_id, 1u);
  EXPECT_TRUE(out.final_chunk);
  EXPECT_EQ(out.stats.records, 42u);
  EXPECT_EQ(out.stats.task_latency_ns.count(), 1u);
  EXPECT_TRUE(out.trace.enabled);
  EXPECT_EQ(out.trace.job_name, "wc");
  EXPECT_EQ(out.trace.epoch_ns, 100u);
  EXPECT_EQ(out.trace.dropped_events, 2u);
  ASSERT_EQ(out.trace.ring_drops.size(), 1u);
  EXPECT_EQ(out.trace.ring_drops[0].pid, 200001u);
  EXPECT_EQ(out.trace.ring_drops[0].dropped, 2u);
  ASSERT_EQ(out.trace.process_names.size(), 1u);
  EXPECT_EQ(out.trace.process_names[0].second, "worker-1");
  ASSERT_EQ(out.trace.events.size(), 2u);
  EXPECT_STREQ(out.trace.events[0].name, "map_dispatch");
  EXPECT_STREQ(out.trace.events[0].category, "cluster");
  EXPECT_EQ(out.trace.events[0].args[0], 3.0);
  EXPECT_EQ(out.trace.events[1].args[0], 4.0);
  // Dedupe interning: both events share the same pooled pointer.
  EXPECT_EQ(out.trace.events[0].name, out.trace.events[1].name);
}

TEST(ProtocolCodec, TraceChunkSplitsUnderPayloadBudget) {
  TraceChunkMsg msg;
  msg.worker_id = 2;
  msg.final_chunk = true;
  obs::TraceData& trace = msg.trace;
  trace.enabled = true;
  trace.job_name = "chunky";
  trace.epoch_ns = 10;
  trace.dropped_events = 5;
  trace.ring_drops.push_back({200002, 0, 5});
  trace.process_names.emplace_back(200002, "worker-2");
  for (int i = 0; i < 100; ++i) {
    obs::TraceEvent e;
    e.name = "spill_write";
    e.category = "spill";
    e.ts_ns = 1000 + static_cast<std::uint64_t>(i);
    e.dur_ns = 10;
    e.pid = 200002;
    e.kind = obs::EventKind::kSpan;
    trace.events.push_back(e);
  }

  // A tiny budget forces many frames; each must decode standalone.
  const std::vector<std::string> frames = encode_trace_chunks(msg, 256);
  ASSERT_GT(frames.size(), 1u);

  obs::TraceData merged;
  WorkerMetrics last_stats;
  std::size_t finals = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto r = reader_skipping_type(frames[i], MsgType::kTraceChunk);
    TraceChunkMsg out = decode_trace_chunk(r);
    EXPECT_EQ(out.worker_id, 2u);
    if (out.final_chunk) {
      ++finals;
      EXPECT_EQ(i, frames.size() - 1);
    }
    last_stats = out.stats;
    obs::merge_trace(merged, std::move(out.trace));
  }
  // The final flag rides only on the last frame; metadata only on the
  // first — so the merge reconstructs the original exactly once.
  EXPECT_EQ(finals, 1u);
  EXPECT_EQ(merged.job_name, "chunky");
  EXPECT_EQ(merged.dropped_events, 5u);
  ASSERT_EQ(merged.ring_drops.size(), 1u);
  EXPECT_EQ(merged.ring_drops[0].dropped, 5u);
  ASSERT_EQ(merged.process_names.size(), 1u);
  ASSERT_EQ(merged.events.size(), 100u);
  for (std::size_t i = 0; i < merged.events.size(); ++i) {
    EXPECT_EQ(merged.events[i].ts_ns, 1000 + i);
  }
}

// Builds the wire bytes of one checksummed frame:
// [u32 len][u32 crc32(payload)][payload], little-endian.
std::string checksummed_wire(const std::string& payload) {
  std::string wire;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return wire + payload;
}

TEST(FrameDecoderTest, ReassemblesFramesAcrossArbitrarySplits) {
  const std::string a = encode_run_task(MsgType::kRunMap, RunTaskMsg{1, 0});
  const std::string b = encode_heartbeat(HeartbeatMsg{});
  const std::string stream = checksummed_wire(a) + checksummed_wire(b);

  // Feed one byte at a time: frames must come out whole and in order.
  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (char c : stream) {
    decoder.feed(&c, 1);
    while (auto frame = decoder.next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoderTest, EmptyFrameIsDelivered) {
  FrameDecoder decoder;
  const std::string wire = checksummed_wire("");
  decoder.feed(wire.data(), wire.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(FrameDecoderTest, OversizedLengthPrefixThrows) {
  // A desynchronized stream whose length prefix decodes to ~4 GiB must be
  // rejected as a protocol error, not turned into a giant allocation.
  FrameDecoder decoder;
  const char header[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  decoder.feed(header, 8);
  EXPECT_THROW(decoder.next(), IoError);
}

TEST(FrameIo, RecvOversizedLengthPrefixThrows) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char header[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  ASSERT_EQ(::send(sv[0], header, 8, 0), 8);
  EXPECT_THROW(recv_frame(sv[1], -1), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(FrameIo, SendRecvOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  HeartbeatMsg beat;
  beat.worker_id = 7;
  const std::string payload = encode_heartbeat(beat);
  ASSERT_TRUE(send_frame(sv[0], payload, -1));
  const auto got = recv_frame(sv[1], -1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  ::close(sv[0]);
  EXPECT_FALSE(recv_frame(sv[1], -1).has_value());  // clean EOF
  ::close(sv[1]);
}

// ---- transport/shuffle wire surface (DESIGN.md §14) -----------------------

TEST(ProtocolCodec, RunReduceRoundTripCarriesShuffleSources) {
  RunReduceMsg msg;
  msg.partition = 1;
  for (int i = 0; i < 2; ++i) {
    io::SpillRunInfo run;
    run.path = "/scratch/map" + std::to_string(i) + "_final";
    run.bytes = 64;
    io::PartitionExtent extent;
    extent.bytes = 64;
    extent.records = 4;
    run.partitions.push_back(extent);
    msg.map_outputs.push_back(run);
    Endpoint source;
    source.host = "10.0.0." + std::to_string(i + 1);
    source.port = static_cast<std::uint16_t>(9000 + i);
    msg.sources.push_back(source);
  }
  const std::string frame = encode_run_reduce(msg);
  auto r = reader_skipping_type(frame, MsgType::kRunReduce);
  const RunReduceMsg out = decode_run_reduce(r);
  ASSERT_EQ(out.sources.size(), 2u);
  EXPECT_EQ(out.sources[0].host, "10.0.0.1");
  EXPECT_EQ(out.sources[0].port, 9000);
  EXPECT_EQ(out.sources[1].host, "10.0.0.2");
  EXPECT_EQ(out.sources[1].port, 9001);

  // No sources at all (socketpair shuffle-through-filesystem) is legal.
  msg.sources.clear();
  auto r2_frame = encode_run_reduce(msg);
  auto r2 = reader_skipping_type(r2_frame, MsgType::kRunReduce);
  EXPECT_TRUE(decode_run_reduce(r2).sources.empty());

  // A sources count that disagrees with the runs count is a protocol
  // violation, not a silently misaligned shuffle.
  msg.sources.push_back(Endpoint{});
  auto r3_frame = encode_run_reduce(msg);
  auto r3 = reader_skipping_type(r3_frame, MsgType::kRunReduce);
  EXPECT_THROW(decode_run_reduce(r3), FormatError);
}

TEST(ProtocolCodec, WelcomeAndHelloRoundTrip) {
  const std::string welcome = encode_welcome(WelcomeMsg{7, 40});
  auto wr = reader_skipping_type(welcome, MsgType::kWelcome);
  const WelcomeMsg wout = decode_welcome(wr);
  EXPECT_EQ(wout.worker_id, 7u);
  EXPECT_EQ(wout.heartbeat_interval_ms, 40u);

  HelloMsg hello;
  hello.worker_id = 3;
  hello.shuffle.host = "192.168.1.42";
  hello.shuffle.port = 31337;
  const std::string frame = encode_hello(hello);
  auto hr = reader_skipping_type(frame, MsgType::kHello);
  const HelloMsg hout = decode_hello(hr);
  EXPECT_EQ(hout.worker_id, 3u);
  EXPECT_EQ(hout.shuffle.host, "192.168.1.42");
  EXPECT_EQ(hout.shuffle.port, 31337);
}

TEST(ProtocolCodec, ShuffleFetchRoundTrip) {
  ShuffleFetchMsg msg;
  msg.run_path = "/scratch/job/map3_a1_final";
  msg.partition = 5;
  const std::string frame = encode_shuffle_fetch(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleFetch);
  const ShuffleFetchMsg out = decode_shuffle_fetch(r);
  EXPECT_EQ(out.run_path, msg.run_path);
  EXPECT_EQ(out.partition, 5u);
}

TEST(ProtocolCodec, ShuffleDataRoundTripUnframedTail) {
  // The partition bytes ride as the frame's unframed tail (no inner
  // length prefix), so they may contain anything — including bytes that
  // look like length prefixes or NULs.
  ShuffleDataMsg msg;
  msg.records = 3;
  msg.bytes = std::string("\x00\x01\xff length-lookalike \x40\x00\x00\x00", 25);
  const std::string frame = encode_shuffle_data(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleData);
  const ShuffleDataMsg out = decode_shuffle_data(r);
  EXPECT_EQ(out.records, 3u);
  EXPECT_EQ(out.bytes, msg.bytes);

  // Empty partitions are common (a map task may emit nothing for a
  // reducer) and must round-trip as genuinely empty.
  ShuffleDataMsg empty;
  auto e_frame = encode_shuffle_data(empty);
  auto er = reader_skipping_type(e_frame, MsgType::kShuffleData);
  EXPECT_TRUE(decode_shuffle_data(er).bytes.empty());

  // Large payloads survive (1 MiB of pseudo-random bytes).
  ShuffleDataMsg big;
  big.records = 1u << 16;
  big.bytes.reserve(1u << 20);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    big.bytes.push_back(static_cast<char>(state & 0xff));
  }
  auto b_frame = encode_shuffle_data(big);
  auto br = reader_skipping_type(b_frame, MsgType::kShuffleData);
  EXPECT_EQ(decode_shuffle_data(br).bytes, big.bytes);
}

TEST(ProtocolCodec, ShuffleErrorRoundTrip) {
  ShuffleErrorMsg msg;
  msg.retryable = false;
  msg.message = "partition 9 out of range";
  const std::string frame = encode_shuffle_error(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleError);
  const ShuffleErrorMsg out = decode_shuffle_error(r);
  EXPECT_FALSE(out.retryable);
  EXPECT_EQ(out.message, "partition 9 out of range");
}

TEST(ProtocolCodec, NewMsgTypeNamesAreKnown) {
  for (MsgType type :
       {MsgType::kWelcome, MsgType::kHello, MsgType::kShuffleFetch,
        MsgType::kShuffleData, MsgType::kShuffleError}) {
    EXPECT_STRNE(msg_type_name(type), "unknown") << static_cast<int>(type);
  }
}

TEST(ChecksummedFrames, Crc32KnownVectors) {
  // The standard IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Incremental property sanity: different inputs, different sums.
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(ChecksummedFrames, RecvTruncatedAtEveryOffsetNeverSucceeds) {
  const std::string wire = checksummed_wire(
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/run", 2}));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    if (cut > 0) {
      ASSERT_EQ(::send(sv[0], wire.data(), cut, 0),
                static_cast<ssize_t>(cut));
    }
    ::close(sv[0]);  // peer dies mid-frame
    if (cut == 0) {
      // Nothing sent at all: a clean EOF, not an error.
      EXPECT_FALSE(recv_frame(sv[1], -1)
                       .has_value());
    } else {
      // A torn frame is always an error — never a short "success".
      EXPECT_THROW(recv_frame(sv[1], -1), IoError)
          << "cut at byte " << cut;
    }
    ::close(sv[1]);
  }
}

TEST(ChecksummedFrames, RecvCorruptedAtEveryByteNeverYieldsWrongBytes) {
  const std::string payload =
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/run", 2});
  const std::string wire = checksummed_wire(payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::send(sv[0], bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));
    ::close(sv[0]);
    // Three legal outcomes: IoError (bad length/crc mismatch/torn frame)
    // — never the corrupted payload delivered as-if-valid. (A flip in
    // the length prefix may also leave the reader waiting for bytes that
    // never come; the closed peer turns that into a torn-frame IoError.)
    try {
      const auto got = recv_frame(sv[1], -1);
      ADD_FAILURE() << "corrupt byte " << i << " slipped through: "
                    << (got.has_value() ? "frame delivered" : "EOF");
    } catch (const IoError&) {
      // expected
    }
    ::close(sv[1]);
  }
}

TEST(ChecksummedFrames, RecvTimesOutOnSilentPeer) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // No bytes at all: the deadline must fire instead of blocking forever.
  EXPECT_THROW(recv_frame(sv[1], 50), IoError);
  // A partial preamble then silence must also time out (torn frame that
  // never completes, peer still alive).
  const char partial[3] = {9, 0, 0};
  ASSERT_EQ(::send(sv[0], partial, 3, 0), 3);
  EXPECT_THROW(recv_frame(sv[1], 50), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChecksummedFrames, SendTimesOutWhenPeerStopsDraining) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink both socket buffers so a large frame cannot be absorbed.
  const int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const std::string big(4u << 20, 'x');
  // The peer never reads: send must hit the deadline, not block forever.
  EXPECT_THROW(send_frame(sv[0], big, 50), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChecksummedFrames, DecoderReassemblesAtEveryBoundaryOffset) {
  const std::string a = encode_shuffle_fetch(ShuffleFetchMsg{"/r", 0});
  const std::string b = encode_shuffle_error(ShuffleErrorMsg{true, "busy"});
  const std::string stream = checksummed_wire(a) + checksummed_wire(b);
  // Split the stream at every offset; both frames must always come out
  // whole, in order, bit-exact.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<std::string> frames;
    while (auto f = decoder.next()) frames.push_back(*f);
    decoder.feed(stream.data() + split, stream.size() - split);
    while (auto f = decoder.next()) frames.push_back(*f);
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0], a);
    EXPECT_EQ(frames[1], b);
  }
}

TEST(ChecksummedFrames, DecoderRejectsCorruptedPayload) {
  const std::string payload = encode_shuffle_fetch(ShuffleFetchMsg{"/r", 0});
  std::string wire = checksummed_wire(payload);
  wire[wire.size() - 1] = static_cast<char>(wire.back() ^ 0x01);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), IoError);
}

// Seeded structural fuzz of the shuffle codecs: random mutations of
// valid frames must decode cleanly or throw FormatError — never crash,
// hang, or return garbage silently. (ASan/TSan tiers run this too.)
TEST(ShuffleCodecFuzz, MutatedFramesNeverCrash) {
  std::uint64_t state = 0x243f6a8885a308d3ull;  // fixed seed: reproducible
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::string> seeds = {
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/jobX/map0_a0_final", 3}),
      encode_shuffle_data(ShuffleDataMsg{12, std::string(100, 'z')}),
      encode_shuffle_error(ShuffleErrorMsg{true, "transient"}),
      encode_welcome(WelcomeMsg{1, 25}),
      encode_hello(HelloMsg{2, Endpoint{"127.0.0.1", 4242}}),
  };
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame = seeds[rng() % seeds.size()];
    switch (rng() % 3) {
      case 0:  // truncate
        frame.resize(rng() % (frame.size() + 1));
        break;
      case 1:  // flip 1-4 bytes
        for (std::uint64_t flips = 1 + rng() % 4; flips > 0 && !frame.empty();
             --flips) {
          frame[rng() % frame.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 2:  // append junk
        for (std::uint64_t extra = 1 + rng() % 16; extra > 0; --extra) {
          frame.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
    }
    try {
      WireReader r(frame);
      const MsgType type = static_cast<MsgType>(r.u8());
      switch (type) {
        case MsgType::kShuffleFetch: decode_shuffle_fetch(r); break;
        case MsgType::kShuffleData: decode_shuffle_data(r); break;
        case MsgType::kShuffleError: decode_shuffle_error(r); break;
        case MsgType::kWelcome: decode_welcome(r); break;
        case MsgType::kHello: decode_hello(r); break;
        default: ++rejected; continue;  // type byte mutated away
      }
      ++decoded;
    } catch (const FormatError&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur or the fuzz is not exercising
  // anything (e.g. every mutation dodged the parser).
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---- LivenessTracker under a ManualClock ----------------------------------

TEST(LivenessTrackerTest, SilenceBeyondTimeoutExpiresWorker) {
  common::ManualClock clock(1000 * 1000000ull);
  LivenessTracker tracker(100, &clock);
  ASSERT_TRUE(tracker.enabled());

  tracker.note_activity(0);
  clock.advance_ms(99);
  EXPECT_FALSE(tracker.expired(0));
  clock.advance_ms(2);
  EXPECT_TRUE(tracker.expired(0));

  // Activity resets the deadline.
  tracker.note_activity(0);
  EXPECT_FALSE(tracker.expired(0));
  clock.advance_ms(101);
  EXPECT_TRUE(tracker.expired(0));
}

TEST(LivenessTrackerTest, NeverSeenAndForgottenWorkersAreNotExpired) {
  common::ManualClock clock;
  LivenessTracker tracker(100, &clock);
  clock.advance_ms(10000);
  EXPECT_FALSE(tracker.expired(7));  // never seen: spawn/beat order races

  tracker.note_activity(7);
  clock.advance_ms(10000);
  EXPECT_TRUE(tracker.expired(7));
  tracker.forget(7);
  EXPECT_FALSE(tracker.expired(7));
}

TEST(LivenessTrackerTest, ZeroTimeoutDisablesTracking) {
  common::ManualClock clock;
  LivenessTracker tracker(0, &clock);
  EXPECT_FALSE(tracker.enabled());
  tracker.note_activity(1);
  clock.advance_ms(1u << 30);
  EXPECT_FALSE(tracker.expired(1));
}

// ---- StragglerDetector under a ManualClock --------------------------------

constexpr std::uint64_t kMs = 1000000ull;

TEST(StragglerDetectorTest, StaleHeartbeatFlagsAttemptOnceAndOnlyOnce) {
  common::ManualClock clock(1000 * kMs);
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 100;
  policy.slowness_factor = 1e9;  // isolate the heartbeat path
  StragglerDetector detector(policy, &clock);

  detector.on_dispatch(TaskKind::kMap, 0, 0);
  clock.advance_ms(99);
  EXPECT_TRUE(detector.take_stragglers().empty());  // not stale yet

  clock.advance_ms(2);  // 101ms since the dispatch-time implicit beat
  auto flagged = detector.take_stragglers();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].kind, TaskKind::kMap);
  EXPECT_EQ(flagged[0].id, 0u);
  EXPECT_EQ(flagged[0].attempt, 0u);

  // Latched: the same attempt is never reported twice.
  clock.advance_ms(1000);
  EXPECT_TRUE(detector.take_stragglers().empty());
}

TEST(StragglerDetectorTest, HeartbeatRefreshesStaleness) {
  common::ManualClock clock;
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 100;
  policy.slowness_factor = 1e9;
  StragglerDetector detector(policy, &clock);

  detector.on_dispatch(TaskKind::kMap, 3, 1);
  for (int i = 0; i < 5; ++i) {
    clock.advance_ms(80);
    detector.on_beat(TaskKind::kMap, 3, 1, 0.1 * i);
    EXPECT_TRUE(detector.take_stragglers().empty()) << i;
  }
  clock.advance_ms(101);  // beats stop
  EXPECT_EQ(detector.take_stragglers().size(), 1u);
}

TEST(StragglerDetectorTest, SlownessNeedsMedianBaseline) {
  common::ManualClock clock;
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 1u << 30;  // isolate the slowness path
  policy.slowness_factor = 4.0;
  policy.min_completed_for_median = 2;
  StragglerDetector detector(policy, &clock);

  detector.on_dispatch(TaskKind::kMap, 9, 0);
  clock.advance_ms(500);
  // No completions yet: runtime alone never flags.
  EXPECT_TRUE(detector.take_stragglers().empty());

  detector.note_completed(TaskKind::kMap, 10 * kMs);
  EXPECT_TRUE(detector.take_stragglers().empty());  // below min_completed

  detector.note_completed(TaskKind::kMap, 20 * kMs);
  // Median 20ms, factor 4 -> threshold 80ms; the attempt is 500ms old.
  auto flagged = detector.take_stragglers();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].id, 9u);
}

TEST(StragglerDetectorTest, SlownessComparesAgainstOwnKindsMedian) {
  common::ManualClock clock;
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 1u << 30;
  policy.slowness_factor = 4.0;
  policy.min_completed_for_median = 2;
  StragglerDetector detector(policy, &clock);

  // Fast *map* completions must not flag a running *reduce* attempt.
  detector.note_completed(TaskKind::kMap, 1 * kMs);
  detector.note_completed(TaskKind::kMap, 1 * kMs);
  detector.on_dispatch(TaskKind::kReduce, 0, 0);
  clock.advance_ms(500);
  // A fresh beat keeps the heartbeat path quiet.
  detector.on_beat(TaskKind::kReduce, 0, 0, 0.5);
  EXPECT_TRUE(detector.take_stragglers().empty());

  detector.note_completed(TaskKind::kReduce, 10 * kMs);
  detector.note_completed(TaskKind::kReduce, 10 * kMs);
  detector.on_beat(TaskKind::kReduce, 0, 0, 0.6);
  EXPECT_EQ(detector.take_stragglers().size(), 1u);
}

TEST(StragglerDetectorTest, OnFinishReturnsDurationAndStopsTracking) {
  common::ManualClock clock;
  StragglerDetector detector(StragglerPolicy{}, &clock);
  detector.on_dispatch(TaskKind::kMap, 1, 0);
  EXPECT_EQ(detector.running(), 1u);
  clock.advance_ms(42);
  EXPECT_EQ(detector.on_finish(TaskKind::kMap, 1, 0), 42 * kMs);
  EXPECT_EQ(detector.running(), 0u);
  // Finishing an unknown attempt is a no-op reporting zero duration.
  EXPECT_EQ(detector.on_finish(TaskKind::kMap, 1, 0), 0u);
}

TEST(StragglerDetectorTest, MedianIsPerKind) {
  common::ManualClock clock;
  StragglerDetector detector(StragglerPolicy{}, &clock);
  detector.note_completed(TaskKind::kMap, 10);
  detector.note_completed(TaskKind::kMap, 30);
  detector.note_completed(TaskKind::kMap, 20);
  detector.note_completed(TaskKind::kReduce, 500);
  EXPECT_EQ(detector.median_duration_ns(TaskKind::kMap), 20u);
  EXPECT_EQ(detector.median_duration_ns(TaskKind::kReduce), 500u);
}

}  // namespace
}  // namespace textmr::cluster
