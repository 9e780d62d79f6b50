#include <gtest/gtest.h>

// In-process battery for the transport layer and the shuffle service
// (DESIGN.md §14): TCP listen/connect/accept plumbing, Connection framing
// and timeouts, the net.* / shuffle.* failpoints, ShuffleServer +
// ShuffleClient request/retry semantics, and a full TCP cluster run with
// external workers hosted on std::threads.
//
// Everything here is fork-free on purpose: this file is in the TSan CI
// tier, where fork() is off-limits, and thread-hosted workers over real
// loopback sockets give the race detector the exact code the forked
// production path runs. The forked TCP battery lives in test_cluster.cpp.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "common/failpoint.hpp"
#include "common/tempdir.hpp"
#include "helpers.hpp"

namespace textmr::cluster {
namespace {

TEST(TransportKindTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_transport_kind("socketpair"), TransportKind::kSocketpair);
  EXPECT_EQ(parse_transport_kind("tcp"), TransportKind::kTcp);
  EXPECT_STREQ(transport_kind_name(TransportKind::kSocketpair), "socketpair");
  EXPECT_STREQ(transport_kind_name(TransportKind::kTcp), "tcp");
  EXPECT_THROW(parse_transport_kind("carrier-pigeon"), ConfigError);
  EXPECT_THROW(parse_transport_kind(""), ConfigError);
}

TEST(TcpPlumbing, ListenConnectAcceptRoundTrip) {
  Endpoint listen;  // 127.0.0.1, port 0 = kernel-assigned
  const int listen_fd = tcp_listen(listen);
  ASSERT_GE(listen_fd, 0);
  const Endpoint bound = local_endpoint(listen_fd);
  EXPECT_EQ(bound.host, "127.0.0.1");
  EXPECT_NE(bound.port, 0);

  const int client_fd = tcp_connect(bound, 2000);
  ASSERT_GE(client_fd, 0);
  const int server_fd = tcp_accept(listen_fd, 2000);
  ASSERT_GE(server_fd, 0);

  // Full frame round-trip in both directions.
  Connection client(client_fd, 2000);
  Connection server(server_fd, 2000);
  ASSERT_TRUE(client.send(encode_shuffle_fetch(ShuffleFetchMsg{"/r", 1})));
  auto got = server.recv();
  ASSERT_TRUE(got.has_value());
  auto r = WireReader(*got);
  EXPECT_EQ(static_cast<MsgType>(r.u8()), MsgType::kShuffleFetch);
  ASSERT_TRUE(server.send(encode_shuffle_data(ShuffleDataMsg{1, "payload"})));
  got = client.recv();
  ASSERT_TRUE(got.has_value());

  ::close(listen_fd);
}

TEST(TcpPlumbing, ConnectToClosedPortThrowsIoError) {
  // Bind, learn the port, close: connecting must be refused, not hang.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  ::close(listen_fd);
  EXPECT_THROW(tcp_connect(bound, 1000), IoError);
}

TEST(TcpPlumbing, AcceptTimesOutWithNoClient) {
  const int listen_fd = tcp_listen(Endpoint{});
  EXPECT_THROW(tcp_accept(listen_fd, 50), IoError);
  ::close(listen_fd);
}

TEST(TcpPlumbing, BadListenAddressIsAConfigError) {
  Endpoint bad;
  bad.host = "not-an-ipv4-address";
  EXPECT_THROW(tcp_listen(bad), ConfigError);
}

TEST(TcpPlumbing, ConnectionRecvTimesOutOnSilentPeer) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  const int client_fd = tcp_connect(bound, 2000);
  const int server_fd = tcp_accept(listen_fd, 2000);
  Connection client(client_fd, 50);
  // The server never sends: the deadline must fire, not block forever —
  // this is the dead-TCP-peer bug class the io_timeout plumbing exists
  // for (a coordinator stuck in recv would hang the whole job).
  EXPECT_THROW(client.recv(), IoError);
  // A per-call override beats the default.
  EXPECT_THROW(client.recv(50), IoError);
  ::close(server_fd);
  ::close(listen_fd);
}

// ---- net.* failpoints ------------------------------------------------------

struct ConnectedTcpPair {
  int listen_fd = -1;
  Connection client;
  Connection server;

  explicit ConnectedTcpPair(std::int32_t timeout_ms = 2000) {
    listen_fd = tcp_listen(Endpoint{});
    const Endpoint bound = local_endpoint(listen_fd);
    client = Connection(tcp_connect(bound, timeout_ms), timeout_ms);
    server = Connection(tcp_accept(listen_fd, timeout_ms), timeout_ms);
  }
  ~ConnectedTcpPair() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

TEST(NetFailpoints, ConnectThrowInjectsFault) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  failpoint::ScopedFailpoints guard("net.connect:nth=1");
  EXPECT_THROW(tcp_connect(bound, 1000), failpoint::InjectedFault);
  // One-shot: the next connect goes through.
  const int fd = tcp_connect(bound, 1000);
  EXPECT_GE(fd, 0);
  ::close(fd);
  ::close(listen_fd);
}

TEST(NetFailpoints, SendThrowInjectsFault) {
  ConnectedTcpPair pair;
  failpoint::ScopedFailpoints guard("net.send:nth=1");
  EXPECT_THROW(pair.client.send("payload"), failpoint::InjectedFault);
}

TEST(NetFailpoints, SendCorruptIsCaughtByReceiverChecksum) {
  ConnectedTcpPair pair;
  {
    failpoint::ScopedFailpoints guard("net.send:nth=1:action=corrupt");
    ASSERT_TRUE(pair.client.send("a corruptible payload"));
  }
  // The flipped payload byte must fail the CRC on the receiving side —
  // this is the whole reason the TCP frames carry one.
  EXPECT_THROW(pair.server.recv(), IoError);
}

TEST(NetFailpoints, SocketpairSendCorruptIsCaughtByReceiverChecksum) {
  // Socketpair channels carry the same checksummed frames as TCP, in both
  // directions: the worker's blocking recv and the coordinator's decoder.
  auto transport = make_socketpair_transport(2000);
  Transport::WorkerChannel channel = transport->make_worker_channel();
  Connection worker(channel.child_fd, 2000);
  for (Connection* sender : {&channel.coordinator, &worker}) {
    failpoint::ScopedFailpoints guard("net.send:nth=1:action=corrupt");
    ASSERT_TRUE(sender->send("a corruptible payload"));
  }
  EXPECT_THROW(worker.recv(), IoError);
  FrameDecoder decoder;
  ASSERT_TRUE(channel.coordinator.drain(decoder));
  EXPECT_THROW(decoder.next(), IoError);
}

TEST(NetFailpoints, SendShortWriteTearsTheFrame) {
  ConnectedTcpPair pair;
  {
    failpoint::ScopedFailpoints guard("net.send:nth=1:action=shortwrite");
    // The sender learns its peer is gone (false), the receiver sees a
    // torn frame (IoError) once the connection drops.
    EXPECT_FALSE(pair.client.send("a payload that gets torn"));
  }
  pair.client.close();
  EXPECT_THROW(pair.server.recv(), IoError);
}

TEST(NetFailpoints, RecvThrowInjectsFault) {
  ConnectedTcpPair pair;
  ASSERT_TRUE(pair.client.send("payload"));
  failpoint::ScopedFailpoints guard("net.recv:nth=1");
  EXPECT_THROW(pair.server.recv(), failpoint::InjectedFault);
}

// ---- shuffle server + client ----------------------------------------------

struct ShuffleRig {
  TempDir dir;
  std::string run_path;
  io::SpillRunInfo info;

  explicit ShuffleRig(std::uint32_t partitions = 3) {
    run_path = dir.file("map0_a0_final").string();
    io::SpillRunWriter writer(run_path, partitions);
    writer.append(0, "apple", "1");
    writer.append(0, "avocado", "2");
    writer.append(1, "banana", "3");
    writer.append(2, "cherry", "4");
    writer.append(2, "citron", "");
    info = writer.finish();
  }

  ShuffleServer::Options server_options() const {
    ShuffleServer::Options options;
    options.root = dir.path().string();
    options.io_timeout_ms = 2000;
    return options;
  }
};

TEST(ShuffleService, FetchesEveryPartitionBitExact) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ASSERT_NE(server.endpoint().port, 0);

  ShuffleClient client;
  io::SpillRunReader reader(rig.run_path);
  std::uint64_t expected_bytes = 0;
  for (std::uint32_t p = 0; p < 3; ++p) {
    const auto fetched = client.fetch(server.endpoint(), rig.info, p);
    ASSERT_TRUE(fetched.has_value()) << "partition " << p;
    EXPECT_EQ(*fetched, reader.read_partition(p)) << "partition " << p;
    expected_bytes += fetched->size();
  }
  // The counters are bumped by the accept thread after the reply is on
  // the wire, so the client can observe its data slightly before the
  // increment lands — wait for them to settle.
  for (int i = 0; i < 200 && server.requests_served() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.bytes_served(), expected_bytes);
}

TEST(ShuffleService, PathOutsideRootIsRejectedWithoutRetry) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());

  // A run that exists on disk but lives outside the served root: the
  // server must refuse (non-retryable), the client must not burn the
  // full retry budget on it.
  TempDir other;
  const auto outside = other.file("evil_final").string();
  {
    io::SpillRunWriter writer(outside, 1);
    writer.append(0, "secret", "1");
    writer.finish();
  }
  io::SpillRunInfo evil = rig.info;
  evil.path = outside;
  ShuffleClient::Options options;
  options.attempts = 3;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  EXPECT_FALSE(client.fetch(server.endpoint(), evil, 0).has_value());
  // Prefix trickery must not pass either: "<root>-evil" shares the
  // root's spelling but is a sibling directory.
  io::SpillRunInfo sibling = rig.info;
  sibling.path = rig.dir.path().string() + "-evil/run_final";
  EXPECT_FALSE(client.fetch(server.endpoint(), sibling, 0).has_value());
}

TEST(ShuffleService, OutOfRangePartitionIsRejected) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient client;
  EXPECT_FALSE(client.fetch(server.endpoint(), rig.info, 99).has_value());
}

TEST(ShuffleService, StoppedServerExhaustsRetriesToNullopt) {
  ShuffleRig rig;
  Endpoint dead;
  {
    ShuffleServer server(rig.server_options());
    dead = server.endpoint();
  }  // destroyed: the port refuses connections now
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  options.timeout_ms = 200;
  ShuffleClient client(options);
  EXPECT_FALSE(client.fetch(dead, rig.info, 0).has_value());
}

TEST(ShuffleService, ServeFailpointDropsConnectionClientRetries) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 3;
  options.backoff_ms = 1;
  ShuffleClient client(options);

  // First request dropped mid-serve (models a crashing server); the
  // retry lands on a healthy server and must succeed bit-exact.
  failpoint::ScopedFailpoints guard("shuffle.serve:nth=1");
  const auto fetched = client.fetch(server.endpoint(), rig.info, 0);
  ASSERT_TRUE(fetched.has_value());
  io::SpillRunReader reader(rig.run_path);
  EXPECT_EQ(*fetched, reader.read_partition(0));
}

TEST(ShuffleService, FetchFailpointBurnsOneAttempt) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  failpoint::ScopedFailpoints guard("shuffle.fetch:nth=1");
  EXPECT_TRUE(client.fetch(server.endpoint(), rig.info, 0).has_value());
  for (int i = 0; i < 200 && server.requests_served() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests_served(), 1u);  // only the retry reached it
}

TEST(ShuffleService, EveryAttemptInjectedToFailureReturnsNullopt) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  failpoint::ScopedFailpoints guard("shuffle.fetch:always");
  EXPECT_FALSE(client.fetch(server.endpoint(), rig.info, 0).has_value());
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(ShuffleService, InvalidSourceEndpointFailsFast) {
  ShuffleRig rig;
  ShuffleClient client;
  // A map task whose owner died before kHello leaves an invalid (port 0)
  // source — the client must skip straight to the filesystem fallback.
  EXPECT_FALSE(client.fetch(Endpoint{}, rig.info, 0).has_value());
}

// ---- externally-joined workers (thread-hosted, no fork) -------------------

TEST(RemoteWorker, HandshakeTimesOutOnSilentCoordinator) {
  // Accepts the connection but never sends kWelcome: run_remote_worker
  // must throw IoError after its connect timeout instead of hanging.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<bool> threw{false};
  std::thread worker([&] {
    mr::JobSpec spec;  // never used: the handshake fails first
    RemoteWorkerOptions options;
    options.connect_timeout_ms = 200;
    try {
      run_remote_worker(bound, spec, options);
    } catch (const IoError&) {
      threw.store(true);
    }
  });
  const int fd = tcp_accept(listen_fd, 2000);  // accept, then stay silent
  worker.join();
  EXPECT_TRUE(threw.load());
  ::close(fd);
  ::close(listen_fd);
}

TEST(RemoteWorker, ConnectToNobodyThrows) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  ::close(listen_fd);
  mr::JobSpec spec;
  RemoteWorkerOptions options;
  options.connect_timeout_ms = 200;
  EXPECT_THROW(run_remote_worker(bound, spec, options), IoError);
}

TEST(RemoteWorker, IdleTimeoutExitsWorkerWhenCoordinatorGoesSilent) {
  // Welcome the worker, then say nothing: the worker's idle timeout must
  // bring it home instead of leaving a thread blocked in recv forever.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<int> exit_code{-1};
  mr::JobSpec spec;
  std::thread worker([&] {
    RemoteWorkerOptions options;
    options.connect_timeout_ms = 2000;
    options.idle_timeout_ms = 100;
    exit_code.store(run_remote_worker(bound, spec, options));
  });
  const int fd = tcp_accept(listen_fd, 2000);
  ASSERT_TRUE(send_frame(fd, encode_welcome(WelcomeMsg{0, 1000}), 2000));
  // Drain and discard whatever the worker sends (kHello, heartbeats) so
  // its socket buffer never fills; send nothing back.
  std::string sink(4096, '\0');
  while (true) {
    const ssize_t n = ::recv(fd, sink.data(), sink.size(), 0);
    if (n <= 0) break;  // worker hung up: idle timeout fired
  }
  worker.join();
  EXPECT_EQ(exit_code.load(), 0);
  ::close(fd);
  ::close(listen_fd);
}

// Full TCP cluster with every worker joining externally, hosted on
// threads in this process: exercises listen/accept/welcome/hello, the
// checksummed control channel, and the network shuffle end to end under
// TSan without a single fork.
TEST(TcpClusterInProcess, ExternalWorkersProduceByteIdenticalOutput) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 8000;
  corpus_spec.vocabulary = 300;
  corpus_spec.seed = 99;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  const auto splits = io::make_splits(corpus.string(), 4 * 1024);

  auto local_spec = test::make_job(apps::wordcount_app(), splits,
                                   dir.file("s-local"), dir.file("o-local"));
  const auto local = mr::LocalEngine().run(local_spec);

  auto cluster_spec = test::make_job(apps::wordcount_app(), splits,
                                     dir.file("s-tcp"), dir.file("o-tcp"));
  ClusterConfig config;
  config.num_workers = 2;
  config.external_workers = 2;  // nothing forked: TSan-safe
  config.transport = TransportKind::kTcp;
  config.io_timeout_ms = 10000;
  // No duplicate attempts: makes shuffled_wire_bytes == shuffled_bytes
  // below exact (a killed loser's partial fetches would perturb it).
  config.speculation = false;
  ClusterEngine engine(config);
  const Endpoint* listen = engine.listen_endpoint();
  ASSERT_NE(listen, nullptr);
  ASSERT_NE(listen->port, 0);

  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < 2; ++w) {
    workers.emplace_back([listen, &cluster_spec] {
      RemoteWorkerOptions options;
      options.connect_timeout_ms = 10000;
      run_remote_worker(*listen, cluster_spec, options);
    });
  }
  const auto result = engine.run(cluster_spec);
  for (auto& t : workers) t.join();

  // Byte-identical, not merely equivalent: same part files, same bytes.
  ASSERT_EQ(result.outputs.size(), local.outputs.size());
  for (std::size_t i = 0; i < result.outputs.size(); ++i) {
    std::ifstream a(local.outputs[i], std::ios::binary);
    std::ifstream b(result.outputs[i], std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << result.outputs[i];
  }
  // The shuffle genuinely crossed the wire (not the filesystem
  // fallback): wire bytes equal total shuffled bytes on a fault-free run.
  EXPECT_GT(result.metrics.work.shuffled_wire_bytes, 0u);
  EXPECT_EQ(result.metrics.work.shuffled_wire_bytes,
            result.metrics.work.shuffled_bytes);
}

TEST(TcpClusterInProcess, MixedExternalValidation) {
  // external_workers > num_workers and external workers without TCP are
  // config errors, caught before anything binds or forks.
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 500;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  {
    ClusterConfig config;
    config.num_workers = 1;
    config.external_workers = 2;
    config.transport = TransportKind::kTcp;
    ClusterEngine engine(config);
    EXPECT_THROW(engine.run(spec), ConfigError);
  }
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.external_workers = 1;  // socketpair transport: no listener
    ClusterEngine engine(config);
    EXPECT_THROW(engine.run(spec), ConfigError);
  }
}

TEST(TcpClusterInProcess, MissingExternalWorkerTimesOutCleanly) {
  // One external slot promised, nobody dials in: run() must fail with
  // IoError after accept_timeout_ms — never hang the coordinator.
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 500;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  ClusterConfig config;
  config.num_workers = 1;
  config.external_workers = 1;
  config.transport = TransportKind::kTcp;
  config.accept_timeout_ms = 100;
  ClusterEngine engine(config);
  EXPECT_THROW(engine.run(spec), IoError);
}

}  // namespace
}  // namespace textmr::cluster
