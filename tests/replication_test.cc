// Replicated-tier tests: repl protocol codecs, the consistent-hash
// ring, WAL shipping + follower catch-up (with leader/follower fact
// metadata agreement), the router on the shared request core, and the
// chaos suite — follower crash mid-replay with WAL-prefix recovery,
// torn shipped frames through a faulty TCP proxy, router failover with
// zero dropped in-flight queries, and read-your-writes under replica
// lag.
// Meant to also run under ASan (the `replication-chaos` CI job).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "rdf/namespaces.h"
#include "replication/follower.h"
#include "replication/hash_ring.h"
#include "replication/repl_log.h"
#include "replication/repl_protocol.h"
#include "replication/router.h"
#include "replication/wal_shipper.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "server/protocol.h"
#include "storage/fault_injection_env.h"
#include "storage/wal.h"
#include "util/metrics_registry.h"

namespace kb {
namespace replication {
namespace {

using server::KbClient;
using server::KbServer;
using server::WireFact;

std::string TempDir(const std::string& name) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("kbforge_repl_" + name))
          .string();
  std::filesystem::remove_all(path);
  return path;
}

/// Deterministic base KB — leader and followers build the same one,
/// replication ships only the delta.
core::KnowledgeBase MakeBaseKb() {
  core::KnowledgeBase kb;
  kb.AssertSubclass("company", "organization");
  kb.AssertType("Acme_Corp", "company");
  core::FactMeta meta;
  meta.confidence = 0.9;
  kb.AssertType("Ada_Smith", "person");
  kb.AssertFact("Ada_Smith", "worksFor", "Acme_Corp", meta);
  return kb;
}

std::string WorksForQuery(const std::string& company) {
  return "SELECT ?p WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> <" +
         rdf::EntityIri(company) + "> . }";
}

WireFact MakeFact(int i) {
  WireFact fact;
  fact.s = "Person_" + std::to_string(i);
  fact.p = "worksFor";
  fact.o = "Globex";
  fact.confidence = 0.8;
  return fact;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Leader harness: KB + serving endpoint (with the replication
/// pre-insert hook) + log + shipper.
struct Leader {
  explicit Leader(const std::string& dir, double poll_interval_ms = 5) {
    kb = MakeBaseKb();
    ReplicationLog::Options log_options;
    log_options.num_shards = 2;
    auto opened = ReplicationLog::Open(log_options, dir);
    EXPECT_TRUE(opened.ok()) << opened.status();
    log = std::move(*opened);

    KbServer::Options server_options;
    // Router workers cache one connection each + the health checker
    // holds one: the pool must exceed that or new connections starve.
    server_options.num_workers = 8;
    server_options.pre_insert_hook =
        [this](const std::vector<WireFact>& batch) {
          return log->Append(batch);
        };
    server = std::make_unique<KbServer>(&kb, server_options);
    Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status;

    WalShipper::Options ship_options;
    ship_options.poll_interval_ms = poll_interval_ms;
    shipper = std::make_unique<WalShipper>(
        log.get(), [this] { return kb.epoch(); }, ship_options);
    status = shipper->Start();
    EXPECT_TRUE(status.ok()) << status;
  }
  ~Leader() {
    shipper->Stop();
    server->Stop();
  }

  int64_t Insert(int begin, int end) {
    KbClient client;
    EXPECT_TRUE(client.Connect(server->port()).ok());
    std::vector<WireFact> facts;
    for (int i = begin; i < end; ++i) facts.push_back(MakeFact(i));
    auto inserted = client.InsertFacts(facts);
    EXPECT_TRUE(inserted.ok()) << inserted.status();
    return inserted.ok() ? *inserted : -1;
  }

  core::KnowledgeBase kb;
  std::unique_ptr<ReplicationLog> log;
  std::unique_ptr<KbServer> server;
  std::unique_ptr<WalShipper> shipper;
};

/// Follower harness: base KB + read-only serving endpoint wired to the
/// replica's applied epoch.
struct Follower {
  Follower(int leader_repl_port, const std::string& dir,
           storage::Env* env = nullptr, int port = 0,
           bool start_replication = true,
           const std::string& snapshot_path = std::string()) {
    if (!snapshot_path.empty()) {
      // Instant-start bootstrap: map the leader's shipped snapshot
      // instead of re-deriving the base KB. Term ids line up with the
      // leader's, so WAL application proceeds unchanged.
      auto snap = core::OpenKbSnapshot(env, snapshot_path);
      EXPECT_TRUE(snap.ok()) << snap.status();
      kb = std::move(*core::KnowledgeBase::FromSnapshot(std::move(*snap)));
    } else {
      kb = MakeBaseKb();
    }
    KbServer::Options server_options;
    server_options.port = port;
    server_options.num_workers = 8;  // router workers + health + direct
    server_options.read_only = true;
    server_options.applied_epoch_fn = [this]() -> uint64_t {
      return replica != nullptr ? replica->applied_epoch() : 0;
    };
    server = std::make_unique<KbServer>(&kb, server_options);

    FollowerReplica::Options replica_options;
    replica_options.leader_repl_port = leader_repl_port;
    replica_options.data_dir = dir;
    replica_options.num_shards = 2;
    replica_options.reconnect_backoff_ms = 10;
    replica_options.env = env;
    auto opened = FollowerReplica::Open(replica_options, &kb, server.get());
    EXPECT_TRUE(opened.ok()) << opened.status();
    replica = std::move(*opened);

    Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status;
    if (start_replication) {
      status = replica->Start();
      EXPECT_TRUE(status.ok()) << status;
    }
  }
  ~Follower() { StopAll(); }

  void StopAll() {
    if (replica != nullptr) replica->Stop();
    if (server != nullptr) server->Stop();
  }

  core::KnowledgeBase kb;
  std::unique_ptr<KbServer> server;
  std::unique_ptr<FollowerReplica> replica;
};

size_t CountRows(KbClient* client, const std::string& sparql) {
  auto result = client->Query(sparql, /*deadline_ms=*/-1, /*max_rows=*/-1,
                              /*no_cache=*/true);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->rows.size() : 0;
}

// ----------------------------------------------------------- protocol

TEST(ReplProtocolTest, HandshakeRoundTrip) {
  Handshake in;
  in.applied_epoch = 42;
  in.positions = {{0, 3, 128}, {1, 7, 0}};
  Handshake out;
  ASSERT_TRUE(DecodeHandshake(Slice(EncodeHandshake(in)), &out).ok());
  EXPECT_EQ(out.applied_epoch, 42u);
  ASSERT_EQ(out.positions.size(), 2u);
  EXPECT_EQ(out.positions[0].gen, 3u);
  EXPECT_EQ(out.positions[0].offset, 128u);
  EXPECT_EQ(out.positions[1].shard, 1u);
}

TEST(ReplProtocolTest, DataRoundRoundTrip) {
  DataRound in;
  in.epoch = 9;
  in.complete = true;
  WalChunk chunk;
  chunk.shard = 1;
  chunk.gen = 4;
  chunk.offset = 77;
  chunk.data = std::string("raw\0wal\xff bytes", 13);
  in.chunks.push_back(chunk);
  DataRound out;
  ASSERT_TRUE(DecodeDataRound(Slice(EncodeDataRound(in)), &out).ok());
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_TRUE(out.complete);
  ASSERT_EQ(out.chunks.size(), 1u);
  EXPECT_EQ(out.chunks[0].offset, 77u);
  EXPECT_EQ(out.chunks[0].data, chunk.data);
}

TEST(ReplProtocolTest, DecodersRejectTruncatedPayloads) {
  std::string frame = EncodeDataRound(DataRound{5, true, {}});
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    DataRound out;
    // Any strict prefix must fail cleanly, never crash or mis-decode.
    Status s = DecodeDataRound(Slice(frame.data(), cut), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes decoded";
  }
  Manifest manifest;
  EXPECT_FALSE(DecodeManifest(Slice(frame), &manifest).ok());  // wrong tag
}

TEST(ReplProtocolTest, FactRecordRoundTrip) {
  WireFact in;
  in.s = "Ada";
  in.p = "worksFor";
  in.o = "Acme";
  in.confidence = 0.625;
  in.support = 3;
  WireFact out;
  ASSERT_TRUE(DecodeFactRecord(Slice(EncodeFactRecord(in)), &out).ok());
  EXPECT_EQ(out.s, "Ada");
  EXPECT_EQ(out.o, "Acme");
  EXPECT_EQ(out.confidence, 0.625);
  EXPECT_EQ(out.support, 3u);

  WireFact year;
  year.s = "Acme";
  year.p = "foundedIn";
  year.has_year = true;
  year.year = -44;  // negative years survive the fixed32 cast
  ASSERT_TRUE(DecodeFactRecord(Slice(EncodeFactRecord(year)), &out).ok());
  EXPECT_TRUE(out.has_year);
  EXPECT_EQ(out.year, -44);
}

TEST(ReplProtocolTest, FactKeysSortInSequenceOrder) {
  uint64_t seq = 0;
  EXPECT_LT(FactKey(9), FactKey(10));  // fixed width beats "9" > "10"
  EXPECT_LT(FactKey(999), FactKey(1000));
  ASSERT_TRUE(ParseFactKey(Slice(FactKey(123456789)), &seq));
  EXPECT_EQ(seq, 123456789u);
  EXPECT_FALSE(ParseFactKey(Slice("!repl.epoch"), &seq));
  EXPECT_FALSE(ParseFactKey(Slice("f:123"), &seq));  // wrong width
}

// ----------------------------------------------------------- hash ring

TEST(HashRingTest, AffinityIsStableUnderDeparture) {
  HashRing ring(64);
  ring.Add("a");
  ring.Add("b");
  ring.Add("c");
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.push_back("key" + std::to_string(i));
  std::vector<std::string> before;
  for (const std::string& key : keys) before.push_back(ring.NodeFor(key));
  ring.Remove("b");
  int moved = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string after = ring.NodeFor(keys[i]);
    EXPECT_NE(after, "b");
    if (before[i] != "b" && after != before[i]) ++moved;
  }
  // Only b's arc may move; keys owned by a or c keep their owner.
  EXPECT_EQ(moved, 0);
}

TEST(HashRingTest, OrderForYieldsDistinctFailoverTargets) {
  HashRing ring(32);
  ring.Add("a");
  ring.Add("b");
  ring.Add("c");
  std::vector<std::string> order = ring.OrderFor("some-query", 3);
  ASSERT_EQ(order.size(), 3u);
  std::set<std::string> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(order[0], ring.NodeFor("some-query"));
}

// ------------------------------------------------------------- log

TEST(ReplicationLogTest, SequenceResumesAcrossReopen) {
  std::string dir = TempDir("log_resume");
  ReplicationLog::Options options;
  options.num_shards = 2;
  {
    auto log = ReplicationLog::Open(options, dir);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ((*log)->next_seq(), 0u);
    std::vector<WireFact> batch = {MakeFact(0), MakeFact(1), MakeFact(2)};
    ASSERT_TRUE((*log)->Append(batch).ok());
    EXPECT_EQ((*log)->next_seq(), 3u);
  }
  auto log = ReplicationLog::Open(options, dir);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ((*log)->next_seq(), 3u);  // no seq reuse after restart
}

// -------------------------------------------- shipping and catch-up

TEST(ReplicationTest, FollowerCatchesUpAndServesReads) {
  Leader leader(TempDir("catchup_leader"));
  Follower follower(leader.shipper->port(), TempDir("catchup_follower"));

  leader.Insert(0, 50);
  const uint64_t leader_epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= leader_epoch; },
      5000))
      << "follower stuck at epoch " << follower.replica->applied_epoch()
      << " < " << leader_epoch;

  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 50u);

  // Writes to a follower bounce with not_leader -> Unavailable.
  auto rejected = client.InsertFacts({MakeFact(999)});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable()) << rejected.status();

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->GetString("role"), "follower");
  EXPECT_GE(static_cast<uint64_t>(health->GetNumber("applied_epoch")),
            leader_epoch);
}

TEST(ReplicationTest, FollowerBootstrapsFromShippedSnapshot) {
  // Ship the leader's base KB as a FrameStore snapshot; the follower
  // maps it instead of re-harvesting, then catches up from the WAL
  // tail. Term ids come straight from the snapshot, so the shipped
  // facts land on the same ids as on the leader.
  Leader leader(TempDir("snap_leader"));
  std::string snap_dir = TempDir("snap_artifact");
  ASSERT_TRUE(storage::Env::Default()->CreateDirIfMissing(snap_dir).ok());
  std::string snap_path = snap_dir + "/base.kbsnap";
  ASSERT_TRUE(core::WriteKbSnapshot(nullptr, snap_path, leader.kb).ok());

  leader.Insert(0, 60);
  Follower follower(leader.shipper->port(), TempDir("snap_follower"),
                    /*env=*/nullptr, /*port=*/0, /*start_replication=*/true,
                    snap_path);
  ASSERT_NE(follower.kb.store().base(), nullptr) << "not snapshot-backed";
  const uint64_t leader_epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= leader_epoch; },
      5000))
      << "follower stuck at epoch " << follower.replica->applied_epoch();

  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 60u);
  EXPECT_EQ(CountRows(&client, WorksForQuery("Acme_Corp")), 1u);

  // Byte-for-byte convergence with the leader, snapshot base included.
  std::set<std::string> leader_lines, follower_lines;
  {
    std::istringstream in(leader.kb.ExportNTriples());
    std::string line;
    while (std::getline(in, line)) leader_lines.insert(line);
  }
  {
    std::istringstream in(follower.kb.ExportNTriples());
    std::string line;
    while (std::getline(in, line)) follower_lines.insert(line);
  }
  EXPECT_EQ(follower_lines, leader_lines);
}

TEST(ReplicationTest, LateJoinerBootstrapsFromRetainedGenerations) {
  Leader leader(TempDir("late_leader"));
  // Everything is written (and some WAL generations flushed + closed)
  // before the follower first connects: bootstrap must come entirely
  // from retained generations, no snapshot.
  leader.Insert(0, 120);
  ASSERT_TRUE(leader.log->store()->Flush().ok());
  leader.Insert(120, 150);
  const uint64_t leader_epoch = leader.kb.epoch();

  Follower follower(leader.shipper->port(), TempDir("late_follower"));
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= leader_epoch; },
      5000));
  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 150u);
}

TEST(ReplicationTest, FollowerRestartResumesFromPersistedPositions) {
  Leader leader(TempDir("resume_leader"));
  std::string follower_dir = TempDir("resume_follower");
  leader.Insert(0, 40);
  {
    Follower follower(leader.shipper->port(), follower_dir);
    uint64_t epoch = leader.kb.epoch();
    ASSERT_TRUE(WaitFor(
        [&] { return follower.replica->applied_epoch() >= epoch; }, 5000));
  }  // clean shutdown
  leader.Insert(40, 70);
  Follower follower(leader.shipper->port(), follower_dir);
  uint64_t epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= epoch; }, 5000));
  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 70u);
}

TEST(ReplicationTest, FollowerStoresTheLeadersFactMetadata) {
  Leader leader(TempDir("meta_leader"));
  Follower follower(leader.shipper->port(), TempDir("meta_follower"));

  // "extractor" is no insert field: neither WireFact nor the log's
  // fact record carries it, so a leader that stored it would disagree
  // with every follower.
  server::Json fact = server::Json::Object();
  fact.Set("s", server::Json::Str("Meta_Probe"));
  fact.Set("p", server::Json::Str("worksFor"));
  fact.Set("o", server::Json::Str("Globex"));
  fact.Set("confidence", server::Json::Number(0.7));
  fact.Set("support", server::Json::Number(3));
  fact.Set("extractor", server::Json::Number(7));
  server::Json facts = server::Json::Array();
  facts.Append(std::move(fact));
  server::Json request = server::Json::Object();
  request.Set("op", server::Json::Str("insert_facts"));
  request.Set("facts", std::move(facts));
  KbClient client;
  ASSERT_TRUE(client.Connect(leader.server->port()).ok());
  auto inserted = client.Call(request);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  const uint64_t epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= epoch; }, 5000));

  auto meta_of = [](KbServer* server, core::KnowledgeBase* kb) {
    core::FactMeta meta;
    meta.extractor = 99;  // neither side's value: a miss shows
    server->WithWriteLock([&] {
      const rdf::Triple fact(kb->EntityTerm("Meta_Probe"),
                             kb->PropertyTerm("worksFor"),
                             kb->EntityTerm("Globex"));
      if (const core::FactMeta* found = kb->MetaOf(fact)) meta = *found;
    });
    return meta;
  };
  const core::FactMeta on_leader = meta_of(leader.server.get(), &leader.kb);
  const core::FactMeta on_follower =
      meta_of(follower.server.get(), &follower.kb);
  EXPECT_EQ(on_leader.extractor, on_follower.extractor);
  EXPECT_EQ(on_leader.confidence, on_follower.confidence);
  EXPECT_EQ(on_leader.support, on_follower.support);
  EXPECT_EQ(on_follower.support, 3u);
}

// --------------------------------------------------- chaos: crashes

TEST(ReplicationChaosTest, FollowerCrashMidReplayRecoversAndCatchesUp) {
  Leader leader(TempDir("crash_leader"));
  std::string follower_dir = TempDir("crash_follower");
  leader.Insert(0, 200);

  storage::FaultInjectionEnv env(storage::Env::Default());
  {
    Follower follower(leader.shipper->port(), follower_dir, &env);
    // Arm the crash point once replay is moving: some store write a
    // few ops from now fails and every later one errors too, exactly
    // like the process dying mid-replay.
    ASSERT_TRUE(WaitFor(
        [&] { return follower.replica->applied_records() > 10; }, 5000));
    storage::FaultInjectionEnv::Options fault;
    fault.fail_at_op = 5;
    env.Reset(fault);
    WaitFor([&] { return env.crashed(); }, 5000);
    EXPECT_TRUE(env.crashed());
    follower.StopAll();
  }
  // "Reboot": unsynced bytes are gone, the env works again, and the
  // replica recovers from whatever WAL prefix survived.
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.Reset(storage::FaultInjectionEnv::Options());

  Follower follower(leader.shipper->port(), follower_dir, &env);
  const uint64_t leader_epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= leader_epoch; },
      10000))
      << "recovered follower stuck at "
      << follower.replica->applied_epoch();
  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  // Idempotent re-apply: exactly the leader's rows, no duplicates.
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 200u);
}

// ------------------------------------------- chaos: torn shipped frames

/// A deliberately faulty TCP proxy: the first `faulty_connections`
/// sessions are cut after forwarding `cut_after_bytes` of leader ->
/// follower traffic (tearing a frame mid-flight); later sessions pass
/// through cleanly.
class FaultyProxy {
 public:
  FaultyProxy(int target_port, int faulty_connections,
              size_t cut_after_bytes)
      : target_port_(target_port),
        faulty_left_(faulty_connections),
        cut_after_bytes_(cut_after_bytes) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Run(); });
  }
  ~FaultyProxy() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return port_; }
  int sessions() const { return sessions_.load(); }

 private:
  void Run() {
    while (!stopping_.load()) {
      int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) return;
      sessions_.fetch_add(1);
      int upstream = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(target_port_));
      if (::connect(upstream, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        ::close(client);
        ::close(upstream);
        continue;
      }
      bool faulty = faulty_left_.fetch_sub(1) > 0;
      Pump(client, upstream, faulty);
      ::close(client);
      ::close(upstream);
    }
  }

  /// Forwards both directions until EOF/stop; in faulty mode, hard-
  /// closes after cut_after_bytes of upstream->client (leader ->
  /// follower) traffic — mid-frame, from the follower's perspective.
  void Pump(int client, int upstream, bool faulty) {
    size_t shipped = 0;
    char buf[4096];
    while (!stopping_.load()) {
      pollfd fds[2] = {{client, POLLIN, 0}, {upstream, POLLIN, 0}};
      if (::poll(fds, 2, 100) < 0) return;
      for (int i = 0; i < 2; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
        int from = fds[i].fd;
        int to = from == client ? upstream : client;
        ssize_t n = ::read(from, buf, sizeof(buf));
        if (n <= 0) return;  // EOF either side ends the session
        size_t limit = static_cast<size_t>(n);
        if (faulty && from == upstream) {
          if (shipped + limit > cut_after_bytes_) {
            // Forward the torn prefix, then kill the session.
            limit = cut_after_bytes_ > shipped ? cut_after_bytes_ - shipped
                                               : 0;
            if (limit > 0) {
              [[maybe_unused]] ssize_t w = ::write(to, buf, limit);
            }
            return;
          }
          shipped += limit;
        }
        ssize_t w = ::write(to, buf, limit);
        if (w < static_cast<ssize_t>(limit)) return;
      }
    }
  }

  int target_port_;
  std::atomic<int> faulty_left_;
  size_t cut_after_bytes_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int> sessions_{0};
  std::thread thread_;
};

TEST(ReplicationChaosTest, TornShippedFramesForceCleanResync) {
  Leader leader(TempDir("torn_leader"));
  leader.Insert(0, 150);
  // The first three sessions die mid-frame at different offsets worth
  // of shipped bytes; the follower must discard the torn tail,
  // reconnect, and converge with no duplicates or gaps.
  FaultyProxy proxy(leader.shipper->port(), /*faulty_connections=*/3,
                    /*cut_after_bytes=*/700);
  Follower follower(proxy.port(), TempDir("torn_follower"));
  const uint64_t leader_epoch = leader.kb.epoch();
  ASSERT_TRUE(WaitFor(
      [&] { return follower.replica->applied_epoch() >= leader_epoch; },
      10000))
      << "follower stuck at " << follower.replica->applied_epoch()
      << " after " << proxy.sessions() << " proxy sessions";
  EXPECT_GE(proxy.sessions(), 4);  // the faulty ones + the good one
  KbClient client;
  ASSERT_TRUE(client.Connect(follower.server->port()).ok());
  EXPECT_EQ(CountRows(&client, WorksForQuery("Globex")), 150u);
}

// ------------------------------------------- router on the request core

/// A raw client socket with a 10 s receive timeout, so a response or a
/// close that never comes fails the test instead of hanging it.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Default().Snapshot().counter(name);
}

TEST(RouterCoreTest, ShedsPastCapacityAndRefusesOversizedFrames) {
  Leader leader(TempDir("core_leader"));
  Router::Options router_options;
  router_options.leader_port = leader.server->port();
  router_options.num_workers = 1;
  router_options.queue_depth = 1;
  router_options.retry_after_ms = 11;
  router_options.backend_timeout_ms = 10000;  // outlasts the stall
  Router router(router_options);
  ASSERT_TRUE(router.Start().ok());
  const uint64_t queries_before = CounterValue("server.queries");
  const uint64_t rejected_before = CounterValue("router.rejected");

  // Stall the leader by holding its exclusive KB lock: the router's
  // only worker then parks on the first query it forwards there.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> held{false};
  std::thread staller([&] {
    leader.server->WithWriteLock([&] {
      held.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  });
  // EXPECT (never ASSERT) until the staller is joined.
  EXPECT_TRUE(WaitFor([&] { return held.load(); }, 5000));
  server::Json query = server::Json::Object();
  query.Set("op", server::Json::Str("query"));
  query.Set("sparql", server::Json::Str(WorksForQuery("Acme_Corp")));
  const std::string payload = query.Dump();
  int fd = RawConnect(router.port());
  EXPECT_TRUE(server::WriteFrame(fd, payload).ok());
  EXPECT_TRUE(WaitFor(
      [&] { return CounterValue("server.queries") > queries_before; }, 5000));
  // Frame 2 takes the only queue slot; frame 3 is past capacity.
  EXPECT_TRUE(server::WriteFrame(fd, payload).ok());
  EXPECT_TRUE(server::WriteFrame(fd, payload).ok());
  EXPECT_TRUE(WaitFor(
      [&] { return CounterValue("router.rejected") == rejected_before + 1; },
      5000));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  staller.join();

  std::string response;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server::ReadFrame(fd, &response).ok());
    EXPECT_NE(response.find("\"row_count\":1"), std::string::npos)
        << response;
  }
  ASSERT_TRUE(server::ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(response.find("\"retry_after_ms\":11"), std::string::npos);
  Status eof = server::ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsAborted()) << eof;  // shed connections close
  ::close(fd);

  // A length prefix over the frame limit cannot be re-framed: the core
  // answers bad_frame and closes, counted as a router error.
  const uint64_t errors_before = CounterValue("router.errors");
  fd = RawConnect(router.port());
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 4);
  ASSERT_TRUE(server::ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"error\":\"bad_frame\""), std::string::npos);
  EXPECT_EQ(CounterValue("router.errors"), errors_before + 1);
  ::close(fd);
  router.Stop();
}

// ----------------------------------------------- chaos: router failover

TEST(ReplicationChaosTest, RouterFailoverDropsNoInFlightQueries) {
  Leader leader(TempDir("router_leader"));
  leader.Insert(0, 30);
  const uint64_t epoch0 = leader.kb.epoch();

  Follower f1(leader.shipper->port(), TempDir("router_f1"));
  Follower f2(leader.shipper->port(), TempDir("router_f2"));
  ASSERT_TRUE(WaitFor(
      [&] {
        return f1.replica->applied_epoch() >= epoch0 &&
               f2.replica->applied_epoch() >= epoch0;
      },
      5000));

  Router::Options router_options;
  router_options.leader_port = leader.server->port();
  router_options.replica_ports = {f1.server->port(), f2.server->port()};
  router_options.health_interval_ms = 10;
  router_options.probe_interval_ms = 20;
  router_options.fail_threshold = 2;
  // Generous: under a parallel ctest run this machine is saturated and
  // a tight timeout makes the health checker eject healthy backends.
  router_options.backend_timeout_ms = 3000;
  router_options.failover.max_attempts = 6;
  router_options.failover.base_backoff_ms = 5;
  router_options.failover.max_backoff_ms = 40;
  Router router(router_options);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.healthy_replicas().size() == 2; },
                      2000));

  // Four client threads hammer reads through the router while one
  // replica is killed and later restarted. Every single query must
  // succeed with the full answer: errors would mean failover dropped
  // an in-flight query, short answers would mean the router readmitted
  // the restarted (still backfilling) replica before it caught up.
  std::atomic<int> errors{0};
  std::atomic<int> stale{0};
  std::atomic<int> successes{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      KbClient client;
      if (!client.Connect(router.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      int i = 0;
      while (!done.load()) {
        auto result = client.Query(WorksForQuery("Globex"),
                                   /*deadline_ms=*/-1, /*max_rows=*/-1,
                                   /*no_cache=*/(i++ % 2 == t % 2));
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (result->rows.size() != 30u) {
          stale.fetch_add(1);
        } else {
          successes.fetch_add(1);
        }
        if (!result.ok() && !client.connected()) {
          if (!client.Connect(router.port()).ok()) break;
        }
      }
    });
  }

  // EXPECT (never ASSERT) from here down: an early return with the
  // client threads still joinable would terminate the process.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int f1_port = f1.server->port();
  f1.StopAll();  // kill one replica mid-stream
  EXPECT_TRUE(WaitFor([&] { return router.healthy_replicas().size() == 1; },
                      5000));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Restart the replica's serving endpoint on the same port; the
  // router's probe should readmit it.
  Follower f1b(leader.shipper->port(), TempDir("router_f1b"), nullptr,
               f1_port);
  EXPECT_TRUE(WaitFor(
      [&] { return f1b.replica->applied_epoch() >= epoch0; }, 10000));
  EXPECT_TRUE(WaitFor([&] { return router.healthy_replicas().size() == 2; },
                      10000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  done.store(true);
  for (std::thread& thread : clients) thread.join();
  const int total = errors.load() + stale.load() + successes.load();
  EXPECT_EQ(errors.load(), 0)
      << "dropped " << errors.load() << " of " << total
      << " in-flight queries";
  EXPECT_EQ(stale.load(), 0)
      << stale.load() << " of " << total
      << " reads served by the backfilling replica";
  EXPECT_GT(successes.load(), 100);
  router.Stop();
}

// --------------------------------------- chaos: read-your-writes on lag

TEST(ReplicationChaosTest, ReadYourWritesHoldsUnderReplicaLag) {
  Leader leader(TempDir("ryw_leader"));
  // This follower never starts its replication session: it is frozen
  // at applied epoch 0, maximally stale.
  Follower lagging(leader.shipper->port(), TempDir("ryw_follower"), nullptr,
                   /*port=*/0, /*start_replication=*/false);

  Router::Options router_options;
  router_options.leader_port = leader.server->port();
  router_options.replica_ports = {lagging.server->port()};
  router_options.health_interval_ms = 10;
  router_options.failover.max_attempts = 4;
  Router router(router_options);
  ASSERT_TRUE(router.Start().ok());

  server::ClientOptions client_options;
  client_options.read_your_writes = true;
  KbClient client(client_options);
  ASSERT_TRUE(client.Connect(router.port()).ok());
  ASSERT_TRUE(client.InsertFacts({MakeFact(7000)}).ok());
  EXPECT_GT(client.last_write_epoch(), 0u);

  // Without the epoch guard this query could land on the frozen
  // replica and miss our own write; with it, every read sees the
  // inserted fact, every time.
  for (int i = 0; i < 10; ++i) {
    auto result = client.Query(WorksForQuery("Globex"), -1, -1,
                               /*no_cache=*/true);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.size(), 1u) << "stale read on iteration " << i;
  }

  // Directly against the lagging follower, min_epoch is answered with
  // stale_replica (surfaced as Unavailable).
  KbClient direct;
  ASSERT_TRUE(direct.Connect(lagging.server->port()).ok());
  server::Json request = server::Json::Object();
  request.Set("op", server::Json::Str("query"));
  request.Set("sparql", server::Json::Str(WorksForQuery("Globex")));
  request.Set("min_epoch",
              server::Json::Number(
                  static_cast<double>(client.last_write_epoch())));
  auto stale = direct.Call(request);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsUnavailable()) << stale.status();
  EXPECT_NE(stale.status().message().find("stale_replica"),
            std::string::npos);
  router.Stop();
}

// --------------------------------------------- property: prefix closure

TEST(ReplicationPropertyTest, AnyShippedWalPrefixIsAConsistentSnapshot) {
  std::string dir = TempDir("prefix_property");
  ReplicationLog::Options options;
  options.num_shards = 2;
  options.memtable_bytes = 4 << 10;  // force several generations
  auto opened = ReplicationLog::Open(options, dir);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<ReplicationLog> log = std::move(*opened);
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(
        log->Append({MakeFact(i), MakeFact(i + 1), MakeFact(i + 2)}).ok());
  }
  ASSERT_TRUE(log->store()->Flush().ok());

  for (int shard = 0; shard < 2; ++shard) {
    auto gens = log->store()->WalGenerations(shard);
    ASSERT_TRUE(gens.ok());
    ASSERT_GT(gens->size(), 1u) << "wanted multiple generations";

    // Full replay order of this shard: concatenate all generations.
    std::vector<uint64_t> full_order;
    std::string all_bytes;
    for (const auto& gen : *gens) {
      auto contents = storage::Env::Default()->ReadFileToString(gen.path);
      ASSERT_TRUE(contents.ok());
      all_bytes += *contents;
    }
    uint64_t consumed = 0;
    ASSERT_TRUE(storage::ParseWalChunk(
                    Slice(all_bytes), &consumed,
                    [&](storage::EntryType, const Slice& key, const Slice&) {
                      uint64_t seq = 0;
                      if (ParseFactKey(key, &seq)) full_order.push_back(seq);
                    })
                    .ok());
    ASSERT_EQ(consumed, all_bytes.size()) << "torn bytes in a closed wal";

    // Property: replaying ANY byte prefix yields exactly a prefix of
    // the full record sequence — never a reordering, never a hole.
    // (Sampled stride keeps the quadratic scan cheap.)
    for (size_t cut = 0; cut <= all_bytes.size();
         cut += 97) {  // prime stride hits records mid-field
      std::vector<uint64_t> prefix_order;
      uint64_t prefix_consumed = 0;
      ASSERT_TRUE(
          storage::ParseWalChunk(
              Slice(all_bytes.data(), cut), &prefix_consumed,
              [&](storage::EntryType, const Slice& key, const Slice&) {
                uint64_t seq = 0;
                if (ParseFactKey(key, &seq)) prefix_order.push_back(seq);
              })
              .ok());
      ASSERT_LE(prefix_order.size(), full_order.size());
      for (size_t i = 0; i < prefix_order.size(); ++i) {
        ASSERT_EQ(prefix_order[i], full_order[i])
            << "divergence at record " << i << " for byte prefix " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace replication
}  // namespace kb
