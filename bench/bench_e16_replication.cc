// E16: what the replicated serving tier buys.
//
// Two measurements. First, staleness vs. replication lag: a follower
// tails the leader's WAL at two shipper poll intervals while a write
// burst lands, and we record the worst observed epoch lag and the
// time from last write to full catch-up — the knob that trades
// shipping overhead against read staleness.
//
// Second, ride-through read throughput. On a one-core runner, replicas
// cannot add raw CPU, so the honest scaling claim is availability: a
// replica that stalls (modeled with the server's own exclusive KB
// lock — the replay/compaction stall seam) blocks every read hashed
// to it until the router's per-request timeout fires and the health
// machine ejects it. A one-replica tier pays that price on *every*
// query shape; a two-replica tier keeps the shapes hashed to the
// healthy replica at full speed and fails the rest over. Aggregate
// reads through an identical stall schedule must therefore be
// strictly higher with two replicas — the --smoke assertion — and
// failover must absorb every stall (zero client-visible errors).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/knowledge_base.h"
#include "rdf/namespaces.h"
#include "replication/follower.h"
#include "replication/hash_ring.h"
#include "replication/repl_log.h"
#include "replication/router.h"
#include "replication/wal_shipper.h"
#include "server/kb_client.h"
#include "server/kb_server.h"

using namespace kb;

namespace {

constexpr int kCompanies = 16;

std::string TempDir(const std::string& name) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("kbforge_bench_e16_" + name))
          .string();
  std::filesystem::remove_all(path);
  return path;
}

/// Leader and followers build the same deterministic base; replication
/// ships only the inserted delta.
core::KnowledgeBase MakeBaseKb() {
  core::KnowledgeBase kb;
  kb.AssertSubclass("company", "organization");
  for (int c = 0; c < kCompanies; ++c) {
    kb.AssertType("E16_Co_" + std::to_string(c), "company");
  }
  return kb;
}

server::WireFact MakeFact(uint64_t i) {
  server::WireFact fact;
  fact.s = "E16_Person_" + std::to_string(i);
  fact.p = "worksFor";
  fact.o = "E16_Co_" + std::to_string(i % kCompanies);
  fact.confidence = 0.9;
  return fact;
}

std::string MemberQuery(int company) {
  return "SELECT ?p WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> <" +
         rdf::EntityIri("E16_Co_" + std::to_string(company)) + "> . }";
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

struct Leader {
  Leader(const std::string& dir, double poll_interval_ms) {
    kb = MakeBaseKb();
    replication::ReplicationLog::Options log_options;
    log_options.num_shards = 2;
    auto opened = replication::ReplicationLog::Open(log_options, dir);
    if (!opened.ok()) {
      fprintf(stderr, "repl log open failed: %s\n",
              opened.status().ToString().c_str());
      exit(1);
    }
    log = std::move(*opened);

    server::KbServer::Options server_options;
    // Router workers each cache a connection and the health checker
    // holds one more; the worker pool must exceed that sum plus any
    // direct clients or new connections starve.
    server_options.num_workers = 12;
    server_options.queue_depth = 64;
    server_options.pre_insert_hook =
        [this](const std::vector<server::WireFact>& batch) {
          return log->Append(batch);
        };
    server = std::make_unique<server::KbServer>(&kb, server_options);
    replication::WalShipper::Options ship;
    ship.poll_interval_ms = poll_interval_ms;
    shipper = std::make_unique<replication::WalShipper>(
        log.get(), [this] { return kb.epoch(); }, ship);
    if (!server->Start().ok() || !shipper->Start().ok()) {
      fprintf(stderr, "leader start failed\n");
      exit(1);
    }
  }
  ~Leader() {
    shipper->Stop();
    server->Stop();
  }

  void Insert(uint64_t begin, uint64_t end, size_t batch = 100) {
    server::KbClient client;
    if (!client.Connect(server->port()).ok()) {
      fprintf(stderr, "leader connect failed\n");
      exit(1);
    }
    for (uint64_t i = begin; i < end;) {
      std::vector<server::WireFact> facts;
      for (size_t b = 0; b < batch && i < end; ++b, ++i) {
        facts.push_back(MakeFact(i));
      }
      auto inserted = client.InsertFacts(facts);
      if (!inserted.ok()) {
        fprintf(stderr, "insert failed: %s\n",
                inserted.status().ToString().c_str());
        exit(1);
      }
    }
  }

  core::KnowledgeBase kb;
  std::unique_ptr<replication::ReplicationLog> log;
  std::unique_ptr<server::KbServer> server;
  std::unique_ptr<replication::WalShipper> shipper;
};

struct Follower {
  Follower(int leader_repl_port, const std::string& dir) {
    kb = MakeBaseKb();
    server::KbServer::Options server_options;
    server_options.num_workers = 12;
    server_options.queue_depth = 64;
    server_options.read_only = true;
    server_options.applied_epoch_fn = [this]() -> uint64_t {
      return replica != nullptr ? replica->applied_epoch() : 0;
    };
    server = std::make_unique<server::KbServer>(&kb, server_options);

    replication::FollowerReplica::Options replica_options;
    replica_options.leader_repl_port = leader_repl_port;
    replica_options.data_dir = dir;
    replica_options.num_shards = 2;
    replica_options.reconnect_backoff_ms = 10;
    auto opened =
        replication::FollowerReplica::Open(replica_options, &kb, server.get());
    if (!opened.ok()) {
      fprintf(stderr, "follower open failed: %s\n",
              opened.status().ToString().c_str());
      exit(1);
    }
    replica = std::move(*opened);
    if (!server->Start().ok() || !replica->Start().ok()) {
      fprintf(stderr, "follower start failed\n");
      exit(1);
    }
  }
  ~Follower() {
    replica->Stop();
    server->Stop();
  }

  core::KnowledgeBase kb;
  std::unique_ptr<server::KbServer> server;
  std::unique_ptr<replication::FollowerReplica> replica;
};

// ------------------------------------------------ staleness vs. lag

struct StalenessRun {
  uint64_t max_lag_epochs = 0;
  double catchup_ms = 0;
  bool caught_up = false;
  uint64_t applied_records = 0;
};

StalenessRun RunStaleness(double poll_interval_ms, uint64_t facts,
                          const std::string& tag) {
  Leader leader(TempDir("stale_leader_" + tag), poll_interval_ms);
  core::KnowledgeBase follower_kb = MakeBaseKb();
  replication::FollowerReplica::Options options;
  options.leader_repl_port = leader.shipper->port();
  options.data_dir = TempDir("stale_follower_" + tag);
  options.num_shards = 2;
  options.reconnect_backoff_ms = 10;
  auto opened =
      replication::FollowerReplica::Open(options, &follower_kb, nullptr);
  if (!opened.ok()) {
    fprintf(stderr, "follower open failed\n");
    exit(1);
  }
  std::unique_ptr<replication::FollowerReplica> replica = std::move(*opened);
  replica->Start();

  StalenessRun run;
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      uint64_t epoch = leader.kb.epoch();
      uint64_t applied = replica->applied_epoch();
      if (epoch > applied && epoch - applied > run.max_lag_epochs) {
        run.max_lag_epochs = epoch - applied;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  leader.Insert(0, facts, /*batch=*/50);
  kbbench::Timer catchup;
  run.caught_up = WaitFor(
      [&] { return replica->applied_epoch() >= leader.kb.epoch(); }, 30000);
  run.catchup_ms = catchup.ms();
  done.store(true);
  sampler.join();
  run.applied_records = replica->applied_records();
  replica->Stop();
  return run;
}

// --------------------------------------------- ride-through reading

struct RideThroughRun {
  double calm_qps = 0;
  double ride_qps = 0;
  uint64_t ride_reads = 0;
  uint64_t errors = 0;  ///< client-visible failures or wrong row counts
  int shapes_on_stalled = 0;
  int num_clients = 0;
};

/// One tier (leader + `num_replicas` followers + router), 8 pinned
/// closed-loop reader threads, a calm window, then a window with two
/// exclusive-lock stalls on the first follower.
RideThroughRun RunRideThrough(int num_replicas, uint64_t preload,
                              double calm_ms, const std::string& tag) {
  // A lazy shipper poll: the tier is idle after preload, and on a
  // one-core runner per-session wakeups are pure overhead that would
  // penalize the larger tier.
  Leader leader(TempDir("ride_leader_" + tag), /*poll_interval_ms=*/20);
  std::vector<std::unique_ptr<Follower>> followers;
  for (int r = 0; r < num_replicas; ++r) {
    followers.push_back(std::make_unique<Follower>(
        leader.shipper->port(),
        TempDir("ride_follower_" + tag + "_" + std::to_string(r))));
  }
  leader.Insert(0, preload);
  for (auto& follower : followers) {
    if (!WaitFor(
            [&] {
              return follower->replica->applied_epoch() >= leader.kb.epoch();
            },
            30000)) {
      fprintf(stderr, "follower never caught up\n");
      exit(1);
    }
  }

  replication::Router::Options router_options;
  router_options.leader_port = leader.server->port();
  for (auto& follower : followers) {
    router_options.replica_ports.push_back(follower->server->port());
  }
  router_options.num_workers = 10;
  router_options.queue_depth = 64;
  router_options.backend_timeout_ms = 300;
  router_options.health_interval_ms = 50;
  router_options.probe_interval_ms = 50;
  router_options.fail_threshold = 3;
  router_options.failover.max_attempts = 4;
  router_options.failover.base_backoff_ms = 5;
  router_options.failover.max_backoff_ms = 50;
  replication::Router router(router_options);
  if (!router.Start().ok()) {
    fprintf(stderr, "router start failed\n");
    exit(1);
  }

  // Pick the 8 client query shapes. The ring pins each shape to one
  // replica; with two replicas we deliberately pick 4 shapes per owner
  // so the stall leaves half the clients on the healthy arc (the same
  // ring and names the router builds, so the mapping is exact).
  const std::string stalled_name =
      "replica:" + std::to_string(followers[0]->server->port());
  replication::HashRing ring;
  for (int port : router_options.replica_ports) {
    ring.Add("replica:" + std::to_string(port));
  }
  std::vector<int> on_stalled, on_healthy;
  for (int c = 0; c < kCompanies; ++c) {
    (ring.NodeFor(MemberQuery(c)) == stalled_name ? on_stalled : on_healthy)
        .push_back(c);
  }
  std::vector<int> shapes;
  for (int i = 0; shapes.size() < 8 && i < kCompanies; ++i) {
    if (i < static_cast<int>(on_stalled.size()) && shapes.size() < 8) {
      shapes.push_back(on_stalled[i]);
    }
    if (i < static_cast<int>(on_healthy.size()) && shapes.size() < 8) {
      shapes.push_back(on_healthy[i]);
    }
  }

  RideThroughRun run;
  run.num_clients = static_cast<int>(shapes.size());
  for (int c : shapes) {
    if (ring.NodeFor(MemberQuery(c)) == stalled_name) {
      ++run.shapes_on_stalled;
    }
  }

  const size_t expected_rows = preload / kCompanies;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_reads{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> clients;
  for (int c : shapes) {
    clients.emplace_back([&, c] {
      server::ClientOptions copts;
      copts.timeout_ms = 10000;  // outlive a full failover walk
      server::KbClient client(copts);
      if (!client.Connect(router.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      const std::string sparql = MemberQuery(c);
      while (!stop.load(std::memory_order_acquire)) {
        // no_cache: a cached hit never touches the KB lock, so it
        // would sail through the stall this phase exists to measure.
        auto result = client.Query(sparql, /*deadline_ms=*/-1,
                                   /*max_rows=*/-1, /*no_cache=*/true);
        if (result.ok() && result->rows.size() == expected_rows) {
          ok_reads.fetch_add(1, std::memory_order_acq_rel);
        } else {
          errors.fetch_add(1, std::memory_order_acq_rel);
          client.Close();
          if (!client.Connect(router.port()).ok()) return;
        }
      }
    });
  }

  // Calm window: no faults, steady-state cached reads.
  kbbench::Timer calm;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(calm_ms));
  const uint64_t calm_reads = ok_reads.load();
  run.calm_qps = static_cast<double>(calm_reads) / calm.seconds();

  // Ride-through window: two 1.5s stalls on followers[0], held via the
  // server's own exclusive KB lock (the replay/compaction stall seam).
  // Identical schedule for every replica count.
  const auto t0 = std::chrono::steady_clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  std::thread staller([&] {
    for (int start : {500, 3500}) {
      std::this_thread::sleep_until(at(start));
      followers[0]->server->WithWriteLock(
          [&] { std::this_thread::sleep_until(at(start + 1500)); });
    }
  });
  std::this_thread::sleep_until(at(5800));
  const uint64_t ride_end = ok_reads.load();
  run.ride_reads = ride_end - calm_reads;
  run.ride_qps = static_cast<double>(run.ride_reads) / 5.8;
  staller.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  run.errors = errors.load();

  router.Stop();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::BenchArgs args = kbbench::ParseArgs(argc, argv);
  kbbench::Banner(
      "E16: replicated serving tier — staleness and ride-through",
      "WAL shipping keeps follower staleness bounded by the shipper "
      "poll interval, and extra replicas keep reads flowing while one "
      "replica stalls (failover absorbs the fault, clients see none)",
      "catch-up completes after a write burst at every poll interval; "
      "two replicas serve strictly more reads than one through an "
      "identical stall schedule, with zero client-visible errors");

  bool ok = true;

  // --- staleness vs. replication lag ------------------------------
  const uint64_t stale_facts = args.Scaled(4000, 1000);
  kbbench::Row("%-12s %10s %14s %12s", "poll_ms", "facts", "max_lag_epochs",
               "catchup_ms");
  for (double poll : {2.0, 25.0}) {
    std::string w = "poll" + std::to_string(static_cast<int>(poll));
    StalenessRun run = RunStaleness(poll, stale_facts, w);
    kbbench::Row("%-12.0f %10llu %14llu %12.1f", poll,
                 static_cast<unsigned long long>(stale_facts),
                 static_cast<unsigned long long>(run.max_lag_epochs),
                 run.catchup_ms);
    kbbench::Report("e16_replication", "staleness_max_lag_epochs",
                    static_cast<double>(run.max_lag_epochs), w);
    kbbench::Report("e16_replication", "staleness_catchup_ms",
                    run.catchup_ms, w);
    if (!run.caught_up || run.applied_records < stale_facts) {
      fprintf(stderr,
              "FAIL: follower at poll=%.0fms applied %llu/%llu records "
              "(caught_up=%d)\n",
              poll, static_cast<unsigned long long>(run.applied_records),
              static_cast<unsigned long long>(stale_facts), run.caught_up);
      ok = false;
    }
  }

  // --- ride-through read throughput vs. replica count -------------
  const uint64_t preload = args.Scaled(4800, 1600);
  const double calm_ms = args.Scaled(2500, 1200);
  kbbench::Row("%-10s %8s %12s %12s %12s %7s", "replicas", "stalled",
               "calm_qps", "ride_qps", "ride_reads", "errors");
  RideThroughRun runs[2];
  int idx = 0;
  for (int replicas : {1, 2}) {
    std::string w = "r" + std::to_string(replicas);
    RideThroughRun run = RunRideThrough(replicas, preload,
                                        static_cast<double>(calm_ms), w);
    kbbench::Row("%-10d %d/%-6d %12.0f %12.0f %12llu %7llu", replicas,
                 run.shapes_on_stalled, run.num_clients, run.calm_qps,
                 run.ride_qps,
                 static_cast<unsigned long long>(run.ride_reads),
                 static_cast<unsigned long long>(run.errors));
    kbbench::Report("e16_replication", "throughput_calm", run.calm_qps, w);
    kbbench::Report("e16_replication", "throughput_ridethrough",
                    run.ride_qps, w);
    kbbench::Report("e16_replication", "errors_ridethrough",
                    static_cast<double>(run.errors), w);
    if (run.errors != 0) {
      fprintf(stderr, "FAIL: %llu client-visible errors with %d replicas\n",
              static_cast<unsigned long long>(run.errors), replicas);
      ok = false;
    }
    runs[idx++] = run;
  }
  kbbench::Report("e16_replication", "ridethrough_gain",
                  runs[0].ride_qps > 0 ? runs[1].ride_qps / runs[0].ride_qps
                                       : 0.0);

  // The tier-level scaling claim: through an identical stall schedule
  // the two-replica tier must serve strictly more reads, because only
  // the shapes hashed to the stalled arc pay the failover price.
  if (args.smoke) {
    if (runs[1].ride_reads <= runs[0].ride_reads) {
      fprintf(stderr,
              "SMOKE FAIL: 2 replicas served %llu reads <= 1 replica's "
              "%llu through the same stall schedule\n",
              static_cast<unsigned long long>(runs[1].ride_reads),
              static_cast<unsigned long long>(runs[0].ride_reads));
      ok = false;
    }
    if (ok) {
      kbbench::Row("smoke assertions passed: catch-up at every poll "
                   "interval, 2-replica ride-through %.2fx the 1-replica "
                   "tier, zero client-visible errors",
                   runs[0].ride_reads > 0
                       ? static_cast<double>(runs[1].ride_reads) /
                             static_cast<double>(runs[0].ride_reads)
                       : 0.0);
    }
  }
  return ok ? 0 : 1;
}
