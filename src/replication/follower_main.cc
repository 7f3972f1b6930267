// kbforge_follower: a read-only replica of a kbforge_serve leader.
//
// Builds the same deterministic base KB as the leader (same
// --persons/--seed), opens (or crash-recovers) its local replication
// store, replays whatever it already holds, then connects to the
// leader's WalShipper and applies shipped WAL generations
// continuously. Serves query/entity_card/health on its own port;
// insert_facts is answered with "not_leader".
//
// Usage:
//   kbforge_follower --leader-repl-port=N --data-dir=PATH
//                    [--port=N] [--workers=N] [--queue=N]
//                    [--cache-bytes=N] [--persons=N] [--seed=N]
//                    [--drain-ms=MS] [--snapshot=PATH]
//
// With --snapshot the base KB is bootstrapped by mapping a shipped
// FrameStore snapshot (the leader's --write-snapshot artifact) instead
// of re-harvesting — the follower cold-starts in milliseconds and then
// catches up from the WAL tail as usual. The snapshot must come from
// the same leader lineage so term ids line up with the shipped WAL.

#include <cstdio>
#include <memory>
#include <string>

#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "replication/follower.h"
#include "server/cli.h"
#include "server/kb_server.h"

int main(int argc, char** argv) {
  using namespace kb;
  using server::FlagString;
  using server::FlagValue;

  // The connection cap (workers + queue unless --max-connections is
  // set) must exceed a fronting router's workers + 1: the router parks
  // one cached data connection per worker plus one persistent health
  // connection on every backend (DESIGN.md §5d).
  long port = 7481, workers = 8, queue = 16, cache_bytes = 8 << 20;
  long persons = 400, seed = 4242, drain_ms = 2000;
  long leader_repl_port = -1;
  std::string data_dir, snapshot_path;
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (FlagValue(argv[i], "--port", &v)) port = v;
    else if (FlagValue(argv[i], "--workers", &v)) workers = v;
    else if (FlagValue(argv[i], "--queue", &v)) queue = v;
    else if (FlagValue(argv[i], "--cache-bytes", &v)) cache_bytes = v;
    else if (FlagValue(argv[i], "--persons", &v)) persons = v;
    else if (FlagValue(argv[i], "--seed", &v)) seed = v;
    else if (FlagValue(argv[i], "--drain-ms", &v)) drain_ms = v;
    else if (FlagValue(argv[i], "--leader-repl-port", &v)) {
      leader_repl_port = v;
    } else if (FlagString(argv[i], "--data-dir", &data_dir)) {
    } else if (FlagString(argv[i], "--snapshot", &snapshot_path)) {
    } else {
      ::fprintf(stderr,
                "usage: %s --leader-repl-port=N --data-dir=PATH [--port=N] "
                "[--workers=N] [--queue=N] [--cache-bytes=N] [--persons=N] "
                "[--seed=N] [--drain-ms=MS] [--snapshot=PATH]\n",
                argv[0]);
      return 2;
    }
  }
  if (leader_repl_port < 0 || data_dir.empty()) {
    ::fprintf(stderr,
              "--leader-repl-port and --data-dir are required\n");
    return 2;
  }

  if (!server::TrapStopSignals()) {
    ::fprintf(stderr, "pipe failed\n");
    return 1;
  }

  // The base KB must match the leader's — either mapped from the
  // leader's shipped snapshot artifact, or re-derived byte for byte
  // with the same seeds — so replication only has to ship the delta.
  core::HarvestResult result;
  if (!snapshot_path.empty()) {
    auto snap = core::OpenKbSnapshot(nullptr, snapshot_path);
    if (!snap.ok()) {
      ::fprintf(stderr, "snapshot open failed: %s\n",
                snap.status().ToString().c_str());
      return 1;
    }
    result.kb = std::move(*core::KnowledgeBase::FromSnapshot(std::move(*snap)));
    ::printf("base KB (snapshot %s): %zu triples, %zu entities\n",
             snapshot_path.c_str(), result.kb.NumTriples(),
             result.kb.NumEntities());
  } else {
    corpus::WorldOptions world_options;
    world_options.seed = static_cast<uint64_t>(seed);
    world_options.num_persons = static_cast<size_t>(persons);
    corpus::CorpusOptions corpus_options;
    corpus_options.seed = static_cast<uint64_t>(seed) + 1;
    corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
    core::Harvester harvester;
    result = harvester.Harvest(corpus);
    ::printf("base KB: %zu triples, %zu entities\n", result.kb.NumTriples(),
             result.kb.NumEntities());
  }

  std::unique_ptr<replication::FollowerReplica> replica;
  server::KbServer::Options options;
  options.port = static_cast<int>(port);
  options.num_workers = static_cast<int>(workers);
  options.queue_depth = static_cast<size_t>(queue);
  options.cache_bytes = static_cast<size_t>(cache_bytes);
  options.read_only = true;
  options.applied_epoch_fn = [&replica]() -> uint64_t {
    return replica != nullptr ? replica->applied_epoch() : 0;
  };
  server::KbServer server(&result.kb, options);

  replication::FollowerReplica::Options replica_options;
  replica_options.leader_repl_port = static_cast<int>(leader_repl_port);
  replica_options.data_dir = data_dir;
  auto opened = replication::FollowerReplica::Open(replica_options,
                                                   &result.kb, &server);
  if (!opened.ok()) {
    ::fprintf(stderr, "replica open failed: %s\n",
              opened.status().ToString().c_str());
    return 1;
  }
  replica = std::move(*opened);

  Status status = server.Start();
  if (!status.ok()) {
    ::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  status = replica->Start();
  if (!status.ok()) {
    ::fprintf(stderr, "replication start failed: %s\n",
              status.ToString().c_str());
    return 1;
  }
  ::printf("follower listening on 127.0.0.1:%d (leader repl port %ld)\n",
           server.port(), leader_repl_port);
  ::fflush(stdout);

  server::WaitForStopSignal();
  ::printf("draining\n");
  ::fflush(stdout);
  replica->Stop();
  server.Drain(static_cast<double>(drain_ms));
  ::printf("stopped at applied epoch %llu\n",
           static_cast<unsigned long long>(replica->applied_epoch()));
  return 0;
}
