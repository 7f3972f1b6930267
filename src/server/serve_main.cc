// kbforge_serve: stand up a KbServer over a harvested KB.
//
// The KB is built the same way the examples build theirs — synthesize
// a corpus, harvest it — so the binary is self-contained: no data
// files, deterministic content, ready for load generators to point at.
//
// Usage:
//   kbforge_serve [--port=N] [--workers=N] [--queue=N]
//                 [--io-threads=N] [--backlog=N] [--max-connections=N]
//                 [--idle-timeout-ms=MS] [--max-pipeline=N]
//                 [--cache-bytes=N] [--deadline-ms=MS] [--max-rows=N]
//                 [--persons=N] [--seed=N] [--drain-ms=MS]
//                 [--repl-port=N] [--repl-data-dir=PATH]
//                 [--repl-shards=N]
//                 [--snapshot=PATH] [--write-snapshot=PATH]
//                 [--volume=DIR] [--checkpoint-interval-s=N]
//                 [--checkpoint-threshold=N]
//
// The server runs on the epoll event core (DESIGN.md §5f):
// --io-threads epoll loops own every connection fd while --workers
// threads execute requests, so held-open connections cost no worker.
// --max-connections (0 = workers + queue) sheds excess accepts,
// --idle-timeout-ms reaps silent connections, --max-pipeline bounds
// per-connection in-flight requests.
//
// --snapshot=PATH boots the KB by mapping a FrameStore snapshot file
// instead of harvesting — the instant-start path (milliseconds instead
// of a full corpus build). --write-snapshot=PATH harvests as usual,
// serializes the KB into PATH and exits 0; pair them across runs:
//   kbforge_serve --write-snapshot=kb.kbsnap
//   kbforge_serve --snapshot=kb.kbsnap
//
// --volume=DIR serves out of a KbVolume home directory (snapshot
// generations + deltas): boot takes the newest valid snapshot plus
// delta replay, an empty volume is seeded by the usual harvest, and
// the delta is persisted on clean shutdown. With
// --checkpoint-interval-s=N a background thread wakes every N seconds
// and — once the delta has grown by --checkpoint-threshold triples
// (default 5000) since the last checkpoint — compacts base+delta into
// the next snapshot generation *while serving*: the checkpoint runs
// under the server's exclusive KB lock, which quiesces every in-flight
// read and write for the duration, and the result cache survives
// because the swap preserves the write epoch.
//
// With --repl-port the process runs as a replication *leader*: every
// accepted insert is appended to a WAL-backed replication log before
// the KB applies it, and a WalShipper on that port streams the log to
// kbforge_follower processes.
//
// Prints "listening on 127.0.0.1:<port>" once ready, then blocks until
// SIGINT/SIGTERM. The first signal drains gracefully (stop admitting,
// finish in-flight work, up to --drain-ms); a second signal forces an
// immediate stop.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include <chrono>

#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "replication/repl_log.h"
#include "replication/wal_shipper.h"
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
  long port = 7471, workers = 8, queue = 16;
  long io_threads = 2, backlog = 0, max_connections = 0;
  long idle_timeout_ms = 0, max_pipeline = 128;
  long cache_bytes = 8 << 20, deadline_ms = 0, max_rows = 0;
  long persons = 400, seed = 4242, drain_ms = 2000;
  long repl_port = -1, repl_shards = 4;
  long checkpoint_interval_s = 0, checkpoint_threshold = 5000;
  std::string repl_data_dir = "kbforge-repl-log";
  std::string snapshot_path, write_snapshot_path, volume_dir;
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (FlagValue(argv[i], "--port", &v)) port = v;
    else if (FlagValue(argv[i], "--workers", &v)) workers = v;
    else if (FlagValue(argv[i], "--queue", &v)) queue = v;
    else if (FlagValue(argv[i], "--io-threads", &v)) io_threads = v;
    else if (FlagValue(argv[i], "--backlog", &v)) backlog = v;
    else if (FlagValue(argv[i], "--max-connections", &v)) max_connections = v;
    else if (FlagValue(argv[i], "--idle-timeout-ms", &v)) idle_timeout_ms = v;
    else if (FlagValue(argv[i], "--max-pipeline", &v)) max_pipeline = v;
    else if (FlagValue(argv[i], "--cache-bytes", &v)) cache_bytes = v;
    else if (FlagValue(argv[i], "--deadline-ms", &v)) deadline_ms = v;
    else if (FlagValue(argv[i], "--max-rows", &v)) max_rows = v;
    else if (FlagValue(argv[i], "--persons", &v)) persons = v;
    else if (FlagValue(argv[i], "--seed", &v)) seed = v;
    else if (FlagValue(argv[i], "--drain-ms", &v)) drain_ms = v;
    else if (FlagValue(argv[i], "--repl-port", &v)) repl_port = v;
    else if (FlagValue(argv[i], "--repl-shards", &v)) repl_shards = v;
    else if (FlagString(argv[i], "--repl-data-dir", &repl_data_dir)) {
    } else if (FlagString(argv[i], "--snapshot", &snapshot_path)) {
    } else if (FlagString(argv[i], "--write-snapshot", &write_snapshot_path)) {
    } else if (FlagString(argv[i], "--volume", &volume_dir)) {
    } else if (FlagValue(argv[i], "--checkpoint-interval-s", &v)) {
      checkpoint_interval_s = v;
    } else if (FlagValue(argv[i], "--checkpoint-threshold", &v)) {
      checkpoint_threshold = v;
    } else {
      ::fprintf(stderr,
                "usage: %s [--port=N] [--workers=N] [--queue=N] "
                "[--io-threads=N] [--backlog=N] [--max-connections=N] "
                "[--idle-timeout-ms=MS] [--max-pipeline=N] "
                "[--cache-bytes=N] [--deadline-ms=MS] [--max-rows=N] "
                "[--persons=N] [--seed=N] [--drain-ms=MS] [--repl-port=N] "
                "[--repl-data-dir=PATH] [--repl-shards=N] "
                "[--snapshot=PATH] [--write-snapshot=PATH] "
                "[--volume=DIR] [--checkpoint-interval-s=N] "
                "[--checkpoint-threshold=N]\n",
                argv[0]);
      return 2;
    }
  }

  // Signals are trapped before the (slow) harvest so an early SIGTERM
  // still lands in the pipe instead of killing us mid-build.
  if (!server::TrapStopSignals()) {
    ::fprintf(stderr, "pipe failed\n");
    return 1;
  }

  core::HarvestResult result;
  std::unique_ptr<core::KbVolume> volume;
  bool booted = false;
  if (!volume_dir.empty()) {
    auto opened = core::KbVolume::Open(nullptr, volume_dir);
    if (!opened.ok()) {
      ::fprintf(stderr, "volume open failed: %s\n",
                opened.status().ToString().c_str());
      return 1;
    }
    volume = std::move(*opened);
    auto loaded = volume->Load();
    if (!loaded.ok()) {
      ::fprintf(stderr, "volume load failed: %s\n",
                loaded.status().ToString().c_str());
      return 1;
    }
    for (const std::string& refused : loaded->refused) {
      ::fprintf(stderr, "volume: refused %s\n", refused.c_str());
    }
    if (loaded->kb->NumTriples() > 0) {
      result.kb = std::move(*loaded->kb);
      booted = true;
      ::printf("loaded volume %s gen %llu: %zu triples, %zu entities\n",
               volume_dir.c_str(),
               static_cast<unsigned long long>(loaded->generation),
               result.kb.NumTriples(), result.kb.NumEntities());
    }
    // An empty volume falls through to the harvest (or --snapshot)
    // boot below and is seeded from whatever that produced.
  }
  if (!booted && !snapshot_path.empty()) {
    // Instant-start: map the snapshot artifact instead of harvesting.
    auto start = std::chrono::steady_clock::now();
    auto snap = core::OpenKbSnapshot(nullptr, snapshot_path);
    if (!snap.ok()) {
      ::fprintf(stderr, "snapshot open failed: %s\n",
                snap.status().ToString().c_str());
      return 1;
    }
    result.kb = std::move(*core::KnowledgeBase::FromSnapshot(std::move(*snap)));
    double boot_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ::printf("mapped snapshot %s in %.2f ms: %zu triples, %zu entities, "
             "%zu classes\n",
             snapshot_path.c_str(), boot_ms, result.kb.NumTriples(),
             result.kb.NumEntities(), result.kb.NumClasses());
    booted = true;
  }
  if (!booted) {
    corpus::WorldOptions world_options;
    world_options.seed = static_cast<uint64_t>(seed);
    world_options.num_persons = static_cast<size_t>(persons);
    corpus::CorpusOptions corpus_options;
    corpus_options.seed = static_cast<uint64_t>(seed) + 1;
    corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
    core::Harvester harvester;
    result = harvester.Harvest(corpus);
    ::printf("harvested KB: %zu triples, %zu entities, %zu classes\n",
             result.kb.NumTriples(), result.kb.NumEntities(),
             result.kb.NumClasses());
    if (volume != nullptr) {
      // Seed the empty volume so the next boot replays instead of
      // re-harvesting.
      Status seeded = volume->SaveDelta(result.kb);
      if (!seeded.ok()) {
        ::fprintf(stderr, "volume seed failed: %s\n",
                  seeded.ToString().c_str());
        return 1;
      }
    }
  }
  if (!write_snapshot_path.empty()) {
    Status write_status =
        core::WriteKbSnapshot(nullptr, write_snapshot_path, result.kb);
    if (!write_status.ok()) {
      ::fprintf(stderr, "snapshot write failed: %s\n",
                write_status.ToString().c_str());
      return 1;
    }
    ::printf("wrote snapshot %s (%zu triples)\n", write_snapshot_path.c_str(),
             result.kb.NumTriples());
    return 0;
  }

  std::unique_ptr<replication::ReplicationLog> repl_log;
  server::KbServer::Options options;
  options.port = static_cast<int>(port);
  options.num_workers = static_cast<int>(workers);
  options.queue_depth = static_cast<size_t>(queue);
  options.io_threads = static_cast<int>(io_threads);
  options.backlog = static_cast<int>(backlog);
  options.max_connections = static_cast<size_t>(max_connections);
  options.idle_timeout_ms = static_cast<double>(idle_timeout_ms);
  options.max_pipeline = static_cast<size_t>(max_pipeline);
  options.cache_bytes = static_cast<size_t>(cache_bytes);
  options.default_deadline_ms = static_cast<double>(deadline_ms);
  options.default_max_rows = static_cast<size_t>(max_rows);
  if (repl_port >= 0) {
    replication::ReplicationLog::Options log_options;
    log_options.num_shards = static_cast<int>(repl_shards);
    auto log = replication::ReplicationLog::Open(log_options, repl_data_dir);
    if (!log.ok()) {
      ::fprintf(stderr, "replication log open failed: %s\n",
                log.status().ToString().c_str());
      return 1;
    }
    repl_log = std::move(*log);
    options.pre_insert_hook =
        [&log = *repl_log](const std::vector<server::WireFact>& batch) {
          return log.Append(batch);
        };
  }

  server::KbServer server(&result.kb, options);
  Status status = server.Start();
  if (!status.ok()) {
    ::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  ::printf("listening on 127.0.0.1:%d (%ld workers, queue %ld, "
           "%ld io threads, cache %ld bytes)\n",
           server.port(), workers, queue, io_threads, cache_bytes);

  std::unique_ptr<replication::WalShipper> shipper;
  if (repl_log != nullptr) {
    replication::WalShipper::Options ship_options;
    ship_options.port = static_cast<int>(repl_port);
    const core::KnowledgeBase* kb = server.kb();
    shipper = std::make_unique<replication::WalShipper>(
        repl_log.get(), [kb] { return kb->epoch(); }, ship_options);
    status = shipper->Start();
    if (!status.ok()) {
      ::fprintf(stderr, "shipper start failed: %s\n",
                status.ToString().c_str());
      return 1;
    }
    ::printf("replication on 127.0.0.1:%d (log %s, %ld shards)\n",
             shipper->port(), repl_data_dir.c_str(), repl_shards);
  }

  // Background checkpoint scheduler: every interval, if the delta has
  // grown enough since the last published generation, compact it into
  // the next snapshot under the server's exclusive KB lock (every
  // read/write path takes the shared side, so the KB move-assign
  // inside Checkpoint is quiesced).
  std::atomic<bool> checkpoint_stop{false};
  std::thread checkpointer;
  if (volume != nullptr && checkpoint_interval_s > 0) {
    checkpointer = std::thread([&] {
      size_t last_checkpoint_triples = result.kb.NumTriples();
      auto next_wake = std::chrono::steady_clock::now() +
                       std::chrono::seconds(checkpoint_interval_s);
      while (!checkpoint_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (std::chrono::steady_clock::now() < next_wake) continue;
        next_wake = std::chrono::steady_clock::now() +
                    std::chrono::seconds(checkpoint_interval_s);
        size_t now_triples = result.kb.NumTriples();
        if (now_triples < last_checkpoint_triples +
                              static_cast<size_t>(checkpoint_threshold)) {
          continue;
        }
        server.WithWriteLock([&] {
          auto start = std::chrono::steady_clock::now();
          auto gen = volume->Checkpoint(&result.kb);
          double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
          if (gen.ok()) {
            last_checkpoint_triples = result.kb.NumTriples();
            ::printf("checkpointed gen %llu (%zu triples) in %.1f ms\n",
                     static_cast<unsigned long long>(*gen),
                     last_checkpoint_triples, ms);
          } else {
            ::fprintf(stderr, "checkpoint failed: %s\n",
                      gen.status().ToString().c_str());
          }
          ::fflush(stdout);
        });
      }
    });
    ::printf("checkpointing every %ld s once delta >= %ld triples\n",
             checkpoint_interval_s, checkpoint_threshold);
  }
  ::fflush(stdout);

  server::WaitForStopSignal();
  ::printf("draining (up to %ld ms; signal again to force stop)\n",
           drain_ms);
  ::fflush(stdout);
  // A second signal during the drain forces an immediate stop — Stop()
  // is idempotent and thread-safe, so the racing Drain just finishes
  // early.
  std::thread force([&server] {
    server::WaitForStopSignal();
    server.Stop();
  });
  server.Drain(static_cast<double>(drain_ms));
  checkpoint_stop.store(true, std::memory_order_release);
  if (checkpointer.joinable()) checkpointer.join();
  if (shipper != nullptr) shipper->Stop();
  if (volume != nullptr) {
    // Persist writes made since the last checkpoint; the server is
    // stopped, so the KB is quiesced.
    Status saved = volume->SaveDelta(result.kb);
    if (!saved.ok()) {
      ::fprintf(stderr, "delta save failed: %s\n", saved.ToString().c_str());
    }
  }
  // Unblock the force-stop watcher and reap it.
  server::RaiseStopSignal();
  force.join();
  ::printf("stopped\n");
  return 0;
}
