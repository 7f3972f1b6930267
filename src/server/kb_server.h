#ifndef KBFORGE_SERVER_KB_SERVER_H_
#define KBFORGE_SERVER_KB_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/knowledge_base.h"
#include "server/event_loop.h"
#include "server/json.h"
#include "server/result_cache.h"
#include "server/wire_fact.h"
#include "util/metrics_registry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kb {
namespace server {

/// The KB serving layer: an event-driven TCP front door over a
/// KnowledgeBase, speaking length-prefixed JSON (server/protocol.h).
///
/// Endpoints (request field "op"):
///   query        {"op":"query","sparql":...,"deadline_ms"?,"max_rows"?,
///                 "no_cache"?} -> {"status":"ok","cached":bool,
///                 "columns":[...],"rows":[[...]],"row_count":N}
///   entity_card  {"op":"entity_card","entity":canonical,"max_facts"?}
///   insert_facts {"op":"insert_facts","facts":[{"s","p","o"|"year",
///                 "confidence"?,"support"?}]}
///   analytics    {"op":"analytics","job":"pagerank"|"class_stats",
///                 "top_k"?,"damping"?,"iterations"?,"rollup"?,
///                 "insert"?,"property"?,"no_cache"?} -> job summary +
///                 top-k results; with insert=true the results are
///                 also asserted back into the KB as facts
///   health       {"op":"health"}
///   metrics      {"op":"metrics"} -> text snapshot of the PR-1 registry
///
/// Production concerns the in-process library lacks:
///   - An event-driven I/O core (server/event_loop.h): a few epoll
///     threads own every connection fd, so connection count is
///     decoupled from thread count — 10k keep-alive clients cost 10k
///     fds, not 10k stacks. Clients may pipeline: frames on one
///     connection are answered strictly in order however the workers
///     race.
///   - A fixed worker pool pulls parsed requests from a bounded queue.
///     When the queue is full, requests are *rejected* immediately
///     with {"status":"overloaded","retry_after_ms":R} instead of
///     queueing unboundedly (admission control: shed load, keep tail
///     latency of admitted work flat); the connection cap sheds
///     excess accepts the same way. `server.rejected` counts both.
///   - Per-request deadlines, threaded into the query executor as
///     query::ExecutionOptions and enforced cooperatively inside the scan
///     loops. An expired query returns a partial-free
///     "deadline_exceeded" error, never silently truncated rows.
///   - A sharded LRU result cache keyed by the normalized query shape
///     (plan-cache key + LIMIT + row cap) and the KB write epoch, so
///     every write batch invalidates by construction (server/
///     result_cache.h).
///
/// Writes go through the `insert_facts` endpoint under an exclusive
/// lock (reads hold it shared while touching the dictionary), so term
/// rendering never races interning. External code mutating the KB
/// directly while the server runs must take no such license.
class KbServer {
 public:
  struct Options {
    int port = 0;               ///< 0 = ephemeral, see port()
    int num_workers = 4;        ///< request-serving threads
    size_t queue_depth = 16;    ///< pending requests before shedding
    int io_threads = 2;         ///< epoll I/O threads
    /// listen(2) backlog; <= 0 means SOMAXCONN.
    int backlog = 0;
    /// Open-connection cap: accepts past it are shed with the overload
    /// hint instead of blocking accept. 0 derives num_workers +
    /// queue_depth; raise it explicitly (e.g. the concurrency bench) to
    /// hold thousands of keep-alive connections.
    size_t max_connections = 0;
    /// Connections idle (no traffic, nothing in flight) this long are
    /// closed. 0 = never.
    double idle_timeout_ms = 0;
    /// Parsed-but-unanswered frames allowed per connection before the
    /// loop stops reading it (pipelining backpressure).
    size_t max_pipeline = 128;
    size_t cache_bytes = 8u << 20;  ///< result cache; 0 disables
    /// Deadline applied when a query request carries none; 0 = none.
    double default_deadline_ms = 0;
    /// Row cap applied when a request carries none; 0 = unlimited.
    size_t default_max_rows = 0;
    /// Hint returned with overload rejections.
    int retry_after_ms = 20;
    /// Follower mode: insert_facts is rejected with "not_leader" (the
    /// router retries against the leader); health reports
    /// role=follower. Replicated writes bypass the endpoint via
    /// WithWriteLock.
    bool read_only = false;
    /// When set, health and min_epoch staleness checks use this
    /// instead of the KB's own epoch. Followers point it at the
    /// replication applied-epoch: their local KB epoch counts replay
    /// progress in *their* numbering, while this is the leader epoch
    /// the replica provably reflects.
    std::function<uint64_t()> applied_epoch_fn;
    /// Leader-side replication hook, called under the exclusive KB
    /// lock with the validated batch *before* any fact is asserted. A
    /// failure aborts the whole insert — the durability order is log
    /// first, KB second, so a published epoch E always means "every
    /// write <= E is in the replication log".
    std::function<Status(const std::vector<WireFact>&)> pre_insert_hook;
    /// Threads in the lazily created analytics pool (PageRank shards,
    /// class-stats shards). 0 derives num_workers.
    int analytics_threads = 0;
  };

  /// The server serves `kb` (borrowed; must outlive the server).
  KbServer(core::KnowledgeBase* kb, const Options& options);
  ~KbServer();

  KbServer(const KbServer&) = delete;
  KbServer& operator=(const KbServer&) = delete;

  /// Binds, listens and spawns the I/O + worker threads.
  Status Start();

  /// Drains and joins everything. Idempotent.
  void Stop();

  /// Graceful shutdown: immediately stops admitting new connections
  /// (they are shed with the retry hint, so a router fails over), lets
  /// in-flight requests finish for up to `timeout_ms`, then Stop()s.
  /// What kbforge_serve runs on SIGTERM.
  void Drain(double timeout_ms);

  /// The bound port (valid after Start; resolves port 0).
  int port() const { return port_; }

  const core::KnowledgeBase* kb() const { return kb_; }

  /// Runs `fn` under the exclusive KB lock — the same lock the insert
  /// endpoint holds — so out-of-band writers (a follower's replication
  /// replay) serialize against in-flight reads.
  void WithWriteLock(const std::function<void()>& fn);

  /// The epoch this server claims to reflect (see applied_epoch_fn).
  uint64_t applied_epoch() const;

 private:
  struct Metrics;

  /// One parsed frame waiting for (or held by) a worker.
  struct PendingRequest {
    ConnRef conn;
    uint64_t seq = 0;
    std::string payload;
  };

  void OnFrame(const ConnRef& conn, uint64_t seq, std::string payload);
  void EventWorkerLoop();
  /// One request frame -> one response frame.
  std::string HandleFrame(const std::string& payload);

  std::string HandleRequest(const Json& request);
  /// Non-empty = the "stale_replica" error response for a request
  /// whose min_epoch this server has not applied yet.
  std::string CheckMinEpoch(const Json& request) const;
  std::string HandleQuery(const Json& request);
  std::string HandleEntityCard(const Json& request);
  std::string HandleInsertFacts(const Json& request);
  std::string HandleAnalytics(const Json& request);
  /// The lazily created shared pool analytics jobs shard across.
  ThreadPool* AnalyticsPool();
  std::string HandleHealth() const;
  std::string HandleMetrics() const;

  core::KnowledgeBase* kb_;
  Options options_;
  ResultCache result_cache_;
  Metrics* metrics_;  ///< registry-owned instruments, never freed

  std::unique_ptr<EventServer> event_server_;

  int port_ = 0;
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> reqs_;  ///< admitted, not yet picked up
  bool stopping_ = false;
  bool draining_ = false;  ///< shed new work, finish in-flight
  bool started_ = false;

  /// Reads (query parse/execute/render, entity cards, analytics
  /// scans) hold this shared for their full KB access; the insert
  /// endpoint and WithWriteLock hold it exclusive. Because every read
  /// path is inside the shared side, an exclusive holder has truly
  /// quiesced the KB — which is what lets kbforge_serve run
  /// KbVolume::Checkpoint (a KB move-assign) under WithWriteLock while
  /// serving.
  mutable std::shared_mutex kb_mu_;

  std::mutex analytics_pool_mu_;
  std::unique_ptr<ThreadPool> analytics_pool_;

  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_KB_SERVER_H_
