#ifndef KBFORGE_SERVER_KB_SERVER_H_
#define KBFORGE_SERVER_KB_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
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

/// The KB serving layer: the request handler behind an EventServer
/// front door over a KnowledgeBase, speaking length-prefixed JSON
/// (server/protocol.h).
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
///   - The shared request core (server/event_loop.h): a few epoll
///     threads own every connection fd, so connection count is
///     decoupled from thread count — 10k keep-alive clients cost 10k
///     fds, not 10k stacks. Clients may pipeline: frames on one
///     connection are answered strictly in order however the workers
///     race. A fixed worker pool drains a bounded admission queue;
///     when it is full, requests are *rejected* immediately with
///     {"status":"overloaded","retry_after_ms":R} instead of queueing
///     unboundedly (shed load, keep tail latency of admitted work
///     flat); the connection cap sheds excess accepts the same way.
///     `server.rejected` counts both.
///   - Numeric request fields are range-checked before any cast; a
///     value out of range is answered with "bad_request".
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
  /// Transport and admission settings (port, workers, queue, I/O
  /// threads, caps, retry hint) come from EventServerOptions.
  struct Options : EventServerOptions {
    size_t cache_bytes = 8u << 20;  ///< result cache; 0 disables
    /// Deadline applied when a query request carries none; 0 = none.
    double default_deadline_ms = 0;
    /// Row cap applied when a request carries none; 0 = unlimited.
    size_t default_max_rows = 0;
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
  int port() const { return server_.port(); }

  const core::KnowledgeBase* kb() const { return kb_; }

  /// Runs `fn` under the exclusive KB lock — the same lock the insert
  /// endpoint holds — so out-of-band writers (a follower's replication
  /// replay) serialize against in-flight reads.
  void WithWriteLock(const std::function<void()>& fn);

  /// The epoch this server claims to reflect (see applied_epoch_fn).
  uint64_t applied_epoch() const;

 private:
  struct Metrics;

  /// The RequestHandler: one request frame -> one response frame.
  std::string HandleFrame(const std::string& payload);

  std::string HandleRequest(const Json& request);
  /// Non-empty = the response to send instead: "stale_replica" when
  /// this server has not applied the request's min_epoch yet,
  /// "bad_request" when min_epoch is out of range.
  std::string CheckMinEpoch(const Json& request) const;
  std::string HandleQuery(const Json& request);
  std::string HandleEntityCard(const Json& request);
  std::string HandleInsertFacts(const Json& request);
  std::string HandleAnalytics(const Json& request);
  /// The lazily created shared pool analytics jobs shard across, one
  /// thread per request worker.
  ThreadPool* AnalyticsPool();
  std::string HandleHealth() const;
  std::string HandleMetrics() const;

  core::KnowledgeBase* kb_;
  Options options_;
  ResultCache result_cache_;
  Metrics* metrics_;  ///< registry-owned instruments, never freed

  std::chrono::steady_clock::time_point started_at_{};

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

  /// Declared last: its workers run HandleFrame over everything above.
  EventServer server_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_KB_SERVER_H_
