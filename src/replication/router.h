#ifndef KBFORGE_REPLICATION_ROUTER_H_
#define KBFORGE_REPLICATION_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replication/hash_ring.h"
#include "server/event_loop.h"
#include "server/json.h"
#include "server/kb_client.h"
#include "util/metrics_registry.h"
#include "util/retry.h"
#include "util/status.h"

namespace kb {
namespace replication {

/// The replicated tier's front door. Speaks the same length-prefixed
/// JSON protocol as KbServer — over the same epoll event core
/// (server/event_loop.h), so thousands of keep-alive clients can hold
/// pipelined connections to the router — and existing clients and
/// load generators point at it unchanged; behind it:
///
///   - writes (insert_facts) always go to the leader,
///   - reads (query / entity_card) consistent-hash onto the healthy
///     replica pool by request key, so each query shape keeps warming
///     the same replica's result cache,
///   - every forward is wrapped in bounded failover: on a dead, shed,
///     or stale backend the request walks the ring order, then the
///     leader, then (after a jittered RetryPolicy backoff) starts
///     over — an in-flight query outlives the replica serving it,
///   - a health thread drives the fail-fast -> probe -> restore state
///     machine per backend: `fail_threshold` consecutive bad health
///     checks eject a replica from the ring; once ejected it is only
///     probed (every probe_interval_ms) until a probe succeeds, which
///     restores it,
///   - read-your-writes: a request's min_epoch skips replicas whose
///     last health-reported applied epoch lags it (the replica itself
///     re-checks — this is routing, not the guarantee).
///
/// Backend responses pass through verbatim; only transport-level
/// failures (dead socket, overload shed, not_leader, stale_replica)
/// trigger failover instead of reaching the client.
class Router {
 public:
  struct Options {
    int port = 0;                    ///< client-facing; 0 = ephemeral
    int leader_port = 0;             ///< leader KbServer
    std::vector<int> replica_ports;  ///< follower KbServers
    int num_workers = 4;
    size_t queue_depth = 32;
    int io_threads = 2;              ///< epoll I/O threads (front door)
    int backlog = 0;                 ///< listen(2) backlog; <= 0 = SOMAXCONN
    /// Open-connection cap; 0 derives num_workers + queue_depth (every
    /// worker busy plus a full queue).
    size_t max_connections = 0;
    double idle_timeout_ms = 0;      ///< idle client reaping; 0 = never
    size_t max_pipeline = 128;       ///< per-connection pipelining cap
    int retry_after_ms = 20;         ///< hint on router-level sheds
    double backend_timeout_ms = 1000;
    double health_interval_ms = 50;
    double probe_interval_ms = 100;
    int fail_threshold = 2;
    /// A probed replica is readmitted only once its applied epoch is
    /// within this many epochs of the leader's last-seen epoch, so a
    /// replica restarted from scratch does not serve near-empty reads
    /// while it backfills. 0 = must have fully caught up.
    uint64_t max_readmit_lag = 0;
    int virtual_nodes = 64;
    /// Failover budget across ring walks (RetryOptions semantics).
    RetryOptions failover;
  };

  explicit Router(const Options& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  Status Start();
  void Stop();

  int port() const { return port_; }
  /// Names ("replica:<port>") currently in the read ring.
  std::vector<std::string> healthy_replicas() const;

 private:
  struct Backend {
    std::string name;
    int port = 0;
    bool is_leader = false;
    bool healthy = true;
    int consecutive_failures = 0;
    uint64_t applied_epoch = 0;  ///< from its last good health check
    std::chrono::steady_clock::time_point next_check{};
  };
  struct Metrics;

  /// One parsed frame waiting for (or held by) a worker.
  struct PendingRequest {
    server::ConnRef conn;
    uint64_t seq = 0;
    std::string payload;
  };

  /// I/O-thread handoff: admission-check into the bounded request
  /// queue (shed with the retry hint when full).
  void OnFrame(const server::ConnRef& conn, uint64_t seq,
               std::string payload);
  void WorkerLoop();
  /// Routes one request payload; fills `response` (always).
  void RouteRequest(const std::string& payload, std::string* response);
  /// One forwarding attempt to one backend. OK = `response` is the
  /// backend's verbatim reply (possibly an application error the
  /// client should see); Unavailable/IOError = try another backend.
  Status ForwardOnce(int port, const server::Json& request,
                     std::string* response);
  void HealthLoop();
  void CheckBackend(Backend* backend);
  /// Read-preference order for `key` under `min_epoch` (leader last).
  std::vector<int> ReadOrder(const std::string& key, uint64_t min_epoch);

  Options options_;
  Metrics* metrics_;

  std::unique_ptr<server::EventServer> event_server_;
  int port_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> reqs_;  ///< parsed, waiting for a worker
  bool stopping_ = false;
  bool started_ = false;

  mutable std::mutex state_mu_;  ///< guards backends_ + ring_
  std::vector<Backend> backends_;
  HashRing ring_;
  uint64_t leader_epoch_ = 0;  ///< from the leader's last good check

  std::condition_variable health_cv_;  ///< cuts health sleeps short
  /// One persistent connection per backend port, health thread only.
  /// Persistent on purpose: a fresh connection per probe would queue
  /// behind the workers' cached forwarding connections on a saturated
  /// backend and time out even though the backend is healthy. (Size
  /// backend worker pools for router workers + 1.)
  std::map<int, server::KbClient> health_conns_;
  RetryPolicy failover_policy_;

  std::thread health_;
  std::vector<std::thread> workers_;
};

}  // namespace replication
}  // namespace kb

#endif  // KBFORGE_REPLICATION_ROUTER_H_
