#ifndef KBFORGE_REPLICATION_ROUTER_H_
#define KBFORGE_REPLICATION_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
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

/// The replicated tier's front door: a request handler on the same
/// core as KbServer (server/event_loop.h: epoll I/O threads, bounded
/// admission queue, worker pool, shedding, drain), so thousands of
/// keep-alive clients can hold pipelined connections to the router and
/// existing clients and load generators point at it unchanged. Behind
/// it:
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
  /// The client-facing transport and admission settings come from
  /// EventServerOptions; the router queues up to 32 requests.
  struct Options : server::EventServerOptions {
    Options() { queue_depth = 32; }

    int leader_port = 0;             ///< leader KbServer
    std::vector<int> replica_ports;  ///< follower KbServers
    double backend_timeout_ms = 1000;
    double health_interval_ms = 50;
    double probe_interval_ms = 100;
    int fail_threshold = 2;
    /// Failover budget across ring walks (RetryOptions semantics).
    RetryOptions failover;
  };

  explicit Router(const Options& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  Status Start();
  void Stop();

  int port() const { return server_.port(); }
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

  /// The RequestHandler: routes one request payload to a backend and
  /// returns the response.
  std::string RouteRequest(const std::string& payload);
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

  mutable std::mutex state_mu_;  ///< guards backends_ + ring_
  std::vector<Backend> backends_;
  HashRing ring_;
  uint64_t leader_epoch_ = 0;  ///< from the leader's last good check

  std::mutex health_mu_;
  std::condition_variable health_cv_;  ///< cuts health sleeps short
  bool health_stop_ = false;           ///< guarded by health_mu_
  /// One persistent connection per backend port, health thread only.
  /// Persistent on purpose: the workers' cached forwarding connections
  /// can fill a backend's connection cap, and a fresh connection per
  /// probe would then be shed and count as a failed check although the
  /// backend is healthy. (Size backend connection caps above router
  /// workers + 1.)
  std::map<int, server::KbClient> health_conns_;
  RetryPolicy failover_policy_;

  std::thread health_;
  /// Declared last: its workers run RouteRequest over everything above.
  server::EventServer server_;
};

}  // namespace replication
}  // namespace kb

#endif  // KBFORGE_REPLICATION_ROUTER_H_
