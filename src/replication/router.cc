#include "replication/router.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "server/kb_client.h"
#include "server/protocol.h"
#include "util/logging.h"

namespace kb {
namespace replication {

using server::ErrorResponse;

struct Router::Metrics {
  Counter& requests;
  Counter& errors;
  Counter& failovers;    ///< forwarding attempts that moved on
  Counter& ejections;    ///< replicas removed from the ring
  Counter& readmissions; ///< ejected replicas restored by a probe
  Counter& stale_skips;  ///< replicas skipped for lagging min_epoch
  server::EventServerMetrics core;

  static Metrics* Get() {
    static Metrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      server::EventServerMetrics core;
      core.open_connections = &r.gauge("router.open_connections");
      core.rejected = &r.counter("router.rejected");
      core.errors = &r.counter("router.errors");
      return new Metrics{
          r.counter("router.requests"),     r.counter("router.errors"),
          r.counter("router.failovers"),    r.counter("router.ejections"),
          r.counter("router.readmissions"), r.counter("router.stale_skips"),
          core,
      };
    }();
    return m;
  }
};

Router::Router(const Options& options)
    : options_(options),
      metrics_(Metrics::Get()),
      failover_policy_(options.failover),
      server_(options, metrics_->core,
              std::bind_front(&Router::RouteRequest, this)) {
  Backend leader;
  leader.name = "leader";
  leader.port = options_.leader_port;
  leader.is_leader = true;
  backends_.push_back(leader);
  for (int port : options_.replica_ports) {
    Backend replica;
    replica.name = "replica:" + std::to_string(port);
    replica.port = port;
    backends_.push_back(replica);
    ring_.Add(replica.name);  // innocent until health proves otherwise
  }
}

Router::~Router() { Stop(); }

Status Router::Start() {
  Status s = server_.Start();
  if (!s.ok()) return s;
  health_ = std::thread([this] { HealthLoop(); });
  return Status::OK();
}

void Router::Stop() {
  server_.Stop();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_.joinable()) health_.join();
}

std::vector<std::string> Router::healthy_replicas() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<std::string> names;
  for (const Backend& backend : backends_) {
    if (!backend.is_leader && backend.healthy) names.push_back(backend.name);
  }
  return names;
}

std::string Router::RouteRequest(const std::string& payload) {
  metrics_->requests.Increment();
  auto request = server::Json::Parse(payload);
  if (!request.ok()) {
    metrics_->errors.Increment();
    return ErrorResponse("bad_request", request.status().message());
  }
  const std::string op = request->GetString("op");

  if (op == "health") {
    server::Json body = server::Json::Object();
    body.Set("status", server::Json::Str("ok"));
    body.Set("healthy", server::Json::Bool(true));
    body.Set("role", server::Json::Str("router"));
    server::Json list = server::Json::Array();
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (const Backend& backend : backends_) {
        server::Json b = server::Json::Object();
        b.Set("name", server::Json::Str(backend.name));
        b.Set("port", server::Json::Number(backend.port));
        b.Set("healthy", server::Json::Bool(backend.healthy));
        b.Set("applied_epoch",
              server::Json::Number(
                  static_cast<double>(backend.applied_epoch)));
        list.Append(std::move(b));
      }
    }
    body.Set("backends", std::move(list));
    return body.Dump();
  }
  if (op == "metrics") {
    server::Json body = server::Json::Object();
    body.Set("status", server::Json::Str("ok"));
    body.Set("text", server::Json::Str(
                         MetricsRegistry::Default().Snapshot().ToText()));
    return body.Dump();
  }

  const bool is_read = op == "query" || op == "entity_card";
  double min_epoch = 0;
  if (std::string bad = server::ReadNumber(*request, "min_epoch", 0,
                                           server::kMaxWireInteger, &min_epoch);
      !bad.empty()) {
    return bad;
  }
  const std::string key =
      op == "query" ? request->GetString("sparql")
                    : request->GetString("entity");

  // The ring walk is recomputed on every retry attempt, so a backoff
  // sleep gives the health thread time to eject the dead backend and
  // the next attempt routes around it — how an in-flight query
  // survives the replica serving it being killed.
  std::string response;
  Status final = failover_policy_.Run(
      [&]() -> Status {
        std::vector<int> order;
        if (is_read) {
          order = ReadOrder(key, static_cast<uint64_t>(min_epoch));
        } else {
          order.push_back(options_.leader_port);
        }
        Status last = Status::Unavailable("no live backend");
        bool first = true;
        for (int port : order) {
          Status s = ForwardOnce(port, *request, &response);
          if (s.ok()) return s;
          last = s;
          if (!first || order.size() == 1) metrics_->failovers.Increment();
          first = false;
        }
        return last;
      },
      [](const Status& s) {
        return s.IsUnavailable() || s.IsIOError() || s.IsConnectionClosed();
      });
  if (!final.ok()) {
    metrics_->errors.Increment();
    return ErrorResponse("unavailable",
                         "no backend could serve the request: " +
                             final.message());
  }
  return response;
}

std::vector<int> Router::ReadOrder(const std::string& key,
                                   uint64_t min_epoch) {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<int> order;
  for (const std::string& name : ring_.OrderFor(key, ring_.size())) {
    for (const Backend& backend : backends_) {
      if (backend.name != name) continue;
      if (min_epoch > 0 && backend.applied_epoch < min_epoch) {
        // Known to lag the client's own writes; it would answer
        // stale_replica anyway, so don't waste the round trip.
        metrics_->stale_skips.Increment();
        break;
      }
      order.push_back(backend.port);
      break;
    }
  }
  order.push_back(options_.leader_port);  // the leader is never stale
  return order;
}

Status Router::ForwardOnce(int port, const server::Json& request,
                           std::string* response) {
  // One connection per backend per worker thread, kept across
  // requests; a failed forward discards it (reconnect next time).
  thread_local std::map<int, server::KbClient> connections;
  auto it = connections.find(port);
  if (it == connections.end()) {
    server::ClientOptions client_options;
    client_options.timeout_ms = options_.backend_timeout_ms;
    it = connections.emplace(port, server::KbClient(client_options)).first;
  }
  if (!it->second.connected()) {
    Status s = it->second.Connect(port);
    if (!s.ok()) {
      connections.erase(it);
      return s;
    }
  }
  auto result = it->second.Call(request);
  if (result.ok()) {
    *response = result->Dump();
    return Status::OK();
  }
  Status s = result.status();
  if (s.IsUnavailable() || s.IsIOError() || s.IsConnectionClosed()) {
    // Shed, not-leader, stale, a dead socket, or a backend that hung
    // up cleanly: fail over.
    if (!it->second.connected()) connections.erase(it);
    return s;
  }
  // Application-level error (not_found, bad_query, deadline_exceeded):
  // the backend's verdict, passed through for the client to see.
  *response = it->second.last_response().Dump();
  return Status::OK();
}

void Router::HealthLoop() {
  // First sweep immediately: a replica that is down at startup is
  // ejected before it eats fail_threshold client requests.
  for (;;) {
    std::vector<Backend*> due;
    auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (Backend& backend : backends_) {
        if (now >= backend.next_check) due.push_back(&backend);
      }
    }
    for (Backend* backend : due) CheckBackend(backend);
    std::unique_lock<std::mutex> lock(health_mu_);
    bool stopped = health_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(
            options_.health_interval_ms),
        [this] { return health_stop_; });
    if (stopped) return;
  }
}

void Router::CheckBackend(Backend* backend) {
  auto it = health_conns_.find(backend->port);
  if (it == health_conns_.end()) {
    server::ClientOptions client_options;
    client_options.timeout_ms = options_.backend_timeout_ms;
    it = health_conns_
             .emplace(backend->port, server::KbClient(client_options))
             .first;
  }
  server::KbClient& client = it->second;
  Status status = Status::OK();
  if (!client.connected()) status = client.Connect(backend->port);
  // Placeholder until Health() runs; StatusOr asserts on OK
  // error-statuses, and the connect-failure path below never reads it.
  StatusOr<server::Json> health = Status::Internal("health never ran");
  if (status.ok()) {
    health = client.Health();
    status = health.status();
  }
  if (!status.ok()) client.Close();  // next probe reconnects fresh
  std::lock_guard<std::mutex> lock(state_mu_);
  auto now = std::chrono::steady_clock::now();
  if (status.ok()) {
    backend->consecutive_failures = 0;
    backend->applied_epoch = static_cast<uint64_t>(
        health->GetNumber("applied_epoch", health->GetNumber("epoch", 0)));
    if (backend->is_leader) leader_epoch_ = backend->applied_epoch;
    // A replica restarted from scratch answers health checks long
    // before it holds the data; readmitting it immediately would serve
    // near-empty reads. Keep probing until it has fully caught up.
    const bool caught_up =
        backend->is_leader || backend->applied_epoch >= leader_epoch_;
    if (!backend->healthy && caught_up) {
      // Probe succeeded on a caught-up backend: restore.
      backend->healthy = true;
      if (!backend->is_leader) {
        ring_.Add(backend->name);
        metrics_->readmissions.Increment();
        KB_LOG(Info) << "router readmitted " << backend->name;
      }
    }
    backend->next_check =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      backend->healthy ? options_.health_interval_ms
                                       : options_.probe_interval_ms));
  } else {
    ++backend->consecutive_failures;
    if (backend->healthy &&
        backend->consecutive_failures >= options_.fail_threshold) {
      // Fail fast: out of the ring until a probe brings it back.
      backend->healthy = false;
      if (!backend->is_leader) {
        ring_.Remove(backend->name);
        metrics_->ejections.Increment();
        KB_LOG(Info) << "router ejected " << backend->name << ": "
                     << status.ToString();
      }
    }
    backend->next_check =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      backend->healthy ? options_.health_interval_ms
                                       : options_.probe_interval_ms));
  }
}

}  // namespace replication
}  // namespace kb
