// kbforge_router: the replicated serving tier's front door.
//
// Clients speak the normal KbServer protocol to the router; it sends
// writes to the leader, consistent-hashes reads across healthy
// follower replicas (with automatic failover and read-your-writes
// epoch routing), and keeps a health thread ejecting and readmitting
// backends.
//
// Usage:
//   kbforge_router --leader-port=N --replicas=P1,P2,...
//                  [--port=N] [--workers=N]
//                  [--io-threads=N] [--backlog=N] [--max-connections=N]
//                  [--idle-timeout-ms=MS] [--max-pipeline=N]
//                  [--health-interval-ms=MS] [--probe-interval-ms=MS]
//                  [--fail-threshold=N] [--backend-timeout-ms=MS]
//
// The router fronts clients with the same epoll event core as the
// server (DESIGN.md §5f): --io-threads loops own the client fds,
// --max-connections sheds excess accepts, --idle-timeout-ms reaps
// silent clients, --max-pipeline bounds per-connection in-flight
// requests.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "replication/router.h"
#include "server/cli.h"

namespace {

std::vector<int> ParsePorts(const std::string& csv) {
  std::vector<int> ports;
  size_t start = 0;
  while (start < csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) {
      ports.push_back(::atoi(csv.substr(start, comma - start).c_str()));
    }
    start = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kb;
  using server::FlagString;
  using server::FlagValue;

  long port = 7490, workers = 4;
  long io_threads = 2, backlog = 0, max_connections = 0;
  long idle_timeout_ms = 0, max_pipeline = 128;
  long health_interval_ms = 50, probe_interval_ms = 100, fail_threshold = 2;
  long backend_timeout_ms = 1000, leader_port = -1;
  std::string replicas_csv;
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (FlagValue(argv[i], "--port", &v)) port = v;
    else if (FlagValue(argv[i], "--workers", &v)) workers = v;
    else if (FlagValue(argv[i], "--io-threads", &v)) io_threads = v;
    else if (FlagValue(argv[i], "--backlog", &v)) backlog = v;
    else if (FlagValue(argv[i], "--max-connections", &v)) max_connections = v;
    else if (FlagValue(argv[i], "--idle-timeout-ms", &v)) idle_timeout_ms = v;
    else if (FlagValue(argv[i], "--max-pipeline", &v)) max_pipeline = v;
    else if (FlagValue(argv[i], "--leader-port", &v)) leader_port = v;
    else if (FlagValue(argv[i], "--health-interval-ms", &v)) {
      health_interval_ms = v;
    } else if (FlagValue(argv[i], "--probe-interval-ms", &v)) {
      probe_interval_ms = v;
    } else if (FlagValue(argv[i], "--fail-threshold", &v)) {
      fail_threshold = v;
    } else if (FlagValue(argv[i], "--backend-timeout-ms", &v)) {
      backend_timeout_ms = v;
    } else if (FlagString(argv[i], "--replicas", &replicas_csv)) {
    } else {
      ::fprintf(stderr,
                "usage: %s --leader-port=N --replicas=P1,P2,... [--port=N] "
                "[--workers=N] [--io-threads=N] [--backlog=N] "
                "[--max-connections=N] [--idle-timeout-ms=MS] "
                "[--max-pipeline=N] [--health-interval-ms=MS] "
                "[--probe-interval-ms=MS] [--fail-threshold=N] "
                "[--backend-timeout-ms=MS]\n",
                argv[0]);
      return 2;
    }
  }
  if (leader_port < 0) {
    ::fprintf(stderr, "--leader-port is required\n");
    return 2;
  }

  replication::Router::Options options;
  options.port = static_cast<int>(port);
  options.leader_port = static_cast<int>(leader_port);
  options.replica_ports = ParsePorts(replicas_csv);
  options.num_workers = static_cast<int>(workers);
  options.io_threads = static_cast<int>(io_threads);
  options.backlog = static_cast<int>(backlog);
  options.max_connections = static_cast<size_t>(max_connections);
  options.idle_timeout_ms = static_cast<double>(idle_timeout_ms);
  options.max_pipeline = static_cast<size_t>(max_pipeline);
  options.health_interval_ms = static_cast<double>(health_interval_ms);
  options.probe_interval_ms = static_cast<double>(probe_interval_ms);
  options.fail_threshold = static_cast<int>(fail_threshold);
  options.backend_timeout_ms = static_cast<double>(backend_timeout_ms);

  // Trapped before Start, so a SIGTERM that lands between Start and the
  // port line still stops the router cleanly instead of killing it.
  if (!server::TrapStopSignals()) {
    ::fprintf(stderr, "pipe failed\n");
    return 1;
  }
  replication::Router router(options);
  Status status = router.Start();
  if (!status.ok()) {
    ::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  ::printf("router listening on 127.0.0.1:%d (leader %ld, %zu replicas)\n",
           router.port(), leader_port, options.replica_ports.size());
  ::fflush(stdout);

  server::WaitForStopSignal();
  ::printf("shutting down\n");
  router.Stop();
  return 0;
}
