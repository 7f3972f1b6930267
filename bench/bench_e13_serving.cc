// E13: the KB serving layer under closed-loop load.
//
// A harvested KB is served by KbServer; client threads issue a hot
// query mix (repeated shapes, so the result cache can work) in a
// closed loop, each thread with its own blocking connection. We sweep
// worker counts with the result cache on and off and report
// throughput and latency percentiles, then demonstrate admission
// control shedding deterministically.
//
// Expected shape: cache-on hot-query latency well under cache-off
// (the hit path skips parse-free execution, rendering and
// serialization); throughput scales with workers until the KB lock
// and loopback stack saturate; a full queue sheds instead of queueing.

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cstdio>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "core/harvester.h"
#include "hot_query_mix.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "util/metrics_registry.h"

namespace {

using namespace kb;

struct LoadResult {
  double seconds = 0;
  size_t requests = 0;
  size_t shed = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double throughput() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
};

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(
                                             sorted_ms.size() - 1));
  return sorted_ms[index];
}

/// Closed-loop run: `threads` clients issue `per_thread` requests each
/// from a fixed hot-query mix against the given port.
LoadResult RunLoad(int port, int threads, size_t per_thread,
                   const std::vector<std::string>& queries,
                   const std::vector<std::string>& entities) {
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(threads));
  std::atomic<size_t> shed{0};
  kbbench::Timer timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      server::KbClient client;
      if (!client.Connect(port).ok()) return;
      auto& local = latencies[static_cast<size_t>(t)];
      local.reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        kbbench::Timer request_timer;
        Status status;
        size_t pick = i + static_cast<size_t>(t) * 7;
        if (!entities.empty() && pick % 5 == 4) {
          status =
              client.EntityCard(entities[pick % entities.size()]).status();
        } else {
          status = client.Query(queries[pick % queries.size()]).status();
        }
        if (status.IsUnavailable()) {
          shed.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(client.retry_after_ms()));
          if (!client.Connect(port).ok()) return;
          continue;
        }
        if (!status.ok()) return;  // counted as missing requests below
        local.push_back(request_timer.ms());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  LoadResult result;
  result.seconds = timer.seconds();
  result.shed = shed.load();
  std::vector<double> all;
  for (const auto& local : latencies) {
    all.insert(all.end(), local.begin(), local.end());
  }
  result.requests = all.size();
  std::sort(all.begin(), all.end());
  result.p50 = Percentile(all, 0.50);
  result.p95 = Percentile(all, 0.95);
  result.p99 = Percentile(all, 0.99);
  return result;
}

/// Raw connect that never sends a byte — parks a server worker (or
/// occupies a queue slot) deterministically.
int IdleConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::BenchArgs args = kbbench::ParseArgs(argc, argv);
  kbbench::Banner(
      "E13: serving layer (multi-threaded query server + result cache)",
      "admission-controlled serving with an epoch-invalidated result "
      "cache turns hot KB queries into cache hits",
      "cache-on hot queries faster than cache-off; overload sheds");

  corpus::WorldOptions world_options;
  world_options.seed = 1313;
  world_options.num_persons = args.Scaled(800, 200);
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = 1314;
  corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
  core::Harvester harvester;
  core::HarvestResult harvest = harvester.Harvest(corpus);
  core::KnowledgeBase& kb = harvest.kb;
  kbbench::Row("KB: %zu triples, %zu entities", kb.NumTriples(),
               kb.NumEntities());

  // Hot query mix: full worksFor relation scan (expensive: join-free
  // but renders every row), typed entities, per-company member lists;
  // every query is checked to match rows before anything is timed.
  kbbench::HotQueryMix mix;
  if (!kbbench::BuildHotQueryMix(kb, corpus.world, 8, &mix)) return 1;
  const std::vector<std::string>& queries = mix.queries;
  const std::vector<std::string>& entities = mix.companies;

  const int kThreads = static_cast<int>(args.Scaled(8, 4));
  const size_t kPerThread = args.Scaled(600, 120);
  const std::vector<int> worker_counts =
      args.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  kbbench::Row("%-22s %10s %9s %9s %9s", "config", "req/s", "p50ms",
               "p95ms", "p99ms");
  for (bool cache_on : {false, true}) {
    for (int workers : worker_counts) {
      server::KbServer::Options options;
      options.num_workers = workers;
      options.queue_depth = 64;
      options.cache_bytes = cache_on ? (16u << 20) : 0;
      server::KbServer server(&kb, options);
      Status status = server.Start();
      if (!status.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      LoadResult result = RunLoad(server.port(), kThreads, kPerThread,
                                  queries, entities);
      server.Stop();
      std::string config = "workers=" + std::to_string(workers) +
                           " cache=" + (cache_on ? "on" : "off");
      kbbench::Row("%-22s %10.0f %9.3f %9.3f %9.3f", config.c_str(),
                   result.throughput(), result.p50, result.p95, result.p99);
      std::string key = "w" + std::to_string(workers) +
                        (cache_on ? "_cache_on" : "_cache_off");
      kbbench::Report("e13_serving", "throughput_" + key,
                      result.throughput());
      kbbench::Report("e13_serving", "p50_ms_" + key, result.p50);
      kbbench::Report("e13_serving", "p99_ms_" + key, result.p99);
    }
  }

  // Hot-query microbench: the same server, the same connection, the
  // same full-relation scan — measured once forced past the cache
  // (no_cache) and once served from it. This isolates what the hit
  // path actually saves: execution, term rendering, serialization.
  double hot_uncached_ms = 0, hot_cached_ms = 0;
  {
    server::KbServer::Options options;
    options.num_workers = 2;
    options.cache_bytes = 16u << 20;
    server::KbServer server(&kb, options);
    if (!server.Start().ok()) return 1;
    server::KbClient client;
    if (!client.Connect(server.port()).ok()) return 1;
    const std::string& hot = queries[0];
    const size_t kIters = args.Scaled(300, 80);
    for (size_t i = 0; i < 10; ++i) {  // warm both paths
      client.Query(hot, -1, -1, /*no_cache=*/true);
      client.Query(hot);
    }
    kbbench::Timer uncached_timer;
    for (size_t i = 0; i < kIters; ++i) {
      if (!client.Query(hot, -1, -1, /*no_cache=*/true).ok()) return 1;
    }
    hot_uncached_ms = uncached_timer.ms() / static_cast<double>(kIters);
    kbbench::Timer cached_timer;
    for (size_t i = 0; i < kIters; ++i) {
      auto result = client.Query(hot);
      if (!result.ok() || !result->cached) return 1;
    }
    hot_cached_ms = cached_timer.ms() / static_cast<double>(kIters);
    server.Stop();
  }
  kbbench::Row("hot query: %.3fms uncached vs %.3fms cached (%.1fx)",
               hot_uncached_ms, hot_cached_ms,
               hot_cached_ms > 0 ? hot_uncached_ms / hot_cached_ms : 0);
  kbbench::Report("e13_serving", "hot_query_uncached_ms", hot_uncached_ms);
  kbbench::Report("e13_serving", "hot_query_cached_ms", hot_cached_ms);

  // Admission control: one idle connection parks the single worker,
  // a second fills the queue, so every further connection must be
  // shed with the overload envelope.
  MetricsRegistry::Default().counter("server.rejected").Reset();
  server::KbServer::Options options;
  options.num_workers = 1;
  options.queue_depth = 1;
  server::KbServer server(&kb, options);
  if (!server.Start().ok()) return 1;
  int parked_worker = IdleConnect(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  int parked_queue = IdleConnect(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  size_t shed_count = 0;
  for (int i = 0; i < 16; ++i) {
    server::KbClient client;
    if (!client.Connect(server.port()).ok()) continue;
    if (client.Health().status().IsUnavailable()) ++shed_count;
  }
  uint64_t rejected =
      MetricsRegistry::Default().Snapshot().counter("server.rejected");
  ::close(parked_worker);
  ::close(parked_queue);
  server.Stop();
  kbbench::Row("overload: %zu/16 connections shed (server.rejected=%llu)",
               shed_count, static_cast<unsigned long long>(rejected));
  kbbench::Report("e13_serving", "shed_connections",
                  static_cast<double>(shed_count));

  if (args.smoke) {
    // The cached hot-query path must beat the uncached one, and a
    // full queue must shed — the PR's two behavioral claims. The
    // mixed-sweep p50s are reported above but not asserted on (too
    // noisy at smoke sizes); the controlled same-connection hot-query
    // comparison is the oracle.
    if (!(hot_cached_ms < hot_uncached_ms)) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cached hot query %.3fms not below uncached "
                   "%.3fms\n",
                   hot_cached_ms, hot_uncached_ms);
      return 1;
    }
    if (shed_count == 0 || rejected == 0) {
      std::fprintf(stderr, "SMOKE FAIL: admission control shed nothing\n");
      return 1;
    }
    kbbench::Row("smoke assertions passed: cached hot query %.3fms < "
                 "uncached %.3fms; %zu shed",
                 hot_cached_ms, hot_uncached_ms, shed_count);
  }
  return 0;
}
