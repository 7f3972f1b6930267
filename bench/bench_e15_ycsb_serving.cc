// E15: the KB serving layer under YCSB-style open-loop load.
//
// E13 measured the server closed-loop: every client waits for its
// response before sending again, so an overloaded server slows its own
// load generator and the recorded tail is a fiction (coordinated
// omission). Here N connections follow a fixed open-loop arrival
// schedule at a target request rate, with a Zipfian-skewed hot-query
// mix (some query shapes are much hotter than others — the shape the
// result cache exists for) and a YCSB-A/B read/write mix where writes
// are insert_facts batches that bump the epoch and invalidate the
// cache. Latency is charged from each request's *intended* start, so
// queueing delay behind a stall lands in p999 instead of vanishing.
//
// Expected shape: at rates under capacity the schedule is sustained
// and tails stay low; pushing the target rate past capacity blows up
// p999 by orders of magnitude while throughput saturates — visible
// only because the loop is open.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/harvester.h"
#include "hot_query_mix.h"
#include "loadgen/key_chooser.h"
#include "loadgen/open_loop.h"
#include "loadgen/workload.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "util/metrics_registry.h"

using namespace kb;

namespace {

struct ServingRun {
  loadgen::OpenLoopResult loop;
  HistogramSnapshot latency;  ///< ms from intended start
};

/// `connections` KbClients run one open-loop schedule against the
/// server: reads are Zipfian-picked hot queries, writes insert fresh
/// facts (epoch bump -> cache invalidation). A shed or dropped
/// connection reconnects and the op counts as an error.
ServingRun RunServing(int port, const loadgen::Workload& workload,
                      double target_rate, uint64_t ops, int connections,
                      const std::vector<std::string>& queries,
                      const std::string& label) {
  std::vector<std::unique_ptr<server::KbClient>> clients;
  std::vector<std::unique_ptr<loadgen::KeyChooser>> choosers;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<server::KbClient>());
    if (!clients.back()->Connect(port).ok()) {
      fprintf(stderr, "connect failed\n");
      exit(1);
    }
    choosers.push_back(
        std::make_unique<loadgen::ZipfianChooser>(queries.size()));
  }

  Histogram& latency =
      MetricsRegistry::Named("loadgen").histogram("e15." + label);
  latency.Reset();

  std::atomic<uint64_t> insert_seq{0};
  loadgen::OpenLoopOptions loop;
  loop.target_ops_per_sec = target_rate;
  loop.num_ops = ops;
  loop.num_threads = connections;
  loop.seed = 15;
  loadgen::OpenLoopResult result = loadgen::RunOpenLoop(
      loop,
      [&](uint64_t op_index, Rng& rng) {
        size_t slot = op_index % static_cast<uint64_t>(connections);
        server::KbClient& client = *clients[slot];
        Status status;
        if (workload.mix.Choose(rng) == loadgen::OpType::kRead) {
          uint64_t pick = choosers[slot]->Next(rng);
          status = client.Query(queries[pick]).status();
        } else {
          // Writes are fresh facts: exercises interning, the exclusive
          // KB lock and the epoch-based cache invalidation.
          uint64_t seq = insert_seq.fetch_add(1);
          server::WireFact fact;
          fact.s = "e15_person_" + std::to_string(seq);
          fact.p = "worksFor";
          fact.o = "e15_company_" + std::to_string(seq % 7);
          status = client.InsertFacts({fact}).status();
        }
        if (!status.ok()) {
          client.Close();
          client.Connect(port);
          return false;
        }
        return true;
      },
      &latency);

  ServingRun run;
  run.loop = result;
  MetricsSnapshot metrics = MetricsRegistry::Named("loadgen").Snapshot();
  const HistogramSnapshot* snap = metrics.histogram("e15." + label);
  if (snap != nullptr) run.latency = *snap;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::BenchArgs args = kbbench::ParseArgs(argc, argv);
  kbbench::Banner(
      "E15: YCSB-style open-loop load on the serving layer",
      "an open-loop, skew-aware harness measures the serving tail "
      "honestly: queueing delay is charged to the schedule, not hidden "
      "by a stalled generator",
      "under-capacity rates sustain the schedule with low p99; "
      "overdriven rates saturate throughput and blow up p999");

  corpus::WorldOptions world_options;
  world_options.seed = 1515;
  world_options.num_persons = args.Scaled(800, 200);
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = 1516;
  corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
  core::Harvester harvester;
  core::HarvestResult harvest = harvester.Harvest(corpus);
  core::KnowledgeBase& kb = harvest.kb;
  kbbench::Row("KB: %zu triples, %zu entities", kb.NumTriples(),
               kb.NumEntities());

  // The hot-query mix from E13: one expensive full-relation scan, a
  // type scan, and per-company member lists, each checked to match
  // rows before timing. Zipfian choice makes the first entries much
  // hotter — the result cache's favorite shape.
  kbbench::HotQueryMix mix;
  if (!kbbench::BuildHotQueryMix(kb, corpus.world, 8, &mix)) return 1;
  const std::vector<std::string>& queries = mix.queries;

  server::KbServer::Options options;
  options.num_workers = 4;
  options.queue_depth = 64;
  options.cache_bytes = 16u << 20;
  server::KbServer server(&kb, options);
  if (!server.Start().ok()) {
    fprintf(stderr, "server start failed\n");
    return 1;
  }

  const int kConnections = static_cast<int>(args.Scaled(8, 4));
  const uint64_t kOps = args.Scaled(20000, 1200);
  const std::vector<double> rates =
      args.smoke ? std::vector<double>{1500}
                 : std::vector<double>{2000, 6000, 12000};

  kbbench::Row("%-24s %8s %7s %10s %9s %9s %9s", "config", "ops", "errs",
               "req/s", "p50ms", "p99ms", "p999ms");
  bool ok = true;
  ServingRun last_b{};
  for (char letter : {'B', 'A'}) {
    loadgen::Workload workload = loadgen::Workload::Ycsb(letter);
    for (double rate : rates) {
      std::string label = std::string(1, letter) + "_rate" +
                          std::to_string(static_cast<int>(rate));
      ServingRun run = RunServing(server.port(), workload, rate, kOps,
                                  kConnections, queries, label);
      kbbench::Row("%-24s %8llu %7llu %10.0f %9.3f %9.3f %9.3f",
                   label.c_str(),
                   static_cast<unsigned long long>(run.loop.completed),
                   static_cast<unsigned long long>(run.loop.errors),
                   run.loop.achieved_ops_per_sec(), run.latency.p50,
                   run.latency.p99, run.latency.p999);
      std::string w(1, letter);
      std::string key = "rate" + std::to_string(static_cast<int>(rate));
      kbbench::Report("e15_ycsb_serving", "throughput_" + key,
                      run.loop.achieved_ops_per_sec(), w);
      kbbench::Report("e15_ycsb_serving", "completed_" + key,
                      static_cast<double>(run.loop.completed), w);
      kbbench::Report("e15_ycsb_serving", "errors_" + key,
                      static_cast<double>(run.loop.errors), w);
      kbbench::Report("e15_ycsb_serving", "p50_ms_" + key, run.latency.p50,
                      w);
      kbbench::Report("e15_ycsb_serving", "p99_ms_" + key, run.latency.p99,
                      w);
      kbbench::Report("e15_ycsb_serving", "p999_ms_" + key,
                      run.latency.p999, w);
      if (letter == 'B' && rate == rates.front()) last_b = run;
      if (run.loop.completed + run.loop.errors != run.loop.scheduled) {
        fprintf(stderr, "FAIL: schedule lost ops in %s\n", label.c_str());
        ok = false;
      }
      if (!(run.latency.p50 <= run.latency.p99 &&
            run.latency.p99 <= run.latency.p999)) {
        fprintf(stderr, "FAIL: percentiles disordered in %s\n",
                label.c_str());
        ok = false;
      }
    }
  }

  // Coordinated-omission demonstration: the same workload B at a
  // target far past capacity. The closed-loop E13 harness physically
  // cannot record this (its generator would just slow down); the open
  // loop shows saturation as p999 explosion.
  {
    double overdrive = args.smoke ? 30000 : 60000;
    ServingRun run =
        RunServing(server.port(), loadgen::Workload::Ycsb('B'), overdrive,
                   args.Scaled(12000, 2000), kConnections, queries,
                   "B_overdrive");
    kbbench::Row("%-24s %8llu %7llu %10.0f %9.3f %9.3f %9.3f",
                 "B overdriven",
                 static_cast<unsigned long long>(run.loop.completed),
                 static_cast<unsigned long long>(run.loop.errors),
                 run.loop.achieved_ops_per_sec(), run.latency.p50,
                 run.latency.p99, run.latency.p999);
    kbbench::Report("e15_ycsb_serving", "overdrive_p999_ms",
                    run.latency.p999, "B");
    kbbench::Report("e15_ycsb_serving", "overdrive_throughput",
                    run.loop.achieved_ops_per_sec(), "B");
    // Saturation means the achieved rate falls short of the target and
    // the tail carries the backlog: p999 of the overdriven run must
    // dominate the under-capacity run's.
    if (args.smoke) {
      if (run.loop.completed == 0 ||
          run.latency.p999 < last_b.latency.p999) {
        fprintf(stderr,
                "SMOKE FAIL: overdriven p999 %.3fms does not dominate "
                "under-capacity p999 %.3fms\n",
                run.latency.p999, last_b.latency.p999);
        ok = false;
      }
    }
  }
  server.Stop();

  if (args.smoke) {
    if (last_b.loop.errors != 0 ||
        last_b.loop.completed != last_b.loop.scheduled) {
      fprintf(stderr, "SMOKE FAIL: under-capacity run shed or lost ops\n");
      ok = false;
    }
    if (!ok) return 1;
    kbbench::Row("smoke assertions passed: schedule complete at %0.f/s, "
                 "overdrive tail dominates",
                 rates.front());
  }
  return ok ? 0 : 1;
}
