// E19: analytics over the served KB — aggregates in the executor and
// offline graph jobs.
//
// Two claims ride this bench. First, the canonical dashboard shape — a
// join-heavy GROUP BY count — runs through the planner the server uses
// and returns exactly the groups and counts of a brute-force fold over
// a full scan, visiting exactly the triples the plan implies. Second,
// the offline jobs (PageRank over the entity link graph,
// class-distribution rollups over taxonomy subsumption) run id-native
// against the store and parallelize across a shared ThreadPool, and
// their results serve from the epoch-invalidated result cache when
// reached through the server's analytics endpoint — the
// dashboard-refresh path is a cache hit, not a recompute.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "bench_util.h"
#include "core/harvester.h"
#include "query/engine.h"
#include "rdf/namespaces.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "util/thread_pool.h"

using namespace kb;

namespace {

/// Best-of-N wall time for `reps` back-to-back executions: the
/// repeated minimum is the least jitter-prone point estimate a shared
/// CI runner can produce.
double BestOf(int rounds, int reps, const std::function<void()>& fn) {
  double best = 1e18;
  for (int round = 0; round < rounds; ++round) {
    kbbench::Timer timer;
    for (int rep = 0; rep < reps; ++rep) fn();
    best = std::min(best, timer.ms());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::BenchArgs args = kbbench::ParseArgs(argc, argv);
  kbbench::Banner(
      "E19: analytics execution — aggregates and graph jobs",
      "dashboard aggregates run id-native through the planned executor, "
      "and offline graph analytics (PageRank, class rollups) run "
      "id-native on a shared thread pool behind the server's cached "
      "analytics endpoint",
      "a join-heavy GROUP BY matches a brute-force fold exactly; "
      "PageRank parallelizes without changing its fixpoint; the warm "
      "dashboard call is a cache hit");

  corpus::WorldOptions world_options;
  world_options.seed = 1919;
  world_options.num_persons = args.Scaled(4000, 600);
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = 1920;
  corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
  core::Harvester harvester;
  core::HarvestResult harvest = harvester.Harvest(corpus);
  core::KnowledgeBase& kb = harvest.kb;
  kbbench::Row("KB: %zu triples, %zu entities, %zu classes",
               kb.NumTriples(), kb.NumEntities(), kb.NumClasses());
  kbbench::Report("e19_analytics", "kb_triples",
                  static_cast<double>(kb.NumTriples()));

  bool ok = true;

  // ---- Phase 1: join-heavy aggregate -------------------------------
  //
  // Employees per company headquartered in one city. The city with the
  // most headquarters is chosen so the aggregate has several groups.
  const rdf::TermId hq_predicate = kb.store().dict().Lookup(
      rdf::Term::Iri(rdf::PropertyIri("headquarteredIn")));
  std::map<rdf::TermId, size_t> hq_cities;
  for (const rdf::Triple& t :
       kb.store().MatchFullScan({rdf::kAnyTerm, hq_predicate,
                                 rdf::kAnyTerm})) {
    ++hq_cities[t.o];
  }
  rdf::TermId top_city = 0;
  size_t top_city_count = 0;
  for (const auto& [city, count] : hq_cities) {
    if (count > top_city_count) {
      top_city = city;
      top_city_count = count;
    }
  }
  if (top_city == 0) {
    fprintf(stderr, "no headquarteredIn facts harvested\n");
    return 1;
  }
  const std::string city_iri(kb.store().dict().term(top_city).value());
  kbbench::Row("hq filter: %s hosts %zu company HQs (%zu cities total)",
               rdf::Abbreviate(city_iri).c_str(), top_city_count,
               hq_cities.size());
  const std::string agg_sparql =
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <" +
      rdf::PropertyIri("worksFor") + "> ?c . ?c <" +
      rdf::PropertyIri("headquarteredIn") + "> <" + city_iri +
      "> . } GROUP BY ?c";
  auto parsed = kb.ParseQuery(agg_sparql);
  if (!parsed.ok()) {
    fprintf(stderr, "parse failed: %s\n", parsed.status().ToString().c_str());
    return 1;
  }

  // Brute force: fold one full scan into employees per HQ company.
  const rdf::TermId works_for = kb.store().dict().Lookup(
      rdf::Term::Iri(rdf::PropertyIri("worksFor")));
  std::set<rdf::TermId> hq_companies;
  for (const rdf::Triple& t :
       kb.store().MatchFullScan({rdf::kAnyTerm, hq_predicate, top_city})) {
    hq_companies.insert(t.s);
  }
  std::map<rdf::TermId, uint64_t> expected;  // company -> employees
  uint64_t employee_rows = 0;
  for (const rdf::Triple& t :
       kb.store().MatchFullScan({rdf::kAnyTerm, works_for, rdf::kAnyTerm})) {
    if (hq_companies.count(t.o) == 0) continue;
    ++expected[t.o];
    ++employee_rows;
  }

  query::QueryStats agg_stats;
  auto agg_rows = kb.Execute(*parsed, {}, &agg_stats);
  std::map<rdf::TermId, uint64_t> got;
  for (const query::Binding& row : agg_rows) got[row.at("c")] = row.at("n");
  if (got != expected || got.size() != agg_rows.size() || got.empty()) {
    fprintf(stderr,
            "FAIL: aggregate returned %zu groups, brute force %zu (or the "
            "counts differ)\n",
            agg_rows.size(), expected.size());
    ok = false;
  }
  // The planner leads with the city-bound headquarteredIn pattern (two
  // constants), then probes each HQ company's employees: it visits
  // exactly the HQ triples plus the joined worksFor triples.
  const uint64_t expected_visits = top_city_count + employee_rows;
  if (agg_stats.intermediate_rows != expected_visits) {
    fprintf(stderr, "FAIL: aggregate visited %llu triples, expected %llu\n",
            static_cast<unsigned long long>(agg_stats.intermediate_rows),
            static_cast<unsigned long long>(expected_visits));
    ok = false;
  }

  const int kRounds = 5;
  const int kReps = static_cast<int>(args.Scaled(50, 30));
  double agg_ms = BestOf(kRounds, kReps, [&] {
    query::QueryStats stats;
    kb.Execute(*parsed, {}, &stats);
  });
  kbbench::Row("aggregate (%zu groups): %.3f ms, %llu intermediate rows",
               agg_rows.size(), agg_ms / kReps,
               static_cast<unsigned long long>(agg_stats.intermediate_rows));
  kbbench::Report("e19_analytics", "agg_groups",
                  static_cast<double>(agg_rows.size()));
  kbbench::Report("e19_analytics", "agg_ms", agg_ms / kReps);
  kbbench::Report("e19_analytics", "agg_intermediate_rows",
                  static_cast<double>(agg_stats.intermediate_rows));

  // ---- Phase 2: PageRank, serial vs shared-pool parallel ----------
  analytics::PageRankOptions pr_options;
  pr_options.max_iterations = 20;
  pr_options.tolerance = 0;  // fixed work: serial/parallel comparable
  pr_options.iri_objects_only = &kb.store().dict();
  for (std::string_view iri : {rdf::kRdfType, rdf::kRdfsSubClassOf,
                               rdf::kRdfsLabel, rdf::kOwlSameAs}) {
    rdf::TermId id = kb.store().dict().Lookup(rdf::Term::Iri(std::string(iri)));
    if (id != rdf::kInvalidTermId) pr_options.exclude_predicates.push_back(id);
  }

  analytics::PageRankResult serial_pr;
  double pr_serial_ms = BestOf(3, 1, [&] {
    serial_pr = analytics::ComputePageRank(kb.store(), pr_options, nullptr);
  });
  unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  ThreadPool pool(static_cast<int>(std::min(hw, 8u)));
  analytics::PageRankResult parallel_pr;
  double pr_parallel_ms = BestOf(3, 1, [&] {
    parallel_pr = analytics::ComputePageRank(kb.store(), pr_options, &pool);
  });
  if (parallel_pr.nodes != serial_pr.nodes ||
      parallel_pr.iterations != serial_pr.iterations) {
    fprintf(stderr, "FAIL: parallel PageRank diverged from serial\n");
    ok = false;
  }
  double iters_per_s =
      pr_parallel_ms > 0 ? serial_pr.iterations * 1000.0 / pr_parallel_ms : 0;
  kbbench::Row("pagerank: %zu nodes, %zu edges, %d iterations; serial "
               "%.1f ms, %d threads %.1f ms (%.2fx, %.0f iters/s)",
               serial_pr.nodes.size(), serial_pr.num_edges,
               serial_pr.iterations, pr_serial_ms, pool.num_threads(),
               pr_parallel_ms,
               pr_parallel_ms > 0 ? pr_serial_ms / pr_parallel_ms : 0,
               iters_per_s);
  kbbench::Report("e19_analytics", "pagerank_edges",
                  static_cast<double>(serial_pr.num_edges));
  kbbench::Report("e19_analytics", "pagerank_serial_ms", pr_serial_ms);
  kbbench::Report("e19_analytics", "pagerank_parallel_ms", pr_parallel_ms);
  kbbench::Report("e19_analytics", "pagerank_iters_per_s", iters_per_s);

  // Class rollup on the same pool.
  analytics::ClassStatsOptions cs_options;
  cs_options.type_predicate =
      kb.store().dict().Lookup(rdf::Term::Iri(std::string(rdf::kRdfType)));
  cs_options.subclass_predicate = kb.store().dict().Lookup(
      rdf::Term::Iri(std::string(rdf::kRdfsSubClassOf)));
  analytics::ClassStatsResult class_stats;
  double cs_ms = BestOf(3, 1, [&] {
    class_stats = analytics::ComputeClassStats(kb.store(), cs_options, &pool);
  });
  kbbench::Row("class_stats: %zu typed entities across %zu classes in "
               "%.1f ms",
               class_stats.num_entities, class_stats.num_classes, cs_ms);
  kbbench::Report("e19_analytics", "class_entities",
                  static_cast<double>(class_stats.num_entities));
  kbbench::Report("e19_analytics", "class_classes",
                  static_cast<double>(class_stats.num_classes));
  kbbench::Report("e19_analytics", "class_stats_ms", cs_ms);

  // ---- Phase 3: the dashboard path — cached analytics endpoint ----
  {
    server::KbServer::Options options;
    options.num_workers = 4;
    server::KbServer server(&kb, options);
    if (!server.Start().ok()) {
      fprintf(stderr, "server start failed\n");
      return 1;
    }
    server::KbClient client;
    if (!client.Connect(server.port()).ok()) {
      fprintf(stderr, "connect failed\n");
      return 1;
    }
    kbbench::Timer cold_timer;
    auto cold = client.Analytics("pagerank", /*top_k=*/10);
    double cold_ms = cold_timer.ms();
    kbbench::Timer warm_timer;
    auto warm = client.Analytics("pagerank", /*top_k=*/10);
    double warm_ms = warm_timer.ms();
    bool warm_cached = warm.ok() && warm->GetBool("cached");
    if (!cold.ok() || !warm.ok()) {
      fprintf(stderr, "FAIL: analytics endpoint errored: %s / %s\n",
              cold.status().ToString().c_str(),
              warm.status().ToString().c_str());
      ok = false;
    } else if (!warm_cached) {
      fprintf(stderr, "FAIL: warm dashboard call missed the result cache\n");
      ok = false;
    }
    kbbench::Row("dashboard: cold %.2f ms (full PageRank), warm %.3f ms "
                 "(%s), %.0fx",
                 cold_ms, warm_ms, warm_cached ? "cache hit" : "MISS",
                 warm_ms > 0 ? cold_ms / warm_ms : 0);
    kbbench::Report("e19_analytics", "dashboard_cold_ms", cold_ms);
    kbbench::Report("e19_analytics", "dashboard_warm_ms", warm_ms);
    kbbench::Report("e19_analytics", "dashboard_warm_cached",
                    warm_cached ? 1 : 0);
    server.Stop();
  }

  if (!ok) {
    fprintf(stderr, "E19 FAILED\n");
    return 1;
  }
  printf("E19 ok\n");
  return 0;
}
