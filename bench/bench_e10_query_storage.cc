// E10 — Analytics substrate performance (tutorial §4: "semantic search
// and analytics over entities and relations"). google-benchmark micro-
// benchmarks over the triple store (index vs full scan), the join
// engine (planned 3-way join, streamed LIMIT, plan cache hit vs miss)
// and the LSM store (Bloom filters on/off) — the design choices of
// DESIGN.md §4.
//
// `--smoke` skips google-benchmark and checks the executor's content
// on a tiny graph: LIMIT visits exactly what it emits, a repeated
// shape hits the plan cache, and the 3-way join returns exactly the
// brute-force row count.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>

#include "bench_util.h"
#include "query/engine.h"
#include "rdf/triple_store.h"
#include "storage/kv_store.h"
#include "storage/triple_codec.h"
#include "util/random.h"

using namespace kb;

namespace {

constexpr size_t kEntities = 2000;
constexpr size_t kTriples = 100000;

/// A synthetic (s, p, o) graph with 16 predicates.
rdf::TripleStore BuildStore(uint64_t seed, size_t entities, size_t triples) {
  rdf::TripleStore store;
  Rng rng(seed);
  std::vector<rdf::TermId> es, ps;
  for (size_t i = 0; i < entities; ++i) {
    es.push_back(store.dict().Intern(rdf::Term::Iri("e" + std::to_string(i))));
  }
  for (size_t i = 0; i < 16; ++i) {
    ps.push_back(store.dict().Intern(rdf::Term::Iri("p" + std::to_string(i))));
  }
  for (size_t i = 0; i < triples; ++i) {
    store.Add(rdf::Triple(rng.Choice(es), rng.Choice(ps), rng.Choice(es)));
  }
  store.Snapshot();  // sort the permutations before timing reads
  return store;
}

/// Lazy shared graph so `--smoke` never pays for the full-size build.
rdf::TripleStore& GetStore() {
  static rdf::TripleStore* store =
      new rdf::TripleStore(BuildStore(33, kEntities, kTriples));
  return *store;
}

std::string TempDbDir(const std::string& tag) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("kbforge_bench_" + tag))
                         .string();
  std::filesystem::remove_all(path);
  return path;
}

query::SelectQuery MakeJoinQuery(const rdf::TripleStore& store) {
  // ?x p0 ?y . ?y p1 ?z . ?x p2 e7  — the bound pattern written last;
  // the planner runs it first.
  auto var = [](const char* v) { return query::QueryTerm::Var(v); };
  auto bound = [&](const std::string& iri) {
    return query::QueryTerm::Bound(store.dict().Lookup(rdf::Term::Iri(iri)));
  };
  query::SelectQuery q;
  q.where = {{var("x"), bound("p0"), var("y")},
             {var("y"), bound("p1"), var("z")},
             {var("x"), bound("p2"), bound("e7")}};
  return q;
}

void BM_TriplePattern_Indexed(benchmark::State& state) {
  rdf::TermId subject = GetStore().dict().Lookup(rdf::Term::Iri("e42"));
  for (auto _ : state) {
    rdf::TriplePattern pattern;
    pattern.s = subject;
    benchmark::DoNotOptimize(GetStore().Match(pattern));
  }
}
BENCHMARK(BM_TriplePattern_Indexed);

void BM_TriplePattern_FullScan(benchmark::State& state) {
  rdf::TermId subject = GetStore().dict().Lookup(rdf::Term::Iri("e42"));
  for (auto _ : state) {
    rdf::TriplePattern pattern;
    pattern.s = subject;
    benchmark::DoNotOptimize(GetStore().MatchFullScan(pattern));
  }
}
BENCHMARK(BM_TriplePattern_FullScan);

void BM_Join3_Reordered(benchmark::State& state) {
  query::QueryEngine engine(&GetStore());
  query::SelectQuery q = MakeJoinQuery(GetStore());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q));
  }
}
BENCHMARK(BM_Join3_Reordered);

// ---- Streaming executor -------------------------------------------

query::SelectQuery MakeLimitQuery(const rdf::TripleStore& store) {
  query::SelectQuery q;
  q.where.push_back({query::QueryTerm::Var("x"),
                     query::QueryTerm::Bound(
                         store.dict().Lookup(rdf::Term::Iri("p0"))),
                     query::QueryTerm::Var("y")});
  q.limit = 10;
  return q;
}

void BM_Limit10_Streamed(benchmark::State& state) {
  query::QueryEngine engine(&GetStore());
  query::SelectQuery q = MakeLimitQuery(GetStore());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q));
  }
}
BENCHMARK(BM_Limit10_Streamed);

void BM_PlanCache_Hit(benchmark::State& state) {
  query::QueryEngine engine(&GetStore());
  query::SelectQuery q = MakeJoinQuery(GetStore());
  q.limit = 1;                  // keep execution cheap: planning dominates
  engine.Execute(q);            // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q));
  }
}
BENCHMARK(BM_PlanCache_Hit);

void BM_PlanCache_Miss(benchmark::State& state) {
  query::SelectQuery q = MakeJoinQuery(GetStore());
  q.limit = 1;
  for (auto _ : state) {
    // A fresh engine has an empty private plan cache: every run
    // replans, cardinality estimates included.
    query::QueryEngine engine(&GetStore());
    benchmark::DoNotOptimize(engine.Execute(q));
  }
}
BENCHMARK(BM_PlanCache_Miss);

// ---- LSM store ----------------------------------------------------

void BM_LsmFill(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = TempDbDir("fill");
    storage::StoreOptions options;
    options.use_wal = state.range(0) != 0;
    auto store = storage::KVStore::Open(options, dir);
    state.ResumeTiming();
    for (int i = 0; i < 20000; ++i) {
      rdf::Triple t(i, i % 16, i * 7 % 2048);
      (*store)
          ->Put(storage::EncodeTripleKey(storage::TripleOrder::kSpo, t),
                "v")
          .ok();
    }
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_LsmFill)->Arg(0)->Arg(1)->ArgName("wal");

struct LsmFixture {
  std::unique_ptr<storage::KVStore> with_bloom;
  std::unique_ptr<storage::KVStore> without_bloom;
  LsmFixture() {
    auto build = [](bool bloom) {
      std::string dir = TempDbDir(bloom ? "bloom" : "nobloom");
      storage::StoreOptions options;
      options.use_wal = false;
      options.l0_compaction_trigger = 1000;  // keep many tables
      options.memtable_flush_bytes = 64 << 10;
      if (!bloom) options.table.bloom_bits_per_key = 0;
      auto store = storage::KVStore::Open(options, dir);
      Rng rng(9);
      for (int i = 0; i < 50000; ++i) {
        (*store)->Put("key" + std::to_string(i), "v").ok();
      }
      (*store)->Flush().ok();
      return std::move(*store);
    };
    with_bloom = build(true);
    without_bloom = build(false);
  }
};

LsmFixture& GetLsm() {
  static LsmFixture* fixture = new LsmFixture();
  return *fixture;
}

void BM_LsmNegativeGet_Bloom(benchmark::State& state) {
  int i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GetLsm().with_bloom->Get("absent" + std::to_string(i++ % 10000),
                                 &value));
  }
  state.counters["bloom_skips"] = static_cast<double>(
      GetLsm().with_bloom->stats().bloom_skips);
}
BENCHMARK(BM_LsmNegativeGet_Bloom);

void BM_LsmNegativeGet_NoBloom(benchmark::State& state) {
  int i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GetLsm().without_bloom->Get("absent" + std::to_string(i++ % 10000),
                                    &value));
  }
}
BENCHMARK(BM_LsmNegativeGet_NoBloom);

void BM_LsmPointGet(benchmark::State& state) {
  int i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GetLsm().with_bloom->Get("key" + std::to_string(i++ % 50000),
                                 &value));
  }
}
BENCHMARK(BM_LsmPointGet);

void BM_LsmScan(benchmark::State& state) {
  for (auto _ : state) {
    size_t n = 0;
    GetLsm().with_bloom->Scan(Slice("key1"), Slice("key2"),
                              [&n](const Slice&, const Slice&) {
                                ++n;
                                return true;
                              });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_LsmScan);

// ---- --smoke: executor content checks on a tiny graph -------------

double TimeQueryMs(const query::QueryEngine& engine,
                   const query::SelectQuery& q, query::QueryStats* stats) {
  kbbench::Timer timer;
  engine.Execute(q, {}, stats);
  return timer.ms();
}

/// Rows of MakeJoinQuery's {?x p0 ?y . ?y p1 ?z . ?x p2 e7}, counted
/// by folding one MatchFullScan pass: for every (x p0 y), the number
/// of (x p2 e7) triples times the number of (y p1 *) triples.
size_t BruteForceJoinRows(const rdf::TripleStore& store) {
  auto id = [&](const char* iri) {
    return store.dict().Lookup(rdf::Term::Iri(iri));
  };
  const rdf::TermId p0 = id("p0"), p1 = id("p1"), p2 = id("p2"), e7 = id("e7");
  std::vector<rdf::Triple> all = store.MatchFullScan(rdf::TriplePattern());
  std::map<rdf::TermId, size_t> p1_out, p2_e7;
  for (const rdf::Triple& t : all) {
    if (t.p == p1) ++p1_out[t.s];
    if (t.p == p2 && t.o == e7) ++p2_e7[t.s];
  }
  size_t rows = 0;
  for (const rdf::Triple& t : all) {
    if (t.p != p0) continue;
    auto x = p2_e7.find(t.s);
    auto y = p1_out.find(t.o);
    if (x != p2_e7.end() && y != p1_out.end()) rows += x->second * y->second;
  }
  return rows;
}

int RunSmoke() {
  kbbench::Banner(
      "E10 query+storage (smoke)",
      "the streaming executor stops at LIMIT, reuses cached plans and "
      "joins exactly",
      "LIMIT 10 visits exactly 10 intermediate rows; a repeated shape "
      "hits the plan cache; the 3-way join matches a brute-force count");
  rdf::TripleStore store = BuildStore(33, 200, 5000);
  query::QueryEngine engine(&store);

  query::SelectQuery limit_q = MakeLimitQuery(store);
  query::QueryStats streamed;
  double streamed_ms = TimeQueryMs(engine, limit_q, &streamed);
  kbbench::Row("%-34s %8.3f ms  %6llu intermediate rows",
               "LIMIT 10 streamed", streamed_ms,
               static_cast<unsigned long long>(streamed.intermediate_rows));

  query::SelectQuery join_q = MakeJoinQuery(store);
  query::QueryStats miss, hit;
  double miss_ms = TimeQueryMs(engine, join_q, &miss);
  double hit_ms = TimeQueryMs(engine, join_q, &hit);
  kbbench::Row("%-34s %8.3f ms  cache_hit=%d", "3-way join, first run",
               miss_ms, miss.plan_cache_hit ? 1 : 0);
  kbbench::Row("%-34s %8.3f ms  cache_hit=%d", "3-way join, cached plan",
               hit_ms, hit.plan_cache_hit ? 1 : 0);

  // The join runs on a denser graph (50 entities), where the bound
  // pattern's subjects actually reach p0/p1 paths.
  rdf::TripleStore dense = BuildStore(34, 50, 2000);
  query::QueryEngine dense_engine(&dense);
  const size_t join_rows = dense_engine.Execute(MakeJoinQuery(dense)).size();
  const size_t brute_rows = BruteForceJoinRows(dense);
  kbbench::Row("%-34s %8zu rows (brute force %zu)", "3-way join", join_rows,
               brute_rows);
  kbbench::Report("e10.limit", "streamed_ms", streamed_ms);
  kbbench::Report("e10.limit", "streamed_intermediate_rows",
                  static_cast<double>(streamed.intermediate_rows));
  kbbench::Report("e10.plan_cache", "miss_ms", miss_ms);
  kbbench::Report("e10.plan_cache", "hit_ms", hit_ms);
  kbbench::Report("e10.join", "rows", static_cast<double>(join_rows));
  if (streamed.intermediate_rows != limit_q.limit) {
    kbbench::Row("FAIL: LIMIT %zu visited %llu intermediate rows",
                 limit_q.limit,
                 static_cast<unsigned long long>(streamed.intermediate_rows));
    return 1;
  }
  if (miss.plan_cache_hit || !hit.plan_cache_hit) {
    kbbench::Row("FAIL: repeated query shape missed the plan cache");
    return 1;
  }
  if (join_rows != brute_rows || join_rows == 0) {
    kbbench::Row("FAIL: 3-way join returned %zu rows, brute force %zu",
                 join_rows, brute_rows);
    return 1;
  }
  kbbench::Row("ok");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::BenchArgs args = kbbench::ParseArgs(argc, argv);
  if (args.smoke) return RunSmoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
