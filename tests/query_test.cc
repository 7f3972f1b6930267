#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "query/engine.h"
#include "rdf/frame_store.h"
#include "rdf/namespaces.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "util/statusor.h"

namespace kb {
namespace query {
namespace {

using rdf::Term;
using rdf::TermId;

class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small family/work graph.
    auto iri = [&](const std::string& s) {
      return store_.dict().Intern(Term::Iri(s));
    };
    type_ = iri("type");
    person_ = iri("Person");
    company_ = iri("Company");
    works_for_ = iri("worksFor");
    located_in_ = iri("locatedIn");
    alice_ = iri("Alice");
    bob_ = iri("Bob");
    carol_ = iri("Carol");
    acme_ = iri("Acme");
    globex_ = iri("Globex");
    springfield_ = iri("Springfield");

    store_.Add({alice_, type_, person_});
    store_.Add({bob_, type_, person_});
    store_.Add({carol_, type_, person_});
    store_.Add({acme_, type_, company_});
    store_.Add({globex_, type_, company_});
    store_.Add({alice_, works_for_, acme_});
    store_.Add({bob_, works_for_, acme_});
    store_.Add({carol_, works_for_, globex_});
    store_.Add({acme_, located_in_, springfield_});
  }

  rdf::TripleStore store_;
  TermId type_, person_, company_, works_for_, located_in_;
  TermId alice_, bob_, carol_, acme_, globex_, springfield_;
};

TEST_F(QueryFixture, SinglePatternAllBindings) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Bound(type_),
                     QueryTerm::Bound(person_)});
  QueryEngine engine(&store_);
  auto rows = engine.Execute(q);
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(QueryFixture, TwoPatternJoin) {
  // Who works for a company located in Springfield?
  SelectQuery q;
  q.projection = {"who"};
  q.where.push_back({QueryTerm::Var("who"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("c")});
  q.where.push_back({QueryTerm::Var("c"), QueryTerm::Bound(located_in_),
                     QueryTerm::Bound(springfield_)});
  QueryEngine engine(&store_);
  auto rows = engine.Execute(q);
  ASSERT_EQ(rows.size(), 2u);
  std::set<TermId> who;
  for (const Binding& row : rows) who.insert(row.at("who"));
  EXPECT_TRUE(who.count(alice_));
  EXPECT_TRUE(who.count(bob_));
}

TEST_F(QueryFixture, ThreeWayJoinWithTypeConstraint) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(type_),
                     QueryTerm::Bound(person_)});
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("c")});
  q.where.push_back({QueryTerm::Var("c"), QueryTerm::Bound(type_),
                     QueryTerm::Bound(company_)});
  QueryEngine engine(&store_);
  auto rows = engine.Execute(q);
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(QueryFixture, RepeatedVariableMustAgree) {
  // ?x worksFor ?x never holds here.
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("x")});
  QueryEngine engine(&store_);
  EXPECT_TRUE(engine.Execute(q).empty());
}

TEST_F(QueryFixture, PlannerRunsSelectivePatternFirst) {
  SelectQuery q;
  // Deliberately bad written order: unselective first.
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Var("r"),
                     QueryTerm::Var("o")});
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                     QueryTerm::Bound(acme_)});
  QueryEngine engine(&store_);
  QueryStats stats;
  auto rows = engine.Execute(q, {}, &stats);
  // Alice and Bob each have a type and a worksFor triple.
  EXPECT_EQ(rows.size(), 4u);
  // The two-constant pattern leads (2 matches), then each ?p probes its
  // own 2 triples: 2 + 2 * 2. The written order would visit all 9
  // triples before joining.
  EXPECT_EQ(stats.intermediate_rows, 6u);
  EXPECT_EQ(stats.index_scans, 3u);
}

TEST_F(QueryFixture, ProjectionLimitsColumns) {
  SelectQuery q;
  q.projection = {"c"};
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("c")});
  QueryEngine engine(&store_);
  auto rows = engine.Execute(q);
  for (const Binding& row : rows) {
    EXPECT_EQ(row.size(), 1u);
    EXPECT_TRUE(row.count("c"));
  }
}

TEST_F(QueryFixture, UnknownConstantYieldsEmpty) {
  SelectQuery q;
  QueryTerm ghost = QueryTerm::Bound(rdf::kInvalidTermId);
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Bound(works_for_),
                     ghost});
  QueryEngine engine(&store_);
  EXPECT_TRUE(engine.Execute(q).empty());
}

// ---------------------------------------------------------------- Parser

TEST_F(QueryFixture, ParseAndRunSparql) {
  auto parsed = ParseSparql(
      "SELECT ?who WHERE { ?who <worksFor> ?c . ?c <locatedIn> "
      "<Springfield> . }",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(QueryFixture, ParseRejectsMalformed) {
  EXPECT_FALSE(ParseSparql("FETCH ?x WHERE { }", store_.dict()).ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x { ?x ?y ?z }", store_.dict()).ok());
  EXPECT_FALSE(
      ParseSparql("SELECT ?x WHERE { ?x ?y }", store_.dict()).ok());
  EXPECT_FALSE(
      ParseSparql("SELECT ?x WHERE { ?x ?y ?z . ", store_.dict()).ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { }", store_.dict()).ok());
}

TEST_F(QueryFixture, ParseHandlesLiterals) {
  store_.AddTerms(Term::Iri("Alice"), Term::Iri("name"),
                  Term::Literal("Alice Smith"));
  auto parsed = ParseSparql(
      "SELECT ?x WHERE { ?x <name> \"Alice Smith\" . }", store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  EXPECT_EQ(engine.Execute(*parsed).size(), 1u);
}

TEST_F(QueryFixture, ParseUnknownConstantRunsEmpty) {
  auto parsed = ParseSparql(
      "SELECT ?x WHERE { ?x <worksFor> <Initech> . }", store_.dict());
  ASSERT_TRUE(parsed.ok());
  QueryEngine engine(&store_);
  EXPECT_TRUE(engine.Execute(*parsed).empty());
}


TEST_F(QueryFixture, DistinctDropsDuplicateRows) {
  SelectQuery q;
  q.projection = {"c"};
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("c")});
  QueryEngine engine(&store_);
  auto plain = engine.Execute(q);
  EXPECT_EQ(plain.size(), 3u);  // acme twice, globex once
  q.distinct = true;
  auto distinct = engine.Execute(q);
  EXPECT_EQ(distinct.size(), 2u);
}

TEST_F(QueryFixture, LimitStopsEarly) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Var("y"),
                     QueryTerm::Var("z")});
  q.limit = 2;
  QueryEngine engine(&store_);
  QueryStats stats;
  auto rows = engine.Execute(q, {}, &stats);
  EXPECT_EQ(rows.size(), 2u);
  // Early termination: far fewer intermediate rows than the store.
  EXPECT_LT(stats.intermediate_rows, store_.size());
}

TEST_F(QueryFixture, ParseDistinctAndLimit) {
  auto parsed = ParseSparql(
      "SELECT DISTINCT ?c WHERE { ?p <worksFor> ?c . } LIMIT 1",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->distinct);
  EXPECT_EQ(parsed->limit, 1u);
  QueryEngine engine(&store_);
  EXPECT_EQ(engine.Execute(*parsed).size(), 1u);
  EXPECT_FALSE(ParseSparql(
      "SELECT ?x WHERE { ?x ?y ?z . } LIMIT -3", store_.dict()).ok());
  EXPECT_FALSE(ParseSparql(
      "SELECT ?x WHERE { ?x ?y ?z . } GARBAGE", store_.dict()).ok());
}

// ------------------------------------------------------ Streaming cursor

TEST_F(QueryFixture, CursorStreamsRowsOnDemand) {
  SelectQuery q;
  q.projection = {"who"};
  q.where.push_back({QueryTerm::Var("who"), QueryTerm::Bound(works_for_),
                     QueryTerm::Bound(acme_)});
  QueryEngine engine(&store_);
  Cursor cursor = engine.Open(q);
  ASSERT_EQ(cursor.columns().size(), 1u);
  EXPECT_EQ(cursor.columns()[0], "who");
  std::set<TermId> who;
  Row row;
  while (cursor.Next(&row)) {
    ASSERT_EQ(row.size(), 1u);
    who.insert(row[0]);
    Binding b = cursor.ToBinding(row);
    EXPECT_EQ(b.at("who"), row[0]);
  }
  EXPECT_EQ(who, (std::set<TermId>{alice_, bob_}));
  EXPECT_EQ(cursor.stats().rows_streamed, 2u);
}

TEST_F(QueryFixture, AbandonedCursorDoesNoExtraWork) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Var("y"),
                     QueryTerm::Var("z")});
  QueryEngine engine(&store_);
  Cursor cursor = engine.Open(q);
  Row row;
  ASSERT_TRUE(cursor.Next(&row));
  // One row pulled: the pipeline visited one triple, not the store.
  EXPECT_EQ(cursor.stats().rows_streamed, 1u);
  EXPECT_LT(cursor.stats().intermediate_rows, store_.size());
}

TEST_F(QueryFixture, SnapshotIsolatesCursorFromAppends) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Bound(type_),
                     QueryTerm::Bound(person_)});
  QueryEngine engine(&store_);
  Cursor cursor = engine.Open(q);
  // Appends after Open are invisible to the running query.
  store_.Add({springfield_, type_, person_});
  size_t n = 0;
  for (Row row; cursor.Next(&row);) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(engine.Execute(q).size(), 4u);
}

TEST_F(QueryFixture, LimitPushdownVisitsExactlyWhatItEmits) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("x"), QueryTerm::Var("y"),
                     QueryTerm::Var("z")});
  q.limit = 2;
  QueryEngine engine(&store_);
  QueryStats stats;
  EXPECT_EQ(engine.Execute(q, {}, &stats).size(), 2u);
  // Every visited triple extends the row, so LIMIT 2 stops the scan
  // after exactly 2 of the store's 9 triples.
  EXPECT_EQ(stats.intermediate_rows, 2u);

  // Through a join: the first person's type triple, then its one
  // worksFor triple (the planner leads with the 2-constant pattern).
  SelectQuery join;
  join.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                        QueryTerm::Var("c")});
  join.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(type_),
                        QueryTerm::Bound(person_)});
  join.limit = 1;
  QueryStats join_stats;
  EXPECT_EQ(engine.Execute(join, {}, &join_stats).size(), 1u);
  EXPECT_EQ(join_stats.intermediate_rows, 2u);
}

// ----------------------------------------------------------- Plan cache

TEST_F(QueryFixture, PlanCacheHitsOnRepeatedShape) {
  SelectQuery q;
  q.where.push_back({QueryTerm::Var("p"), QueryTerm::Bound(works_for_),
                     QueryTerm::Var("c")});
  QueryEngine engine(&store_);
  QueryStats first, second;
  engine.Execute(q, {}, &first);
  engine.Execute(q, {}, &second);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);

  // LIMIT is not part of the plan, so variants share the entry.
  q.limit = 1;
  QueryStats limited;
  EXPECT_EQ(engine.Execute(q, {}, &limited).size(), 1u);
  EXPECT_TRUE(limited.plan_cache_hit);

  // A different shape misses.
  q.limit = 0;
  q.distinct = true;
  QueryStats distinct_stats;
  engine.Execute(q, {}, &distinct_stats);
  EXPECT_FALSE(distinct_stats.plan_cache_hit);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  auto plan = std::make_shared<CompiledPlan>();
  cache.Insert("a", plan);
  cache.Insert("b", plan);
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refreshes "a"
  cache.Insert("c", plan);                // evicts "b"
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

// -------------------------------------------- Parser edge cases (more)

TEST_F(QueryFixture, ParseSelectStar) {
  auto parsed = ParseSparql("SELECT * WHERE { ?x <worksFor> ?c . }",
                            store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->projection.empty());
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].size(), 2u);  // both ?x and ?c
}

TEST_F(QueryFixture, ParseMoreMalformedQueries) {
  EXPECT_FALSE(ParseSparql("", store_.dict()).ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ? <p> <o> . }",
                           store_.dict()).ok());  // bare '?'
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x <p> . }",
                           store_.dict()).ok());  // 2-term pattern
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x ?y ?z . } LIMIT",
                           store_.dict()).ok());  // LIMIT without count
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x ?y ?z . } LIMIT two",
                           store_.dict()).ok());
}

TEST_F(QueryFixture, ParseLimitZeroMeansNoLimit) {
  auto parsed = ParseSparql("SELECT ?x WHERE { ?x ?y ?z . } LIMIT 0",
                            store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  EXPECT_EQ(engine.Execute(*parsed).size(), store_.size());
}

TEST_F(QueryFixture, ParseLiteralObjectWithSpaces) {
  store_.AddTerms(Term::Iri("Acme"), Term::Iri("motto"),
                  Term::Literal("We make everything"));
  auto parsed = ParseSparql(
      "SELECT ?x WHERE { ?x <motto> \"We make everything\" . }",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("x"), acme_);
}

// ------------------------------------------------- Equivalence property

// Canonical form for multiset comparison against the reference.
std::vector<std::vector<std::pair<std::string, TermId>>> Canonical(
    std::vector<Binding> rows) {
  std::vector<std::vector<std::pair<std::string, TermId>>> out;
  out.reserve(rows.size());
  for (const Binding& row : rows) {
    out.emplace_back(row.begin(), row.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Reference evaluator: nested loops over MatchFullScan (no indexes, no
// reordering, no streaming) — deliberately the dumbest correct join.
std::vector<Binding> BruteForce(const rdf::TripleStore& store,
                                const SelectQuery& q) {
  std::vector<Binding> out;
  std::set<Binding> seen;
  auto all = store.MatchFullScan(rdf::TriplePattern());
  Binding binding;
  std::function<void(size_t)> rec = [&](size_t depth) {
    if (depth == q.where.size()) {
      Binding row;
      if (q.projection.empty()) {
        row = binding;
      } else {
        for (const std::string& var : q.projection) {
          auto it = binding.find(var);
          if (it != binding.end()) row[var] = it->second;
        }
      }
      if (q.distinct && !seen.insert(row).second) return;
      out.push_back(std::move(row));
      return;
    }
    const QueryPattern& qp = q.where[depth];
    for (const rdf::Triple& t : all) {
      Binding saved = binding;
      auto bind = [&](const QueryTerm& term, TermId value) {
        if (!term.is_var) {
          return term.id != rdf::kInvalidTermId && term.id == value;
        }
        auto it = binding.find(term.var);
        if (it != binding.end()) return it->second == value;
        binding[term.var] = value;
        return true;
      };
      if (bind(qp.s, t.s) && bind(qp.p, t.p) && bind(qp.o, t.o)) {
        rec(depth + 1);
      }
      binding = std::move(saved);
    }
  };
  rec(0);
  return out;
}

TEST(QueryPropertyTest, ExecutorMatchesBruteForceOnRandomQueries) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    std::mt19937 rng(seed);
    rdf::TripleStore store;
    std::vector<TermId> entities, predicates;
    for (int i = 0; i < 10; ++i) {
      entities.push_back(store.dict().Intern(
          rdf::Term::Iri("e" + std::to_string(i))));
    }
    for (int i = 0; i < 4; ++i) {
      predicates.push_back(store.dict().Intern(
          rdf::Term::Iri("p" + std::to_string(i))));
    }
    auto pick = [&rng](const std::vector<TermId>& pool) {
      return pool[rng() % pool.size()];
    };
    for (int i = 0; i < 60; ++i) {
      store.Add({pick(entities), pick(predicates), pick(entities)});
    }

    QueryEngine engine(&store);
    const char* vars[] = {"x", "y", "z"};
    for (int trial = 0; trial < 40; ++trial) {
      SelectQuery q;
      q.distinct = (rng() % 4) == 0;
      size_t num_patterns = 1 + rng() % 3;
      for (size_t i = 0; i < num_patterns; ++i) {
        auto term = [&](bool predicate_pos) {
          if (rng() % 2) return QueryTerm::Var(vars[rng() % 3]);
          return QueryTerm::Bound(
              predicate_pos ? pick(predicates) : pick(entities));
        };
        q.where.push_back({term(false), term(true), term(false)});
      }
      EXPECT_EQ(Canonical(engine.Execute(q)), Canonical(BruteForce(store, q)))
          << "seed=" << seed << " trial=" << trial;
    }
  }
}

// ------------------------------------------------------------ Aggregates

TEST_F(QueryFixture, ParseAggregateGroupByAndExecute) {
  auto parsed = ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } GROUP BY ?c",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->agg.func, AggFunc::kCount);
  EXPECT_EQ(parsed->agg.var, "p");
  EXPECT_EQ(parsed->agg.out_name, "n");
  EXPECT_EQ(parsed->agg.group_by, (std::vector<std::string>{"c"}));
  QueryEngine engine(&store_);
  QueryStats stats;
  auto rows = engine.Execute(*parsed, {}, &stats);
  ASSERT_EQ(rows.size(), 2u);
  std::map<TermId, TermId> counts;
  for (const Binding& row : rows) counts[row.at("c")] = row.at("n");
  EXPECT_EQ(counts[acme_], 2u);
  EXPECT_EQ(counts[globex_], 1u);
  EXPECT_EQ(stats.agg_groups, 2u);
}

TEST_F(QueryFixture, CountStarIsOneGlobalGroup) {
  auto parsed = ParseSparql(
      "SELECT (COUNT(*) AS ?total) WHERE { ?x <type> ?t . }", store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("total"), 5u);
}

TEST_F(QueryFixture, CountDistinctCollapsesDuplicates) {
  auto parsed = ParseSparql(
      "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?p <worksFor> ?c . }",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("n"), 2u);  // acme, globex

  auto plain = ParseSparql(
      "SELECT (COUNT(?c) AS ?n) WHERE { ?p <worksFor> ?c . }",
      store_.dict());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(engine.Execute(*plain)[0].at("n"), 3u);
}

TEST_F(QueryFixture, TopKGroupByIsOrderedAndBounded) {
  auto parsed = ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } "
      "GROUP BY ?c ORDER BY DESC(?n) LIMIT 1",
      store_.dict());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->agg.top_k, 1u);
  EXPECT_EQ(parsed->limit, 0u);  // the bounded heap subsumes LIMIT
  QueryEngine engine(&store_);
  auto rows = engine.Execute(*parsed);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("c"), acme_);
  EXPECT_EQ(rows[0].at("n"), 2u);

  // k larger than the group count: every group, still count-descending.
  auto all = ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } "
      "GROUP BY ?c ORDER BY DESC(?n) LIMIT 10",
      store_.dict());
  ASSERT_TRUE(all.ok());
  auto ordered = engine.Execute(*all);
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].at("c"), acme_);
  EXPECT_EQ(ordered[1].at("c"), globex_);
}

TEST_F(QueryFixture, AggregateParseErrors) {
  const rdf::Dictionary& dict = store_.dict();
  // GROUP BY / ORDER BY require an aggregate.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c WHERE { ?p <worksFor> ?c . } GROUP BY ?c", dict).ok());
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c WHERE { ?p <worksFor> ?c . } ORDER BY DESC(?c) LIMIT 1",
      dict).ok());
  // Top-k needs a LIMIT to bound the heap.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } "
      "GROUP BY ?c ORDER BY DESC(?n)", dict).ok());
  // Sort key must be the aggregate output.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } "
      "GROUP BY ?c ORDER BY DESC(?c) LIMIT 1", dict).ok());
  // SELECT DISTINCT does not combine with an aggregate.
  EXPECT_FALSE(ParseSparql(
      "SELECT DISTINCT (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . }",
      dict).ok());
  // COUNT(DISTINCT *) is not a thing.
  EXPECT_FALSE(ParseSparql(
      "SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?p <worksFor> ?c . }",
      dict).ok());
  // Projection must equal GROUP BY.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?p (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } GROUP BY ?c",
      dict).ok());
  // Projected aggregate without GROUP BY cannot keep plain variables.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . }",
      dict).ok());
  // Output name colliding with a grouped variable.
  EXPECT_FALSE(ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?c) WHERE { ?p <worksFor> ?c . } GROUP BY ?c",
      dict).ok());
  // Only one aggregate per query.
  EXPECT_FALSE(ParseSparql(
      "SELECT (COUNT(?p) AS ?n) (COUNT(?c) AS ?m) "
      "WHERE { ?p <worksFor> ?c . }", dict).ok());
}

TEST_F(QueryFixture, AggregatePlanKeyDistinctFromPlainShape) {
  // Regression: an aggregate and a plain query over the same WHERE
  // shape must not share a plan (or, downstream, a result-cache key).
  auto plain = ParseSparql(
      "SELECT ?c WHERE { ?p <worksFor> ?c . }", store_.dict());
  auto agg = ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } GROUP BY ?c",
      store_.dict());
  ASSERT_TRUE(plain.ok() && agg.ok());
  EXPECT_NE(PlanCacheKey(*plain), PlanCacheKey(*agg));

  QueryEngine engine(&store_);
  QueryStats plain_stats, agg_stats;
  engine.Execute(*plain, {}, &plain_stats);
  auto rows = engine.Execute(*agg, {}, &agg_stats);
  EXPECT_FALSE(agg_stats.plan_cache_hit);
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(rows[0].count("n"));

  // Top-k is not part of the plan: the k-variant reuses the agg plan.
  auto topk = ParseSparql(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <worksFor> ?c . } "
      "GROUP BY ?c ORDER BY DESC(?n) LIMIT 1",
      store_.dict());
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(PlanCacheKey(*agg), PlanCacheKey(*topk));
  QueryStats topk_stats;
  engine.Execute(*topk, {}, &topk_stats);
  EXPECT_TRUE(topk_stats.plan_cache_hit);
}

// -------------------------------------------- Aggregate property tests

/// Reference aggregate evaluator: brute-force join rows, then fold by
/// hand. Mirrors the planner's documented semantics for variables
/// absent from WHERE (dropped from grouping; COUNT degrades to *).
std::vector<std::vector<TermId>> BruteForceAgg(const rdf::TripleStore& store,
                                               const SelectQuery& q) {
  SelectQuery inner = q;
  inner.agg = AggSpec{};
  inner.projection.clear();
  inner.distinct = false;
  inner.limit = 0;
  std::vector<Binding> rows = BruteForce(store, inner);

  std::vector<std::string> group_vars;
  for (const std::string& var : q.agg.group_by) {
    if (!rows.empty() && rows.front().count(var)) group_vars.push_back(var);
    if (rows.empty()) group_vars.push_back(var);  // moot: no rows
  }
  bool count_var_known =
      !q.agg.var.empty() && !rows.empty() && rows.front().count(q.agg.var);
  std::map<std::vector<TermId>, uint64_t> counts;
  std::map<std::vector<TermId>, std::set<TermId>> distincts;
  for (const Binding& row : rows) {
    std::vector<TermId> key;
    for (const std::string& var : group_vars) key.push_back(row.at(var));
    if (q.agg.func == AggFunc::kCountDistinct && count_var_known) {
      distincts[key].insert(row.at(q.agg.var));
    } else {
      ++counts[key];
    }
  }
  if (q.agg.func == AggFunc::kCountDistinct && count_var_known) {
    for (const auto& [key, values] : distincts) {
      counts[key] = values.size();
    }
  }
  std::vector<std::vector<TermId>> out;
  for (const auto& [key, count] : counts) {
    std::vector<TermId> row = key;
    row.push_back(static_cast<TermId>(count));
    out.push_back(std::move(row));
  }
  if (q.agg.top_k > 0) {
    std::sort(out.begin(), out.end(),
              [](const std::vector<TermId>& a, const std::vector<TermId>& b) {
                if (a.back() != b.back()) return a.back() > b.back();
                return std::vector<TermId>(a.begin(), a.end() - 1) <
                       std::vector<TermId>(b.begin(), b.end() - 1);
              });
    if (out.size() > q.agg.top_k) out.resize(q.agg.top_k);
  }
  return out;
}

/// Engine output -> [group values..., count] rows in group_by order.
std::vector<std::vector<TermId>> AggRows(const std::vector<Binding>& rows,
                                         const SelectQuery& q) {
  std::vector<std::vector<TermId>> out;
  for (const Binding& row : rows) {
    std::vector<TermId> flat;
    for (const std::string& var : q.agg.group_by) {
      auto it = row.find(var);
      if (it != row.end()) flat.push_back(it->second);
    }
    flat.push_back(row.at(q.agg.out_name));
    out.push_back(std::move(flat));
  }
  return out;
}

/// A FrameStore over `store`'s terms (same ids) and `triples`.
StatusOr<std::shared_ptr<rdf::FrameStore>> AttachMirror(
    const rdf::TripleStore& store, const std::vector<rdf::Triple>& triples) {
  rdf::FrameStoreBuilder builder;
  for (TermId id = 1; id <= store.dict().size(); ++id) {
    builder.AddTerm(store.dict().term(id));
  }
  builder.AddTriples(triples);
  auto bytes = builder.Serialize();
  if (!bytes.ok()) return bytes.status();
  auto owner = std::make_shared<std::string>(std::move(*bytes));
  return rdf::FrameStore::Attach(owner->data(), owner->size(), owner);
}

TEST(QueryPropertyTest, AggregatesMatchBruteForceOnBothStores) {
  for (uint32_t seed : {3u, 11u, 29u}) {
    std::mt19937 rng(seed);
    rdf::TripleStore store;
    std::vector<TermId> entities, predicates;
    for (int i = 0; i < 8; ++i) {
      entities.push_back(
          store.dict().Intern(rdf::Term::Iri("e" + std::to_string(i))));
    }
    for (int i = 0; i < 3; ++i) {
      predicates.push_back(
          store.dict().Intern(rdf::Term::Iri("p" + std::to_string(i))));
    }
    auto pick = [&rng](const std::vector<TermId>& pool) {
      return pool[rng() % pool.size()];
    };
    for (int i = 0; i < 50; ++i) {
      store.Add({pick(entities), pick(predicates), pick(entities)});
    }

    // Mirror the store into a FrameStore (same term ids), so every
    // trial also runs against the mmap-shaped source. A second
    // FrameStore holds about half of the triples as the base of a
    // snapshot-booted store, which gets all of them added on top: its
    // scans merge base and delta runs.
    const std::vector<rdf::Triple> all =
        store.MatchFullScan(rdf::TriplePattern());
    // Its own generator, so the trials below draw the same queries.
    std::mt19937 split(seed + 1);
    std::vector<rdf::Triple> half;
    for (const rdf::Triple& t : all) {
      if (split() % 2) half.push_back(t);
    }
    auto frame = AttachMirror(store, all);
    ASSERT_TRUE(frame.ok()) << frame.status();
    auto base = AttachMirror(store, half);
    ASSERT_TRUE(base.ok()) << base.status();
    rdf::TripleStore booted(*base);
    for (const rdf::Triple& t : all) booted.Add(t);
    ASSERT_EQ(booted.size(), all.size());

    QueryEngine store_engine(&store);
    QueryEngine frame_engine(frame->get());
    QueryEngine booted_engine(&booted);
    const char* vars[] = {"x", "y", "z"};
    for (int trial = 0; trial < 30; ++trial) {
      SelectQuery q;
      size_t num_patterns = 1 + rng() % 3;
      std::set<std::string> used_vars;
      for (size_t i = 0; i < num_patterns; ++i) {
        auto term = [&](bool predicate_pos) {
          if (rng() % 2) {
            const char* v = vars[rng() % 3];
            used_vars.insert(v);
            return QueryTerm::Var(v);
          }
          return QueryTerm::Bound(predicate_pos ? pick(predicates)
                                                : pick(entities));
        };
        q.where.push_back({term(false), term(true), term(false)});
      }
      if (used_vars.empty()) continue;  // no aggregate over zero vars
      std::vector<std::string> pool(used_vars.begin(), used_vars.end());
      q.agg.func = (rng() % 2) ? AggFunc::kCount : AggFunc::kCountDistinct;
      q.agg.var = pool[rng() % pool.size()];
      q.agg.out_name = "agg_count";
      size_t num_groups = rng() % pool.size();
      for (size_t g = 0; g < num_groups; ++g) {
        q.agg.group_by.push_back(pool[g]);
      }
      bool top_k = (rng() % 3) == 0;
      if (top_k) q.agg.top_k = 1 + rng() % 3;

      auto expected = BruteForceAgg(store, q);
      auto check = [&](QueryEngine& engine, const char* label) {
        auto got = AggRows(engine.Execute(q), q);
        if (q.agg.top_k == 0) std::sort(got.begin(), got.end());
        std::vector<std::vector<TermId>> want = expected;
        if (q.agg.top_k == 0) std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << label << " seed=" << seed
                             << " trial=" << trial;
      };
      check(store_engine, "store");
      check(frame_engine, "frame");
      check(booted_engine, "base+delta");
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace kb
