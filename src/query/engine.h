#ifndef KBFORGE_QUERY_ENGINE_H_
#define KBFORGE_QUERY_ENGINE_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/plan.h"
#include "rdf/triple_store.h"
#include "util/statusor.h"

namespace kb {
namespace query {

/// A result row: variable name -> term id. (Materializing API; the
/// executor works on slot-indexed flat rows and converts at the
/// boundary.)
using Binding = std::map<std::string, rdf::TermId>;

/// A slot-indexed flat binding row, the executor's native currency:
/// row[slot] holds the value of plan->var_names[slot].
using Row = std::vector<rdf::TermId>;

/// Per-execution serving limits: a cooperative deadline checked inside
/// the operator loops (so a join that grinds through millions of
/// intermediate triples without yielding a row still stops), and a hard
/// cap on produced rows. Both are enforced by Cursor::Next; when either
/// trips, the cursor ends its stream and flags QueryStats, so callers
/// can distinguish "exhausted" from "cut off" (and e.g. refuse to serve
/// or cache a truncated result).
struct ExecutionOptions {
  /// Absolute give-up point; time_point{} (the epoch) = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Stop after this many produced rows; 0 = unlimited. Unlike LIMIT
  /// this is a server-side protection, not part of the query (it does
  /// not join the plan-cache key and trips `max_rows_hit`).
  size_t max_rows = 0;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
};

/// Execution counters.
struct QueryStats {
  uint64_t patterns_evaluated = 0;  ///< index scans opened
  uint64_t intermediate_rows = 0;   ///< triples visited across all levels
  uint64_t index_scans = 0;
  uint64_t rows_streamed = 0;  ///< rows the root operator produced
  /// Groups the hash aggregator materialized (aggregate queries only).
  uint64_t agg_groups = 0;
  bool plan_cache_hit = false;
  /// The deadline expired before the stream was exhausted: whatever
  /// rows were produced are a prefix, not the full result.
  bool deadline_exceeded = false;
  /// The row cap stopped the stream.
  bool max_rows_hit = false;
};

/// A pull cursor over one executing query: the root of a Volcano-style
/// operator tree (IndexScan -> IndexNestedLoopJoin* -> Project ->
/// Distinct? -> Limit?). Rows are produced on demand, so LIMIT stops
/// the pipeline without materializing intermediates. Movable,
/// single-consumer; holds the source snapshot alive.
class Cursor {
 public:
  class Operator;  ///< defined in engine.cc

  /// Shared cooperative-cancellation state for one execution. The scan
  /// and join operators poll Expired() from their inner loops, so a
  /// deadline cuts off even executions that churn through intermediate
  /// triples without ever surfacing a row. The clock is only consulted
  /// every kCheckStride polls (a steady_clock read per triple would
  /// dominate scan cost); once expired, the state latches.
  struct CancelState {
    static constexpr uint32_t kCheckStride = 256;

    std::chrono::steady_clock::time_point deadline{};
    uint32_t polls_until_check = 0;  ///< first poll checks the clock
    bool armed = false;
    bool expired = false;

    bool Expired() {
      if (!armed || expired) return expired;
      if (polls_until_check > 0) {
        --polls_until_check;
        return false;
      }
      polls_until_check = kCheckStride - 1;
      expired = std::chrono::steady_clock::now() >= deadline;
      return expired;
    }
  };

  Cursor(Cursor&&) noexcept;
  Cursor& operator=(Cursor&&) noexcept;
  ~Cursor();

  /// Pulls the next projected row; false at end of stream.
  bool Next(Row* row);

  /// Output column names, in row order.
  const std::vector<std::string>& columns() const;

  /// Counters so far (final once Next returned false).
  const QueryStats& stats() const { return *stats_; }

  /// Converts a projected row to the map-based Binding.
  Binding ToBinding(const Row& row) const;

 private:
  friend class QueryEngine;
  Cursor(PlanPtr plan, std::shared_ptr<const rdf::TripleSource> snapshot,
         const rdf::TripleSource* source, const ExecutionOptions& options,
         size_t limit, size_t top_k);

  PlanPtr plan_;
  std::shared_ptr<const rdf::TripleSource> snapshot_;  ///< may be null
  std::unique_ptr<CancelState> cancel_;
  std::unique_ptr<Operator> root_;
  std::unique_ptr<QueryStats> stats_;
  size_t max_rows_ = 0;  ///< row cap (0 = unlimited)
  bool flushed_metrics_ = false;
};

/// Compiles SelectQuerys into streaming operator pipelines over any
/// TripleSource (in-memory TripleStore, one of its snapshots, or a
/// mapped FrameStore) with index nested-loop joins, greedy
/// selectivity-based join ordering and an LRU plan cache.
class QueryEngine {
 public:
  /// `cache` (optional) shares compiled plans across engines over the
  /// same dictionary; by default each engine keeps a private cache.
  /// Both pointers must outlive the engine.
  explicit QueryEngine(const rdf::TripleSource* source,
                       PlanCache* cache = nullptr)
      : source_(source), cache_(cache != nullptr ? cache : &own_cache_) {}

  /// Runs the query, returning all result rows (projected).
  std::vector<Binding> Execute(const SelectQuery& query,
                               const ExecutionOptions& options = {},
                               QueryStats* stats = nullptr) const;

  /// Opens a streaming cursor; rows are computed as they are pulled.
  Cursor Open(const SelectQuery& query,
              const ExecutionOptions& options = {}) const;

 private:
  PlanPtr GetPlan(const SelectQuery& query, bool* cache_hit) const;

  const rdf::TripleSource* source_;
  PlanCache* cache_;
  mutable PlanCache own_cache_;
};

/// Parses a minimal SPARQL subset:
///   SELECT ?x ?y WHERE { ?x <iri> ?y . <iri> ?p "literal" . }
/// Terms are N-Triples syntax or ?variables. Unknown constant terms
/// yield an empty-result query (they cannot match).
///
/// Aggregates (the analytics surface):
///   SELECT ?g (COUNT(?x) AS ?n) WHERE { ... } GROUP BY ?g
///     [ORDER BY DESC(?n)] [LIMIT k]
/// COUNT(*), COUNT(?x) and COUNT(DISTINCT ?x) are supported; with
/// ORDER BY DESC(agg) + LIMIT the query becomes a top-k GROUP BY
/// answered with a bounded heap (AggSpec::top_k) instead of LIMIT.
StatusOr<SelectQuery> ParseSparql(std::string_view text,
                                  const rdf::Dictionary& dict);

}  // namespace query
}  // namespace kb

#endif  // KBFORGE_QUERY_ENGINE_H_
