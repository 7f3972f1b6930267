#ifndef KBFORGE_QUERY_PLAN_H_
#define KBFORGE_QUERY_PLAN_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/triple_source.h"

namespace kb {
namespace query {

/// One position of a query pattern: a variable or a bound term.
struct QueryTerm {
  bool is_var = false;
  std::string var;          ///< without '?', e.g. "x"
  rdf::TermId id = rdf::kInvalidTermId;

  static QueryTerm Var(std::string name) {
    QueryTerm t;
    t.is_var = true;
    t.var = std::move(name);
    return t;
  }
  static QueryTerm Bound(rdf::TermId id) {
    QueryTerm t;
    t.id = id;
    return t;
  }
};

/// A triple pattern with variables (one conjunct of a basic graph
/// pattern).
struct QueryPattern {
  QueryTerm s, p, o;
};

/// Aggregation function of an AggSpec.
enum class AggFunc : uint8_t {
  kNone,           ///< no aggregation: plain pattern matching
  kCount,          ///< COUNT(*) / COUNT(?x): matched rows per group
  kCountDistinct,  ///< COUNT(DISTINCT ?x): distinct values per group
};

/// Aggregation shape of a SELECT: GROUP BY variables, the aggregate
/// function, and an optional top-k order (ORDER BY DESC(agg) LIMIT k).
/// The function and grouping compile into the plan (they change the
/// operator tree); top_k stays out of the plan-cache key like LIMIT —
/// it only parameterizes the bounded heap at open time.
struct AggSpec {
  AggFunc func = AggFunc::kNone;
  std::string var;       ///< counted variable; empty = COUNT(*)
  std::string out_name;  ///< output column of the aggregate, e.g. "n"
  std::vector<std::string> group_by;  ///< grouping variables, in order
  /// ORDER BY DESC(out_name) LIMIT k: keep only the k largest groups
  /// (count-descending, group-key ascending on ties), 0 = all groups.
  size_t top_k = 0;

  bool enabled() const { return func != AggFunc::kNone; }
};

/// SELECT ?vars WHERE { patterns } — the analytics workhorse over
/// entity-relationship data (tutorial §4 "semantic search and
/// analytics over entities and relations").
struct SelectQuery {
  std::vector<std::string> projection;  ///< empty = all variables
  std::vector<QueryPattern> where;
  bool distinct = false;  ///< drop duplicate projected rows
  size_t limit = 0;       ///< stop after this many rows (0 = no limit)
  AggSpec agg;            ///< aggregation shape; default = none
};

/// How one position of a compiled scan is produced or consumed at
/// execution time, against slot-indexed flat binding rows.
struct Access {
  enum class Kind : uint8_t {
    kConst,  ///< fixed TermId, folded into the scan pattern
    kProbe,  ///< slot bound by an earlier join level: index lookup key
    kBind,   ///< first occurrence of a variable: writes the slot
    kCheck,  ///< repeat occurrence within the same pattern: equality test
  };
  Kind kind = Kind::kBind;
  rdf::TermId constant = rdf::kInvalidTermId;  ///< kConst only
  int slot = -1;                               ///< all variable kinds
};

/// One join level: an index scan whose pattern mixes constants,
/// probe slots (index nested-loop join keys) and freshly bound slots.
struct CompiledScan {
  Access s, p, o;
};

/// Compiled aggregation: the slot-level mirror of AggSpec. When
/// enabled, the executor replaces Project/Distinct with a hash
/// aggregator whose output rows are [group values..., count].
struct CompiledAgg {
  bool enabled = false;
  AggFunc func = AggFunc::kNone;
  std::vector<int> group_slots;  ///< slots of the GROUP BY columns
  /// Slot of the counted variable; -1 = COUNT(*) (row count).
  int agg_slot = -1;
};

/// A compiled, immutable, shareable query plan: the INLJ pipeline
/// order plus the slot layout. Safe to execute from many threads at
/// once (executors keep all mutable state in their own operator tree).
/// LIMIT is deliberately NOT part of the plan, so queries differing
/// only in LIMIT share a cache entry (and so is AggSpec::top_k).
struct CompiledPlan {
  std::vector<CompiledScan> scans;     ///< leaf first, then join levels
  std::vector<std::string> var_names;  ///< slot -> variable name
  std::vector<int> projection_slots;   ///< slots of the output columns
  std::vector<std::string> projection_names;  ///< output column names
  bool distinct = false;
  bool unmatchable = false;  ///< some constant term cannot match
  /// Aggregation pipeline tail. With agg.enabled, projection_names is
  /// [group vars..., agg out name] — one longer than projection_slots
  /// (the aggregate column is computed, not copied from a slot).
  CompiledAgg agg;
};

using PlanPtr = std::shared_ptr<const CompiledPlan>;

/// Compiles `query` into a left-deep index-nested-loop pipeline. Join
/// order is chosen greedily: most statically bound positions first,
/// ties broken by the source's cardinality estimate for the
/// constant-bound pattern.
PlanPtr CompilePlan(const SelectQuery& query, const rdf::TripleSource& source);

/// Cache key capturing the query shape (patterns with variable names
/// and constant ids, projection, DISTINCT, aggregation) — everything
/// that affects the compiled plan except LIMIT.
std::string PlanCacheKey(const SelectQuery& query);

/// Thread-safe LRU cache of compiled plans, so repeated query shapes
/// (the common case for a serving workload) skip planning entirely.
/// Keys embed dictionary term ids, so a cache must not be shared
/// between stores with different dictionaries.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 128) : capacity_(capacity) {}

  /// Returns the cached plan and refreshes its recency, or nullptr.
  PlanPtr Lookup(const std::string& key);

  /// Inserts (or refreshes) a plan, evicting the least recently used
  /// entry beyond capacity.
  void Insert(const std::string& key, PlanPtr plan);

  size_t size() const;

 private:
  using Entry = std::pair<std::string, PlanPtr>;

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  ///< most recent first
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace query
}  // namespace kb

#endif  // KBFORGE_QUERY_PLAN_H_
