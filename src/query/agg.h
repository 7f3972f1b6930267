#ifndef KBFORGE_QUERY_AGG_H_
#define KBFORGE_QUERY_AGG_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "query/engine.h"

namespace kb {
namespace query {

/// Hash of an id row (group keys here, DISTINCT rows in the executor).
struct RowHash {
  size_t operator()(const Row& row) const;
};

/// Hash-based GROUP BY accumulator behind the executor's
/// HashAggregateOp. Group keys are bare id tuples (no term
/// materialization — the executor stays id-native until the result
/// boundary); values are row counts or distinct-id sets, per
/// CompiledAgg::func.
///
/// Finish() emits [group values..., count] rows. With top_k > 0 only
/// the k largest groups survive, selected with a bounded min-heap in
/// O(G log k) (count-descending, group-key-ascending on ties, so the
/// order is deterministic) instead of sorting all G groups.
class GroupAggregator {
 public:
  explicit GroupAggregator(const CompiledAgg& agg) : agg_(agg) {}

  /// Folds one full-width executor row into its group.
  void Accumulate(const Row& row);

  /// Groups materialized so far.
  size_t num_groups() const { return groups_.size(); }

  /// Emits the aggregated rows; ordered (best first) iff top_k > 0.
  /// Counts saturate at kMaxCount — they ride in a TermId column.
  std::vector<Row> Finish(size_t top_k) &&;

  /// Largest representable count: stays clear of rdf::kAnyTerm so a
  /// count can never be mistaken for the wildcard.
  static constexpr uint64_t kMaxCount = 0xfffffffeu;

 private:
  struct Accum {
    uint64_t count = 0;
    std::unordered_set<rdf::TermId> distinct;
  };

  CompiledAgg agg_;
  Row key_;  ///< scratch group key, reused across rows
  std::unordered_map<Row, Accum, RowHash> groups_;
};

}  // namespace query
}  // namespace kb

#endif  // KBFORGE_QUERY_AGG_H_
