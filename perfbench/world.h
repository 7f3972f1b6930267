// The serving workloads' WikiWorld: generation, the KB load through
// KnowledgeBase asserts, and the request key sets with every key's
// expected result computed from the gold world (not from the KB).

#ifndef KBFORGE_PERFBENCH_WORLD_H_
#define KBFORGE_PERFBENCH_WORLD_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/knowledge_base.h"
#include "corpus/world.h"

namespace perfbench {

/// One request key and what a correct reply holds.
struct Key {
  std::string text;     ///< card: canonical name; others: SPARQL
  uint32_t entity = 0;  ///< card/point: the entity; scan: bound object
  size_t rows = 0;      ///< point/scan/agg: expected row count
  int64_t top = 0;      ///< agg: expected count in the first row
  std::string display;  ///< card: expected display name
  /// Ingest writes (worksFor facts) can grow this result: a point on
  /// the written subject, a scan of the written company, and the
  /// top-employer dashboard.
  bool grows_with_writes = false;
};

/// Key lists are in Zipf rank order: index 0 is the hottest key.
struct KeySets {
  std::vector<Key> cards, points, scans, aggs;
  /// Persons in the writer's own Zipf rank order (independent of the
  /// read order, so write-hot entities are not read-hot).
  std::vector<uint32_t> write_subjects;
  std::vector<uint32_t> companies;
  std::vector<std::string> names;  ///< canonical name by entity id
  /// (person << 32 | company) for every gold worksFor fact, so the
  /// writer only sends facts that are new to the KB.
  std::unordered_set<uint64_t> works_for;
  size_t triples = 0;  ///< distinct triples the load asserts
  size_t entities = 0;
  size_t scans_out_of_range = 0;  ///< candidate scan keys left out
};

/// The world shape for `persons` persons (other kinds scale with it).
kb::corpus::WorldOptions ServingWorldOptions(uint64_t seed, size_t persons);

/// Asserts the whole gold world: types, labels and facts.
void LoadKb(const kb::corpus::World& world, kb::core::KnowledgeBase* kb);

/// Builds the key sets and their expected results. Scan keys are kept
/// only when their result has 100 to 2,000 rows.
KeySets BuildKeySets(const kb::corpus::World& world, uint64_t seed);

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_WORLD_H_
