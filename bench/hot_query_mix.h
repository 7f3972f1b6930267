#ifndef KBFORGE_BENCH_HOT_QUERY_MIX_H_
#define KBFORGE_BENCH_HOT_QUERY_MIX_H_

// The hot-query mix the serving benches (E13, E15) drive: one
// expensive full-relation scan, a type scan, and per-company member
// lists — repeated shapes, so the result cache has something to do.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/knowledge_base.h"
#include "corpus/world.h"
#include "rdf/namespaces.h"

namespace kbbench {

struct HotQueryMix {
  std::vector<std::string> queries;
  /// Canonical names of the companies whose member lists are in the
  /// mix (entity-card targets for E13).
  std::vector<std::string> companies;
};

/// The object of the most rdf:type triples (smallest id on ties), or
/// kInvalidTermId for an untyped KB. Harvested persons are typed by
/// occupation, so a fixed class such as class/person can match nothing.
inline kb::rdf::TermId MostPopulousClass(const kb::core::KnowledgeBase& kb) {
  const kb::rdf::TermId type_id = kb.store().dict().Lookup(
      kb::rdf::Term::Iri(std::string(kb::rdf::kRdfType)));
  if (type_id == kb::rdf::kInvalidTermId) return kb::rdf::kInvalidTermId;
  kb::rdf::TriplePattern typed;  // (?, rdf:type, ?)
  typed.p = type_id;
  std::map<kb::rdf::TermId, size_t> members;
  for (auto it = kb.store().NewScan(typed); it->Valid(); it->Next()) {
    ++members[it->Value().o];
  }
  kb::rdf::TermId best = kb::rdf::kInvalidTermId;
  size_t best_count = 0;
  for (const auto& [cls, count] : members) {
    if (count > best_count) {
      best = cls;
      best_count = count;
    }
  }
  return best;
}

/// Builds a mix of up to `size` queries: the full worksFor scan, a type
/// scan of the KB's most populous class, then member lists of the
/// world's first companies that have a harvested employee (extraction
/// misses some, and their lists would be empty). Every query runs once
/// before any timing: returns false, naming the culprit, if the scan or
/// the type scan matches no rows — a bench must never time an empty
/// query.
inline bool BuildHotQueryMix(const kb::core::KnowledgeBase& kb,
                             const kb::corpus::World& world, size_t size,
                             HotQueryMix* mix) {
  auto matches = [&kb](const std::string& sparql) {
    auto rows = kb.Query(sparql);
    return rows.ok() && !rows->empty();
  };
  const kb::rdf::TermId cls = MostPopulousClass(kb);
  if (cls == kb::rdf::kInvalidTermId) {
    std::fprintf(stderr, "FAIL: hot-query mix: the KB has no typed entity\n");
    return false;
  }
  mix->queries = {
      "SELECT ?p ?c WHERE { ?p <" + kb::rdf::PropertyIri("worksFor") +
          "> ?c . }",
      "SELECT ?p WHERE { ?p <" + std::string(kb::rdf::kRdfType) + "> <" +
          std::string(kb.store().dict().term(cls).value()) + "> . }",
  };
  for (const std::string& sparql : mix->queries) {
    if (!matches(sparql)) {
      std::fprintf(stderr, "FAIL: hot-query mix query matches no rows: %s\n",
                   sparql.c_str());
      return false;
    }
  }
  for (uint32_t id : world.ByKind(kb::corpus::EntityKind::kCompany)) {
    if (mix->queries.size() >= size) break;
    const kb::corpus::Entity& company = world.entity(id);
    std::string sparql = "SELECT ?p WHERE { ?p <" +
                         kb::rdf::PropertyIri("worksFor") + "> <" +
                         kb::rdf::EntityIri(company.canonical) + "> . }";
    if (!matches(sparql)) continue;
    mix->queries.push_back(std::move(sparql));
    mix->companies.push_back(company.canonical);
  }
  return true;
}

}  // namespace kbbench

#endif  // KBFORGE_BENCH_HOT_QUERY_MIX_H_
