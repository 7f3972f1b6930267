#include "server/wire_fact.h"

#include "core/knowledge_base.h"

namespace kb {
namespace server {

bool AssertWireFact(const WireFact& fact, core::KnowledgeBase* kb) {
  core::FactMeta meta;
  meta.confidence = fact.confidence;
  meta.support = fact.support;
  return fact.has_year ? kb->AssertYearFact(fact.s, fact.p, fact.year, meta)
                       : kb->AssertFact(fact.s, fact.p, fact.o, meta);
}

}  // namespace server
}  // namespace kb
