#ifndef KBFORGE_SERVER_WIRE_FACT_H_
#define KBFORGE_SERVER_WIRE_FACT_H_

#include <cstdint>
#include <string>

namespace kb {
namespace core {
class KnowledgeBase;
}  // namespace core

namespace server {

/// A fact as it crosses the wire protocol. Exactly one of `o` /
/// `has_year` carries the object. Shared by the client (insert_facts
/// requests), the server (validated insert batches handed to the
/// replication pre-insert hook) and the replication log's fact codec.
struct WireFact {
  std::string s, p, o;
  bool has_year = false;
  int32_t year = 0;
  double confidence = 1.0;
  uint32_t support = 1;
};

/// Asserts `fact` into `kb` with the metadata the wire carries
/// (confidence and support, nothing else). The leader's insert endpoint
/// and a follower's replay both call this, so both store the same
/// FactMeta for the same fact. Returns true for a new fact, false when
/// it merged into an existing one.
bool AssertWireFact(const WireFact& fact, core::KnowledgeBase* kb);

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_WIRE_FACT_H_
