#ifndef KBFORGE_CORE_KNOWLEDGE_BASE_H_
#define KBFORGE_CORE_KNOWLEDGE_BASE_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "query/engine.h"
#include "rdf/namespaces.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "taxonomy/taxonomy.h"
#include "util/date.h"
#include "util/status.h"

namespace kb {
namespace core {

/// Extraction metadata attached to an asserted fact.
struct FactMeta {
  double confidence = 1.0;
  uint32_t support = 1;     ///< number of supporting occurrences
  uint32_t extractor = 0;   ///< rdf::ExtractorId
  TimeSpan valid_time;
};

/// Fact metadata keyed by triple: a flat open-addressing index (16-byte
/// slots of triple and entry number, linear probing, at most 3/4 full)
/// over entries kept in insertion order. Entries never move, so a
/// FactMeta* stays valid while other facts are added; only the index is
/// rebuilt when it grows.
class FactMetaTable {
 public:
  struct Entry {
    rdf::Triple triple;
    /// True while the entry only mirrors the snapshot base's packed
    /// record (decoded for a MetaOf read); a write to the fact clears
    /// it.
    bool from_base = false;
    FactMeta meta;
  };

  /// The entry for `t`, or nullptr.
  const Entry* Find(const rdf::Triple& t) const;
  /// The entry for `t`, appended with default metadata when absent;
  /// `*added` says which.
  Entry* FindOrAdd(const rdf::Triple& t, bool* added);

  size_t size() const { return entries_.size(); }
  std::deque<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::deque<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  struct Slot {
    rdf::Triple triple;
    uint32_t entry = 0;  ///< index into entries_ + 1; 0 = empty
  };

  /// The slot holding `t`, or the empty slot where it would go.
  size_t FindSlot(const rdf::Triple& t) const;
  void Grow();

  std::deque<Entry> entries_;
  std::vector<Slot> slots_;  // size 0 or a power of two
};

/// The assembled knowledge base: dictionary-encoded triples, a class
/// taxonomy, and per-fact confidence/provenance/temporal metadata —
/// the product the tutorial's §2-§3 pipeline builds and its §4
/// applications consume.
///
/// Concurrency: the Assert*/intern APIs and MetaOf are serialized by
/// one internal mutex, so reduce-phase workers may assert into a
/// shared KB concurrently. Query parses under that lock but executes
/// against an immutable store snapshot, so queries overlap each other
/// and in-flight asserts. Direct access to store(), taxonomy() and
/// meta_map() bypasses the lock — quiesce writers before using those
/// handles.
class KnowledgeBase {
 public:
  KnowledgeBase();

  /// Boots a KB directly over an immutable FrameStore snapshot — the
  /// instant-start path. The snapshot serves reads; asserts land in
  /// the in-memory delta (merged reads behind TripleSource); the epoch
  /// resumes from the snapshot's, so result caches keyed on it stay
  /// coherent. Cold-start cost is O(taxonomy), not O(KB): the taxonomy
  /// is re-derived from two indexed scans, entity terms materialize
  /// lazily, and fact metadata is decoded on first touch from the
  /// snapshot's packed meta section.
  static std::unique_ptr<KnowledgeBase> FromSnapshot(
      std::shared_ptr<const rdf::FrameStore> base);

  /// Movable (the mutex is not moved — the target gets a fresh one).
  /// Moving while another thread still uses the source is a race, as
  /// with any container.
  KnowledgeBase(KnowledgeBase&& other) noexcept;
  KnowledgeBase& operator=(KnowledgeBase&& other) noexcept;

  rdf::TripleStore& store() { return store_; }
  const rdf::TripleStore& store() const { return store_; }
  taxonomy::Taxonomy& taxonomy() { return taxonomy_; }
  const taxonomy::Taxonomy& taxonomy() const { return taxonomy_; }

  /// Interns (or returns) the IRI term for an entity canonical name.
  rdf::TermId EntityTerm(const std::string& canonical);

  /// Interns the property IRI for a relation local name.
  rdf::TermId PropertyTerm(const std::string& local_name);

  /// Interns the class IRI.
  rdf::TermId ClassTerm(const std::string& class_name);

  /// Asserts entity rdf:type class (also interning the class into the
  /// taxonomy).
  void AssertType(const std::string& canonical, const std::string& cls);

  /// Asserts a subClassOf axiom in both the taxonomy and the store.
  void AssertSubclass(const std::string& sub, const std::string& super);

  /// Asserts an entity-object fact with metadata. Returns false if the
  /// triple was already present (metadata is then merged: max
  /// confidence, summed support).
  bool AssertFact(const std::string& subject, const std::string& property,
                  const std::string& object, const FactMeta& meta);

  /// Asserts a literal-object fact (year).
  bool AssertYearFact(const std::string& subject, const std::string& property,
                      int32_t year, const FactMeta& meta);

  /// Asserts an rdfs:label in a language.
  void AssertLabel(const std::string& canonical, const std::string& label,
                   const std::string& lang);

  /// Metadata for a triple (nullptr if untracked). The pointer stays
  /// valid until the KB is moved from or destroyed.
  const FactMeta* MetaOf(const rdf::Triple& triple) const;

  /// The fact metadata held in memory (used by persistence): every fact
  /// asserted or loaded into this KB, plus, flagged from_base, snapshot
  /// facts whose packed record MetaOf has decoded.
  const FactMetaTable& meta_map() const { return meta_; }

  /// Bulk-load path for persistence: inserts a raw triple (ids must be
  /// valid in this KB's dictionary) with optional metadata, bypassing
  /// the canonical-name APIs.
  void AddTripleWithMeta(const rdf::Triple& triple, const FactMeta* meta);

  /// Re-derives what a bulk load or a delta replay bypasses: the
  /// taxonomy, from indexed rdf:type and rdfs:subClassOf scans, and the
  /// entity count, by recounting the entity IRIs of the dictionary's
  /// overlay range (all of a plain KB's terms; a snapshot base's range
  /// is counted in its header, so cold start stays lazy).
  void RebuildTaxonomy();

  /// Number of distinct entity IRIs in the dictionary. O(1).
  size_t NumEntities() const {
    return base_entity_count_ +
           new_entity_count_.load(std::memory_order_relaxed);
  }
  size_t NumTriples() const { return store_.size(); }
  size_t NumClasses() const { return taxonomy_.size(); }

  /// Runs a SPARQL-lite query against the store.
  StatusOr<std::vector<query::Binding>> Query(std::string_view sparql) const;

  /// Query with serving limits (deadline, row cap) and optional stats
  /// out-param — the serving layer's entry point.
  /// On a deadline the partial rows produced so far are returned and
  /// `stats->deadline_exceeded` is set; callers decide whether a
  /// prefix is acceptable.
  StatusOr<std::vector<query::Binding>> Query(
      std::string_view sparql, const query::ExecutionOptions& options,
      query::QueryStats* stats = nullptr) const;

  /// Parses without executing, under the KB lock (the dictionary races
  /// with concurrent interning otherwise). The serving layer parses
  /// first to derive its result-cache key from the normalized shape,
  /// then executes only on a miss.
  StatusOr<query::SelectQuery> ParseQuery(std::string_view sparql) const;

  /// Executes an already-parsed query through this KB's plan cache,
  /// against a store snapshot (safe alongside concurrent asserts).
  std::vector<query::Binding> Execute(const query::SelectQuery& parsed,
                                      const query::ExecutionOptions& options,
                                      query::QueryStats* stats = nullptr) const;

  /// Monotone write-version of this KB: bumped by every mutating call
  /// (asserts, bulk loads). Caches keyed by (query, epoch) — the
  /// serving layer's result cache — drop stale entries for free on the
  /// next write, without any explicit invalidation traffic.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Serializes all triples as N-Triples (Linked-Data export).
  std::string ExportNTriples() const { return rdf::WriteNTriples(store_); }

 private:
  explicit KnowledgeBase(std::shared_ptr<const rdf::FrameStore> base);

  rdf::TermId EntityTermLocked(std::string_view canonical);
  rdf::TermId PropertyTermLocked(std::string_view local_name);
  rdf::TermId ClassTermLocked(std::string_view class_name);
  bool InsertMetaLocked(const rdf::Triple& t, const FactMeta& meta,
                        bool merge_valid_time);
  void RebuildTaxonomyLocked();
  /// Takes over `other`'s state and leaves it empty; both locks held.
  void MoveFromLocked(KnowledgeBase* other);

  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  mutable std::mutex mu_;
  /// Compiled plans for repeated query shapes, keyed against this KB's
  /// dictionary ids. Internally synchronized; not moved with the KB
  /// (the target starts with a cold cache).
  mutable query::PlanCache plan_cache_;
  std::atomic<uint64_t> epoch_{0};
  rdf::TripleStore store_;
  taxonomy::Taxonomy taxonomy_;
  /// Written under mu_, also by MetaOf, which decodes base records
  /// into it on first access.
  mutable FactMetaTable meta_;
  rdf::TermId rdf_type_;
  rdf::TermId rdfs_subclass_;
  rdf::TermId rdfs_label_;

  /// Snapshot-boot state (null/empty for a plain KB). base_meta_ views
  /// the snapshot's packed meta section; base_entity_count_ is the
  /// snapshot header's entity count.
  std::shared_ptr<const rdf::FrameStore> base_;
  std::string_view base_meta_;
  size_t base_entity_count_ = 0;
  /// Entity IRIs in the dictionary's overlay range. Written under mu_;
  /// NumEntities reads it without the lock.
  std::atomic<size_t> new_entity_count_{0};
};

}  // namespace core
}  // namespace kb

#endif  // KBFORGE_CORE_KNOWLEDGE_BASE_H_
