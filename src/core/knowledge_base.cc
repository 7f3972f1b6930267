#include "core/knowledge_base.h"

#include "core/kb_snapshot.h"
#include "util/string_util.h"

namespace kb {
namespace core {

using rdf::Term;
using rdf::TermId;

KnowledgeBase::KnowledgeBase() {
  rdf_type_ = store_.dict().InternIri(std::string(rdf::kRdfType));
  rdfs_subclass_ = store_.dict().InternIri(std::string(rdf::kRdfsSubClassOf));
  rdfs_label_ = store_.dict().InternIri(std::string(rdf::kRdfsLabel));
}

KnowledgeBase::KnowledgeBase(std::shared_ptr<const rdf::FrameStore> base)
    : store_(base), base_(std::move(base)) {
  epoch_.store(base_->epoch(), std::memory_order_release);
  base_entity_count_ = base_->num_entities();
  std::string_view meta_section;
  if (base_->section(rdf::FrameStore::kSectionFactMeta, &meta_section)) {
    base_meta_ = meta_section;
  }
  // The builtins are in every non-trivial snapshot, so these hit the
  // base catalog instead of growing the overlay.
  rdf_type_ = store_.dict().InternIri(std::string(rdf::kRdfType));
  rdfs_subclass_ = store_.dict().InternIri(std::string(rdf::kRdfsSubClassOf));
  rdfs_label_ = store_.dict().InternIri(std::string(rdf::kRdfsLabel));
  RebuildTaxonomyLocked();  // construction: no concurrent access yet
}

std::unique_ptr<KnowledgeBase> KnowledgeBase::FromSnapshot(
    std::shared_ptr<const rdf::FrameStore> base) {
  return std::unique_ptr<KnowledgeBase>(new KnowledgeBase(std::move(base)));
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  epoch_.store(other.epoch_.load(std::memory_order_acquire),
               std::memory_order_release);
  store_ = std::move(other.store_);
  taxonomy_ = std::move(other.taxonomy_);
  entity_terms_ = std::move(other.entity_terms_);
  meta_ = std::move(other.meta_);
  rdf_type_ = other.rdf_type_;
  rdfs_subclass_ = other.rdfs_subclass_;
  rdfs_label_ = other.rdfs_label_;
  base_ = std::move(other.base_);
  base_meta_ = other.base_meta_;
  base_entity_count_ = other.base_entity_count_;
  new_entity_count_ = other.new_entity_count_;
  base_meta_cache_ = std::move(other.base_meta_cache_);
}

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  epoch_.store(other.epoch_.load(std::memory_order_acquire),
               std::memory_order_release);
  store_ = std::move(other.store_);
  taxonomy_ = std::move(other.taxonomy_);
  entity_terms_ = std::move(other.entity_terms_);
  meta_ = std::move(other.meta_);
  rdf_type_ = other.rdf_type_;
  rdfs_subclass_ = other.rdfs_subclass_;
  rdfs_label_ = other.rdfs_label_;
  base_ = std::move(other.base_);
  base_meta_ = other.base_meta_;
  other.base_meta_ = std::string_view();
  base_entity_count_ = other.base_entity_count_;
  new_entity_count_ = other.new_entity_count_;
  base_meta_cache_ = std::move(other.base_meta_cache_);
  return *this;
}

TermId KnowledgeBase::EntityTermLocked(const std::string& canonical) {
  auto it = entity_terms_.find(canonical);
  if (it != entity_terms_.end()) return it->second;
  TermId id = store_.dict().InternIri(rdf::EntityIri(canonical));
  entity_terms_.emplace(canonical, id);
  // Over a snapshot base, entity_terms_ is a lazy cache rather than the
  // full roster, so new entities are counted as they first appear.
  if (base_ != nullptr && id > store_.dict().base_size()) ++new_entity_count_;
  return id;
}

TermId KnowledgeBase::PropertyTermLocked(const std::string& local_name) {
  return store_.dict().InternIri(rdf::PropertyIri(local_name));
}

TermId KnowledgeBase::ClassTermLocked(const std::string& class_name) {
  return store_.dict().InternIri(rdf::ClassIri(class_name));
}

TermId KnowledgeBase::EntityTerm(const std::string& canonical) {
  std::lock_guard<std::mutex> lock(mu_);
  return EntityTermLocked(canonical);
}

TermId KnowledgeBase::PropertyTerm(const std::string& local_name) {
  std::lock_guard<std::mutex> lock(mu_);
  return PropertyTermLocked(local_name);
}

TermId KnowledgeBase::ClassTerm(const std::string& class_name) {
  std::lock_guard<std::mutex> lock(mu_);
  return ClassTermLocked(class_name);
}

void KnowledgeBase::AssertType(const std::string& canonical,
                               const std::string& cls) {
  std::lock_guard<std::mutex> lock(mu_);
  taxonomy_.Intern(cls);
  store_.Add(rdf::Triple(EntityTermLocked(canonical), rdf_type_,
                         ClassTermLocked(cls)));
  BumpEpoch();
}

void KnowledgeBase::AssertSubclass(const std::string& sub,
                                   const std::string& super) {
  std::lock_guard<std::mutex> lock(mu_);
  taxonomy_.AddSubclass(taxonomy_.Intern(sub), taxonomy_.Intern(super));
  store_.Add(rdf::Triple(ClassTermLocked(sub), rdfs_subclass_,
                         ClassTermLocked(super)));
  BumpEpoch();
}

bool KnowledgeBase::InsertMetaLocked(const rdf::Triple& t,
                                     const FactMeta& meta,
                                     bool merge_valid_time) {
  auto it = meta_.lower_bound(t);
  if (it == meta_.end() || !(it->first == t)) {
    // A re-asserted snapshot fact merges into its packed base metadata,
    // not a blank slate: seed the in-memory entry from the base first.
    const FactMeta* inherited = BaseMetaLocked(t);
    if (inherited == nullptr) {
      meta_.emplace_hint(it, t, meta);
      return true;
    }
    it = meta_.emplace_hint(it, t, *inherited);
  }
  it->second.confidence = std::max(it->second.confidence, meta.confidence);
  it->second.support += meta.support;
  if (merge_valid_time && !it->second.valid_time.valid() &&
      meta.valid_time.valid()) {
    it->second.valid_time = meta.valid_time;
  }
  return false;
}

bool KnowledgeBase::AssertFact(const std::string& subject,
                               const std::string& property,
                               const std::string& object,
                               const FactMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  rdf::Triple t(EntityTermLocked(subject), PropertyTermLocked(property),
                EntityTermLocked(object));
  bool fresh = store_.Add(t);
  InsertMetaLocked(t, meta, /*merge_valid_time=*/true);
  BumpEpoch();
  return fresh;
}

bool KnowledgeBase::AssertYearFact(const std::string& subject,
                                   const std::string& property, int32_t year,
                                   const FactMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  rdf::Triple t(EntityTermLocked(subject), PropertyTermLocked(property),
                store_.dict().Intern(Term::IntLiteral(year)));
  bool fresh = store_.Add(t);
  InsertMetaLocked(t, meta, /*merge_valid_time=*/false);
  BumpEpoch();
  return fresh;
}

void KnowledgeBase::AssertLabel(const std::string& canonical,
                                const std::string& label,
                                const std::string& lang) {
  std::lock_guard<std::mutex> lock(mu_);
  store_.Add(rdf::Triple(EntityTermLocked(canonical), rdfs_label_,
                         store_.dict().Intern(Term::LangLiteral(label,
                                                                lang))));
  BumpEpoch();
}

const FactMeta* KnowledgeBase::MetaOf(const rdf::Triple& triple) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = meta_.find(triple);
  if (it != meta_.end()) return &it->second;
  return BaseMetaLocked(triple);
}

const FactMeta* KnowledgeBase::BaseMetaLocked(const rdf::Triple& t) const {
  if (base_meta_.empty()) return nullptr;
  auto it = base_meta_cache_.find(t);
  if (it != base_meta_cache_.end()) return &it->second;
  FactMeta meta;
  if (!LookupPackedMeta(base_meta_, t, &meta)) return nullptr;
  return &base_meta_cache_.emplace(t, meta).first->second;
}

void KnowledgeBase::AddTripleWithMeta(const rdf::Triple& triple,
                                      const FactMeta* meta) {
  std::lock_guard<std::mutex> lock(mu_);
  store_.Add(triple);
  if (meta != nullptr) meta_[triple] = *meta;
  BumpEpoch();
}

void KnowledgeBase::RebuildDerivedIndexes() {
  std::lock_guard<std::mutex> lock(mu_);
  // Entity IRIs from the dictionary.
  for (rdf::TermId id = 1; id <= store_.dict().size(); ++id) {
    const rdf::Term& term = store_.dict().term(id);
    if (term.is_iri() && StartsWith(term.value(), rdf::kEntityNs)) {
      entity_terms_[term.value().substr(rdf::kEntityNs.size())] = id;
    }
  }
  RebuildTaxonomyLocked();
}

void KnowledgeBase::RebuildTaxonomy() {
  std::lock_guard<std::mutex> lock(mu_);
  RebuildTaxonomyLocked();
}

void KnowledgeBase::RebuildTaxonomyLocked() {
  if (base_ != nullptr) {
    // Delta replay interns terms through the dictionary directly, so
    // recount overlay entities from the overlay id range (never the
    // base range — that would defeat the lazy cold-start).
    size_t overlay_entities = 0;
    for (rdf::TermId id = store_.dict().base_size() + 1;
         id <= store_.dict().size(); ++id) {
      const rdf::Term& term = store_.dict().term(id);
      if (term.is_iri() && StartsWith(term.value(), rdf::kEntityNs)) {
        entity_terms_[term.value().substr(rdf::kEntityNs.size())] = id;
        ++overlay_entities;
      }
    }
    new_entity_count_ = overlay_entities;
  }
  auto class_name = [&](rdf::TermId id) -> std::string {
    const rdf::Term& term = store_.dict().term(id);
    if (!term.is_iri() || !StartsWith(term.value(), rdf::kClassNs)) {
      return "";
    }
    return term.value().substr(rdf::kClassNs.size());
  };
  // Classes from rdf:type objects.
  rdf::TriplePattern types;
  types.p = rdf_type_;
  store_.Scan(types, [&](const rdf::Triple& t) {
    std::string cls = class_name(t.o);
    if (!cls.empty()) taxonomy_.Intern(cls);
    return true;
  });
  // Subclass edges from rdfs:subClassOf triples.
  rdf::TriplePattern subclass;
  subclass.p = rdfs_subclass_;
  store_.Scan(subclass, [&](const rdf::Triple& t) {
    std::string sub = class_name(t.s);
    std::string super = class_name(t.o);
    if (!sub.empty() && !super.empty()) {
      taxonomy_.AddSubclass(taxonomy_.Intern(sub), taxonomy_.Intern(super));
    }
    return true;
  });
}

StatusOr<std::vector<query::Binding>> KnowledgeBase::Query(
    std::string_view sparql) const {
  return Query(sparql, query::ExecutionOptions{});
}

StatusOr<std::vector<query::Binding>> KnowledgeBase::Query(
    std::string_view sparql, const query::ExecutionOptions& options,
    query::QueryStats* stats) const {
  // Parsing reads the dictionary, which races with concurrent
  // interning, so it stays under the KB lock. Execution does not: the
  // engine pins a store snapshot, so it runs lock-free while assert
  // workers keep appending.
  auto parsed = ParseQuery(sparql);
  if (!parsed.ok()) return parsed.status();
  return Execute(*parsed, options, stats);
}

StatusOr<query::SelectQuery> KnowledgeBase::ParseQuery(
    std::string_view sparql) const {
  std::lock_guard<std::mutex> lock(mu_);
  return query::ParseSparql(sparql, store_.dict());
}

std::vector<query::Binding> KnowledgeBase::Execute(
    const query::SelectQuery& parsed, const query::ExecutionOptions& options,
    query::QueryStats* stats) const {
  query::QueryEngine engine(&store_, &plan_cache_);
  return engine.Execute(parsed, options, stats);
}

}  // namespace core
}  // namespace kb
