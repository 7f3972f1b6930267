#include "core/knowledge_base.h"

#include <algorithm>
#include <utility>

#include "core/kb_snapshot.h"
#include "util/string_util.h"

namespace kb {
namespace core {

using rdf::Term;
using rdf::TermId;

const FactMetaTable::Entry* FactMetaTable::Find(const rdf::Triple& t) const {
  if (slots_.empty()) return nullptr;
  const Slot& slot = slots_[FindSlot(t)];
  return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1];
}

FactMetaTable::Entry* FactMetaTable::FindOrAdd(const rdf::Triple& t,
                                               bool* added) {
  if (4 * (entries_.size() + 1) > 3 * slots_.size()) Grow();
  Slot& slot = slots_[FindSlot(t)];
  *added = slot.entry == 0;
  if (*added) {
    entries_.push_back(Entry{t, false, FactMeta()});
    slot.triple = t;
    slot.entry = static_cast<uint32_t>(entries_.size());
  }
  return &entries_[slot.entry - 1];
}

size_t FactMetaTable::FindSlot(const rdf::Triple& t) const {
  const size_t mask = slots_.size() - 1;
  size_t i = rdf::TripleHash()(t) & mask;
  while (slots_[i].entry != 0 && !(slots_[i].triple == t)) i = (i + 1) & mask;
  return i;
}

void FactMetaTable::Grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<size_t>(16, 2 * slots_.size())));
  for (const Slot& slot : old) {
    if (slot.entry != 0) slots_[FindSlot(slot.triple)] = slot;
  }
}

KnowledgeBase::KnowledgeBase() {
  rdf_type_ = store_.dict().InternIri(rdf::kRdfType);
  rdfs_subclass_ = store_.dict().InternIri(rdf::kRdfsSubClassOf);
  rdfs_label_ = store_.dict().InternIri(rdf::kRdfsLabel);
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
  rdf_type_ = store_.dict().InternIri(rdf::kRdfType);
  rdfs_subclass_ = store_.dict().InternIri(rdf::kRdfsSubClassOf);
  rdfs_label_ = store_.dict().InternIri(rdf::kRdfsLabel);
  RebuildTaxonomyLocked();  // construction: no concurrent access yet
}

std::unique_ptr<KnowledgeBase> KnowledgeBase::FromSnapshot(
    std::shared_ptr<const rdf::FrameStore> base) {
  return std::unique_ptr<KnowledgeBase>(new KnowledgeBase(std::move(base)));
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  MoveFromLocked(&other);
}

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  MoveFromLocked(&other);
  return *this;
}

void KnowledgeBase::MoveFromLocked(KnowledgeBase* other) {
  epoch_.store(other->epoch_.load(std::memory_order_acquire),
               std::memory_order_release);
  store_ = std::move(other->store_);
  taxonomy_ = std::move(other->taxonomy_);
  meta_ = std::exchange(other->meta_, FactMetaTable());
  rdf_type_ = other->rdf_type_;
  rdfs_subclass_ = other->rdfs_subclass_;
  rdfs_label_ = other->rdfs_label_;
  base_ = std::move(other->base_);
  // The source must not keep a view into a mapping it no longer owns.
  base_meta_ = std::exchange(other->base_meta_, std::string_view());
  base_entity_count_ = std::exchange(other->base_entity_count_, 0);
  new_entity_count_.store(other->new_entity_count_.exchange(0),
                          std::memory_order_relaxed);
}

TermId KnowledgeBase::EntityTermLocked(std::string_view canonical) {
  const size_t known = store_.dict().size();
  const TermId id = store_.dict().InternIri(rdf::kEntityNs, canonical);
  if (id > known) new_entity_count_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TermId KnowledgeBase::PropertyTermLocked(std::string_view local_name) {
  return store_.dict().InternIri(rdf::kPropertyNs, local_name);
}

TermId KnowledgeBase::ClassTermLocked(std::string_view class_name) {
  return store_.dict().InternIri(rdf::kClassNs, class_name);
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
  bool added = false;
  FactMetaTable::Entry* entry = meta_.FindOrAdd(t, &added);
  // A re-asserted snapshot fact merges into its packed base metadata,
  // not a blank slate: seed a new entry from the base first.
  if (added &&
      (base_meta_.empty() || !LookupPackedMeta(base_meta_, t, &entry->meta))) {
    entry->meta = meta;
    return true;
  }
  entry->from_base = false;
  FactMeta& merged = entry->meta;
  merged.confidence = std::max(merged.confidence, meta.confidence);
  merged.support += meta.support;
  if (merge_valid_time && !merged.valid_time.valid() &&
      meta.valid_time.valid()) {
    merged.valid_time = meta.valid_time;
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
  if (const FactMetaTable::Entry* entry = meta_.Find(triple)) {
    return &entry->meta;
  }
  // A snapshot fact's packed record is decoded into the table on first
  // access, so the pointer outlives this call.
  FactMeta meta;
  if (base_meta_.empty() || !LookupPackedMeta(base_meta_, triple, &meta)) {
    return nullptr;
  }
  bool added = false;
  FactMetaTable::Entry* entry = meta_.FindOrAdd(triple, &added);
  entry->from_base = true;
  entry->meta = meta;
  return &entry->meta;
}

void KnowledgeBase::AddTripleWithMeta(const rdf::Triple& triple,
                                      const FactMeta* meta) {
  std::lock_guard<std::mutex> lock(mu_);
  store_.Add(triple);
  if (meta != nullptr) {
    bool added = false;
    FactMetaTable::Entry* entry = meta_.FindOrAdd(triple, &added);
    entry->from_base = false;
    entry->meta = *meta;
  }
  BumpEpoch();
}

void KnowledgeBase::RebuildTaxonomy() {
  std::lock_guard<std::mutex> lock(mu_);
  RebuildTaxonomyLocked();
}

void KnowledgeBase::RebuildTaxonomyLocked() {
  // Bulk loads and delta replay intern terms through the dictionary
  // directly, so recount entities over the overlay id range (never the
  // base range: that would defeat the lazy cold start).
  size_t overlay_entities = 0;
  for (rdf::TermId id = store_.dict().base_size() + 1;
       id <= store_.dict().size(); ++id) {
    const rdf::Term& term = store_.dict().term(id);
    if (term.is_iri() && StartsWith(term.value(), rdf::kEntityNs)) {
      ++overlay_entities;
    }
  }
  new_entity_count_.store(overlay_entities, std::memory_order_relaxed);
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
