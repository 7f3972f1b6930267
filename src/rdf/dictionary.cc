#include "rdf/dictionary.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/logging.h"

namespace kb {
namespace rdf {

Dictionary::Dictionary() = default;

Dictionary::Dictionary(std::shared_ptr<const TermCatalog> base)
    : base_(std::move(base)),
      base_size_(base_ != nullptr ? base_->catalog_size() : 0) {
  if (base_size_ > 0) {
    base_cache_ =
        std::make_unique<std::atomic<const Term*>[]>(base_size_ + 1);
    for (size_t i = 0; i <= base_size_; ++i) {
      base_cache_[i].store(nullptr, std::memory_order_relaxed);
    }
  }
}

Dictionary::~Dictionary() { DestroyBaseCache(); }

void Dictionary::DestroyBaseCache() {
  if (base_cache_ == nullptr) return;
  for (size_t i = 0; i <= base_size_; ++i) {
    delete base_cache_[i].load(std::memory_order_relaxed);
  }
  base_cache_.reset();
}

Dictionary::Dictionary(Dictionary&& other) noexcept {
  *this = std::move(other);
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this == &other) return *this;
  DestroyBaseCache();
  base_ = std::move(other.base_);
  base_size_ = other.base_size_;
  base_cache_ = std::move(other.base_cache_);
  terms_ = std::move(other.terms_);
  slots_ = std::exchange(other.slots_, {});
  other.base_size_ = 0;
  other.terms_.clear();
  return *this;
}

TermId Dictionary::Intern(const Term& term) {
  return InternKey(TermKey::Of(term), &term);
}

TermId Dictionary::InternIri(std::string_view ns, std::string_view local) {
  return InternKey(TermKey::Iri(ns, local), nullptr);
}

TermId Dictionary::InternKey(const TermKey& key, const Term* term) {
  TermId id = LookupBase(key);
  if (id != kInvalidTermId) return id;
  {
    std::shared_lock<std::shared_mutex> read_lock(mu_);
    if (!slots_.empty()) {
      id = slots_[FindSlot(key)].id;
      if (id != kInvalidTermId) return id;
    }
  }
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  if (2 * (terms_.size() + 1) > slots_.size()) Grow();
  Slot& slot = slots_[FindSlot(key)];
  if (slot.id != kInvalidTermId) return slot.id;
  terms_.push_back(term != nullptr ? *term : key.ToTerm());
  slot.id = static_cast<TermId>(base_size_ + terms_.size());
  slot.hash = static_cast<uint32_t>(key.hash);
  return slot.id;
}

TermId Dictionary::Lookup(const Term& term) const {
  const TermKey key = TermKey::Of(term);
  TermId id = LookupBase(key);
  if (id != kInvalidTermId) return id;
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  return slots_.empty() ? kInvalidTermId : slots_[FindSlot(key)].id;
}

TermId Dictionary::LookupBase(const TermKey& key) const {
  return base_ != nullptr ? base_->CatalogLookup(key) : kInvalidTermId;
}

size_t Dictionary::FindSlot(const TermKey& key) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(key.hash);
  size_t i = key.hash & mask;
  while (slots_[i].id != kInvalidTermId &&
         !(slots_[i].hash == tag &&
           key.Matches(terms_[slots_[i].id - base_size_ - 1]))) {
    i = (i + 1) & mask;
  }
  return i;
}

void Dictionary::Grow() {
  const size_t n = std::max<size_t>(16, 2 * slots_.size());
  // A slot keeps 32 bits of its hash: enough to place it in any table
  // of up to 2^32 slots.
  KB_CHECK(uint64_t{n} <= (uint64_t{1} << 32))
      << "dictionary overlay too large";
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n));
  for (const Slot& slot : old) {
    if (slot.id == kInvalidTermId) continue;
    size_t i = slot.hash & (n - 1);
    while (slots_[i].id != kInvalidTermId) i = (i + 1) & (n - 1);
    slots_[i] = slot;
  }
}

const Term& Dictionary::term(TermId id) const {
  KB_CHECK(id != kInvalidTermId && id <= size()) << "bad term id " << id;
  if (id <= base_size_) return BaseTerm(id);
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  // Deque references are stable across push_back, so releasing the
  // lock before the caller dereferences is fine.
  return terms_[id - base_size_ - 1];
}

const Term& Dictionary::BaseTerm(TermId id) const {
  const Term* cached = base_cache_[id].load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  const Term* fresh = new Term(base_->CatalogTerm(id));
  const Term* expected = nullptr;
  if (base_cache_[id].compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

size_t Dictionary::size() const {
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  return base_size_ + terms_.size();
}

}  // namespace rdf
}  // namespace kb
