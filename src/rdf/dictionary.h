#ifndef KBFORGE_RDF_DICTIONARY_H_
#define KBFORGE_RDF_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace kb {
namespace rdf {

/// Dense integer id for a dictionary-encoded term. Id 0 is reserved as
/// "invalid"; valid ids start at 1.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

/// Read-only view of an immutable, pre-interned term catalog — e.g. a
/// mmap'd FrameStore snapshot. Ids [1, catalog_size()] belong to the
/// catalog; a Dictionary layered on top hands out ids above that, so
/// ids assigned before a snapshot stay stable after it is reopened.
/// Implementations must be safe for concurrent readers.
class TermCatalog {
 public:
  virtual ~TermCatalog() = default;

  /// Number of terms in the catalog (ids 1..catalog_size()).
  virtual size_t catalog_size() const = 0;

  /// Materializes the term for an id in [1, catalog_size()].
  virtual Term CatalogTerm(TermId id) const = 0;

  /// Id of the term `key` names in the catalog, or kInvalidTermId if
  /// absent. `key.hash` is HashTermParts of the key's parts.
  virtual TermId CatalogLookup(const TermKey& key) const = 0;
};

/// Bidirectional mapping between RDF terms and dense ids. Dictionary
/// encoding is what lets the triple store hold hundreds of millions of
/// triples in sorted integer arrays (the standard RDF-store design).
///
/// A Dictionary may sit on top of an immutable TermCatalog base: base
/// ids are served from the catalog (materialized lazily, cached), and
/// newly interned terms get overlay ids starting at base_size()+1.
/// The overlay's index is a flat open-addressing table of ids keyed by
/// HashTermParts, the hash the .kbsnap dict index uses, so a lookup
/// hashes its term once and probes the catalog and the overlay with the
/// same value. IRIs can be interned by (namespace, local name) parts;
/// the joined string is built only when the IRI is new.
///
/// Thread safety: Lookup()/term()/size() may run concurrently with one
/// another and with Intern(). Intern() calls are serialized against
/// each other internally, but callers typically hold a coarser write
/// lock (KnowledgeBase does). References returned by term() stay valid
/// for the lifetime of the Dictionary — overlay terms live in a deque,
/// base terms in a CAS-published cache that is never torn down early.
class Dictionary {
 public:
  Dictionary();
  explicit Dictionary(std::shared_ptr<const TermCatalog> base);
  ~Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  /// Moving is not thread-safe: no concurrent readers of either side.
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Returns the id for `term`, interning it if new.
  TermId Intern(const Term& term);

  /// Returns the id of the IRI `ns` + `local`, interning it if new.
  TermId InternIri(std::string_view ns, std::string_view local = {});

  /// Returns the id if present, kInvalidTermId otherwise.
  TermId Lookup(const Term& term) const;

  /// Returns the term for a valid id. Aborts on invalid id.
  const Term& term(TermId id) const;

  /// Number of interned terms (base + overlay).
  size_t size() const;

  /// Number of ids served by the immutable base catalog (0 if none).
  size_t base_size() const { return base_size_; }

  const std::shared_ptr<const TermCatalog>& base() const { return base_; }

 private:
  /// One overlay index slot: the id (kInvalidTermId = empty) and the
  /// low 32 bits of its term's hash, which place the id again when the
  /// table grows and skip most mismatching terms without touching them.
  struct Slot {
    TermId id = kInvalidTermId;
    uint32_t hash = 0;
  };

  /// Interns the term `key` names; `term` is that term when the caller
  /// has one, else it is built from the key on a miss.
  TermId InternKey(const TermKey& key, const Term* term);
  /// Base catalog id of `key`, or kInvalidTermId.
  TermId LookupBase(const TermKey& key) const;
  /// Index of the slot holding `key`'s id, or of the empty slot where
  /// it would go. Needs mu_ and a non-empty table.
  size_t FindSlot(const TermKey& key) const;
  void Grow();
  const Term& BaseTerm(TermId id) const;
  void DestroyBaseCache();

  std::shared_ptr<const TermCatalog> base_;
  size_t base_size_ = 0;
  /// Lazily materialized base terms, indexed by id. Slots go nullptr ->
  /// heap Term exactly once (CAS publish); the CAS loser deletes its
  /// copy, so readers can hold the reference without any lock.
  mutable std::unique_ptr<std::atomic<const Term*>[]> base_cache_;

  mutable std::shared_mutex mu_;  // guards the overlay
  std::deque<Term> terms_;        // overlay, id-ordered
  /// Overlay index: size 0 or a power of two, at most half full.
  std::vector<Slot> slots_;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_DICTIONARY_H_
