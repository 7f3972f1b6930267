#ifndef KBFORGE_RDF_TRIPLE_STORE_H_
#define KBFORGE_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/frame_store.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"

namespace kb {
namespace rdf {

/// An immutable point-in-time view of a TripleStore's three sorted
/// permutation indexes. Snapshots are what queries actually scan:
/// once taken, a snapshot never changes, so any number of readers can
/// iterate it lock-free and see a consistent store even while writers
/// keep appending to the owning TripleStore.
class StoreSnapshot : public TripleSource,
                      public std::enable_shared_from_this<StoreSnapshot> {
 public:
  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override;

  /// Exact for patterns whose bound components form a prefix of some
  /// collation order (a range subtraction); counted by scan otherwise.
  size_t EstimateCount(const TriplePattern& pattern) const override;

  size_t size() const { return spo_.size(); }

  /// Naive full-scan matcher over the snapshot, the model for
  /// property tests.
  std::vector<Triple> MatchFullScan(const TriplePattern& pattern) const;

 private:
  friend class TripleStore;
  StoreSnapshot() = default;

  const std::vector<Triple>& index(ScanOrder order) const {
    switch (order) {
      case ScanOrder::kPos:
        return pos_;
      case ScanOrder::kOsp:
        return osp_;
      default:
        return spo_;
    }
  }

  std::vector<Triple> spo_, pos_, osp_;
};

/// A flat open-addressing set of triples: one array of 12-byte slots,
/// linear probing, at most 3/4 full, doubling when it would pass that.
/// An empty slot holds kAnyTerm in `s`, an id no triple carries.
class TripleSet {
 public:
  TripleSet() = default;
  TripleSet(TripleSet&& other) noexcept;
  TripleSet& operator=(TripleSet&& other) noexcept;

  /// Adds `t`; returns false if it was already present.
  bool Insert(const Triple& t);
  bool Contains(const Triple& t) const;
  size_t size() const { return size_; }

  /// Appends every member to `out`, in no particular order.
  void AppendTo(std::vector<Triple>* out) const;

 private:
  /// The slot holding `t`, or the empty slot where it would go.
  size_t Find(const Triple& t) const;
  void Grow();

  std::vector<Triple> slots_;  // size 0 or a power of two
  size_t size_ = 0;
};

/// In-memory dictionary-encoded triple store with three collated
/// permutation indexes (SPO, POS, OSP), which together answer every
/// triple-pattern shape with a binary-searchable range. This is the
/// standard architecture of RDF engines (RDF-3X-style, simplified).
///
/// Writes land in a flat TripleSet (the duplicate check) and a pending
/// buffer. The next read sorts the pending buffer into each collation
/// with SortRun and merges it with the previous snapshot into a fresh
/// immutable one. A bulk load followed by a read is thus linear: one
/// radix sort per permutation and nothing to merge. A read after every
/// small write still copies the whole snapshot in that merge.
/// Add/Snapshot/Scan may be called from any thread concurrently: the
/// pending buffer and snapshot pointer are guarded by one mutex, and
/// published snapshots are never mutated. The dictionary synchronizes
/// itself (see Dictionary), so interning may overlap reads of dict().
class TripleStore : public TripleSource {
 public:
  TripleStore() = default;

  /// A hybrid store over an immutable FrameStore base: the base serves
  /// reads (ids, terms, triples) while this store holds only the delta
  /// written since the snapshot. Reads merge both sides behind the
  /// TripleSource interface; the dictionary overlays the base catalog
  /// so base ids stay stable.
  explicit TripleStore(std::shared_ptr<const FrameStore> base);

  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// The shared term dictionary.
  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// The immutable base snapshot, or nullptr for a plain store.
  const std::shared_ptr<const FrameStore>& base() const { return base_; }

  /// Adds a triple of term ids; returns false if it was already present
  /// (in the delta or in the base — the delta stays disjoint from the
  /// base, so merged reads never see duplicates).
  bool Add(const Triple& t);

  /// Interns the terms and adds the triple.
  bool AddTerms(const Term& s, const Term& p, const Term& o);

  bool Contains(const Triple& t) const;

  size_t size() const;

  /// Takes (or reuses) the current immutable snapshot, merging any
  /// pending writes first. Queries run against the returned view
  /// lock-free while writers continue appending. For a hybrid store
  /// this covers the DELTA only — use SnapshotSource() for the merged
  /// base+delta view.
  std::shared_ptr<const StoreSnapshot> Snapshot() const;

  // TripleSource: scans open against the current snapshot (merged with
  // the base for hybrid stores); iterators keep their views alive.
  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override;
  size_t EstimateCount(const TriplePattern& pattern) const override;
  std::shared_ptr<const TripleSource> SnapshotSource() const override;

  /// Invokes `fn` for each triple matching the pattern, in the chosen
  /// index's order. Return false from fn to stop early. (Thin
  /// compatibility wrapper over NewScan.)
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  /// All matches of a pattern, materialized.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Number of matches (uses index ranges; cheap for bound prefixes).
  size_t CountMatches(const TriplePattern& pattern) const;

  /// Distinct objects for (s, p, *) — convenience for attribute lookup.
  std::vector<TermId> Objects(TermId s, TermId p) const;

  /// Distinct subjects for (*, p, o).
  std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// First object for (s, p, *), or kInvalidTermId.
  TermId FirstObject(TermId s, TermId p) const;

  /// Forces pending writes into the snapshot now (e.g. before timing
  /// reads).
  void EnsureIndexed() const { Snapshot(); }

  /// Every triple, base and delta, in SPO order: the delta's members
  /// sorted once and merged with the base's SPO run. Builds no
  /// snapshot, so a snapshot writer sorts each permutation only once.
  std::vector<Triple> SpoTriples() const;

  /// Naive full-scan matcher, used as the ablation baseline in E10 and
  /// as the model for property tests.
  std::vector<Triple> MatchFullScan(const TriplePattern& pattern) const;

 private:
  std::shared_ptr<const FrameStore> base_;
  Dictionary dict_;

  mutable std::mutex mu_;  ///< guards set_, pending_, snapshot_
  TripleSet set_;
  mutable std::vector<Triple> pending_;
  mutable std::shared_ptr<const StoreSnapshot> snapshot_;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_TRIPLE_STORE_H_
