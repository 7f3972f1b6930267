#ifndef KBFORGE_RDF_TRIPLE_STORE_H_
#define KBFORGE_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/frame_store.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"

namespace kb {
namespace rdf {

/// An immutable point-in-time view of a TripleStore: the base's runs
/// (empty for a plain store) beside the delta's three sorted
/// permutation vectors. Snapshots are what queries actually scan: once
/// taken, a snapshot never changes, so any number of readers can
/// iterate it lock-free and see a consistent store even while writers
/// keep appending to the owning TripleStore.
class StoreSnapshot : public TripleSource,
                      public std::enable_shared_from_this<StoreSnapshot> {
 public:
  /// One run scan when only one side has matches, a MergeScanIterator
  /// of the two when both do.
  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override;

  /// Exact: the width of each side's range (the delta is disjoint from
  /// the base).
  size_t EstimateCount(const TriplePattern& pattern) const override;

  size_t size() const { return base_.size() + spo_.size(); }

  /// The base's runs; empty for a plain store.
  const TripleRuns& base() const { return base_; }

  /// The triples written since the base, disjoint from it.
  TripleRuns delta() const { return {spo_, pos_, osp_}; }

 private:
  friend class TripleStore;
  StoreSnapshot() = default;

  std::shared_ptr<const FrameStore> base_owner_;  // keeps base_ mapped
  TripleRuns base_;
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

  /// A store over an immutable FrameStore base: the base serves reads
  /// (ids, terms, triples) while this store holds only the delta
  /// written since the snapshot. Each snapshot reads the base's runs
  /// beside the delta's; the dictionary overlays the base catalog so
  /// base ids stay stable.
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

  /// Takes (or reuses) the current immutable snapshot, base + delta,
  /// merging any pending writes into the delta first. Queries run
  /// against the returned view lock-free while writers continue
  /// appending.
  std::shared_ptr<const StoreSnapshot> Snapshot() const;

  // TripleSource: scans open against the current snapshot; iterators
  // keep their views alive.
  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override;
  size_t EstimateCount(const TriplePattern& pattern) const override;
  std::shared_ptr<const TripleSource> SnapshotSource() const override;

  /// All matches of a pattern, materialized.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Every triple, base and delta, in SPO order: the delta's members
  /// sorted once and merged with the base's SPO run. Builds no
  /// snapshot, so a snapshot writer sorts each permutation only once.
  std::vector<Triple> SpoTriples() const;

  /// Naive full-scan matcher in SPO order, base and delta, used as the
  /// brute-force baseline in E10 and as the model for property tests.
  std::vector<Triple> MatchFullScan(const TriplePattern& pattern) const;

 private:
  std::shared_ptr<const FrameStore> base_;
  TripleRuns base_runs_;  // base_'s runs; empty for a plain store
  Dictionary dict_;

  mutable std::mutex mu_;  ///< guards set_, pending_, snapshot_
  TripleSet set_;
  mutable std::vector<Triple> pending_;
  mutable std::shared_ptr<const StoreSnapshot> snapshot_;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_TRIPLE_STORE_H_
