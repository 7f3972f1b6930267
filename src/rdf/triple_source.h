#ifndef KBFORGE_RDF_TRIPLE_SOURCE_H_
#define KBFORGE_RDF_TRIPLE_SOURCE_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rdf/triple.h"

namespace kb {
namespace rdf {

/// A triple pattern: any component may be a concrete TermId or the
/// wildcard kAnyTerm.
inline constexpr TermId kAnyTerm = 0xffffffffu;

struct TriplePattern {
  TermId s = kAnyTerm;
  TermId p = kAnyTerm;
  TermId o = kAnyTerm;

  bool Matches(const Triple& t) const {
    return (s == kAnyTerm || s == t.s) && (p == kAnyTerm || p == t.p) &&
           (o == kAnyTerm || o == t.o);
  }
};

/// The three collation orders every pattern shape can be answered from
/// with a contiguous range (the RDF-3X permutation-index design).
enum class ScanOrder { kSpo, kPos, kOsp };

/// Lexicographic comparison of two triples in `order` space.
bool LessInOrder(ScanOrder order, const Triple& a, const Triple& b);

/// Runs shorter than this are sorted by std::sort in SortRun: below a
/// few thousand triples the radix passes' fixed cost (clearing and
/// scanning the digit counts) outweighs the comparisons they save.
inline constexpr size_t kSortRunRadixMin = 4096;

/// Sorts `run` into `order`'s collation: the one sort kernel behind
/// every permutation run (TripleStore snapshots, FrameStore
/// serialization). A run already in order costs one comparison pass;
/// a short run goes through std::sort; a long one is LSD radix-sorted
/// on 11-bit digits of its three ids, skipping every digit that is
/// constant across the run. The result is the order std::sort with
/// LessInOrder gives. Runs on the calling thread; the only heap
/// allocation is the long run's scatter buffer.
void SortRun(std::vector<Triple>* run, ScanOrder order);

/// The order whose sort prefix covers the most bound components of
/// `pattern` (ties break SPO, POS, OSP).
ScanOrder ChooseScanOrder(const TriplePattern& pattern);

/// Number of leading bound components of `pattern` in `order` space.
/// For ChooseScanOrder(pattern) it is the number of bound components:
/// every one of the eight pattern shapes has a rotation that puts all
/// of its bound positions first.
int BoundPrefixLength(ScanOrder order, const TriplePattern& pattern);

/// One triple set as its three permutation runs, each sorted in its
/// ScanOrder's collation: the read side of every store. StoreSnapshot
/// keeps its delta in vectors and FrameStore views its mapped run
/// sections in place; both answer patterns through this one view.
/// The spans do not own their triples (the store that made them does),
/// and a default TripleRuns is the empty set.
struct TripleRuns {
  std::span<const Triple> spo, pos, osp;

  size_t size() const { return spo.size(); }

  std::span<const Triple> run(ScanOrder order) const {
    switch (order) {
      case ScanOrder::kPos:
        return pos;
      case ScanOrder::kOsp:
        return osp;
      default:
        return spo;
    }
  }

  /// The matches of `pattern`: the contiguous range of
  /// ChooseScanOrder(pattern)'s run whose sort prefix equals the
  /// pattern's bound components. That prefix covers every bound
  /// component, so the range is exactly the match set, in that order.
  std::span<const Triple> Range(const TriplePattern& pattern) const;

  bool Contains(const Triple& t) const;

  /// Naive full-scan matcher over the SPO run, in SPO order: the model
  /// for property tests and brute-force benches.
  std::vector<Triple> MatchFullScan(const TriplePattern& pattern) const;
};

/// Volcano-style pull iterator over the matches of one triple pattern
/// in a fixed collation order. The iterator owns whatever it needs to
/// stay valid (e.g. a store snapshot), so it may outlive changes to
/// the underlying source.
class ScanIterator {
 public:
  virtual ~ScanIterator() = default;

  /// True while positioned on a match.
  virtual bool Valid() const = 0;

  /// The current match. Precondition: Valid().
  virtual const Triple& Value() const = 0;

  /// Advances to the next match. Precondition: Valid().
  virtual void Next() = 0;

  /// The collation order this iterator scans in.
  virtual ScanOrder order() const = 0;
};

/// Scan over one range of a sorted run (a TripleRuns::Range). `owner`
/// keeps the run's storage alive (a store snapshot or a mapped
/// FrameStore), so the iterator may outlive changes to the source.
class RunScanIterator : public ScanIterator {
 public:
  RunScanIterator(std::shared_ptr<const void> owner,
                  std::span<const Triple> range, ScanOrder order)
      : owner_(std::move(owner)),
        cur_(range.data()),
        end_(range.data() + range.size()),
        order_(order) {}

  bool Valid() const override { return cur_ != end_; }
  const Triple& Value() const override { return *cur_; }
  void Next() override { ++cur_; }
  ScanOrder order() const override { return order_; }

 private:
  std::shared_ptr<const void> owner_;
  const Triple* cur_;
  const Triple* end_;
  ScanOrder order_;
};

/// Merges two iterators of the same collation order into one sorted,
/// duplicate-free stream (the left iterator wins ties). This is how a
/// store snapshot reads its base runs plus its delta runs as one
/// source when both have matches, without materializing either side.
class MergeScanIterator : public ScanIterator {
 public:
  MergeScanIterator(std::unique_ptr<ScanIterator> a,
                    std::unique_ptr<ScanIterator> b);

  bool Valid() const override;
  const Triple& Value() const override;
  void Next() override;
  ScanOrder order() const override { return a_->order(); }

 private:
  bool FromA() const;

  std::unique_ptr<ScanIterator> a_;
  std::unique_ptr<ScanIterator> b_;
};

/// Anything the query executor can scan: the in-memory TripleStore, an
/// immutable store snapshot, or a mapped FrameStore. One SelectQuery
/// compiles to the same operator tree over any of them.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  /// Opens a scan over the matches of `pattern`.
  virtual std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const = 0;

  /// Estimated (possibly capped) number of matches, for join ordering.
  virtual size_t EstimateCount(const TriplePattern& pattern) const = 0;

  /// A stable point-in-time view to run one query against, or nullptr
  /// if this source is already stable (the default). Callers keep the
  /// returned pointer alive for the duration of the query.
  virtual std::shared_ptr<const TripleSource> SnapshotSource() const {
    return nullptr;
  }

  /// Convenience push-style wrapper over NewScan. Return false from
  /// `fn` to stop early.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_TRIPLE_SOURCE_H_
