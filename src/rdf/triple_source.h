#ifndef KBFORGE_RDF_TRIPLE_SOURCE_H_
#define KBFORGE_RDF_TRIPLE_SOURCE_H_

#include <functional>
#include <memory>
#include <vector>

#include "rdf/triple.h"
#include "util/status.h"

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

/// Projects a triple's components into `order` space (e.g. kPos maps
/// (s,p,o) to (p,o,s)).
void ComponentsInOrder(ScanOrder order, const Triple& t, TermId out[3]);

/// Inverse of ComponentsInOrder.
Triple TripleFromOrder(ScanOrder order, TermId a, TermId b, TermId c);

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
int BoundPrefixLength(ScanOrder order, const TriplePattern& pattern);

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

  /// Repositions at the first match >= `target` in this iterator's
  /// order. Never moves backwards.
  virtual void Seek(const Triple& target) = 0;

  /// The collation order this iterator scans in.
  virtual ScanOrder order() const = 0;

  /// Non-OK if the scan hit an unreadable region (e.g. a corrupt
  /// storage block); the iterator then reports !Valid().
  virtual Status status() const { return Status::OK(); }
};

/// Merges two iterators of the same collation order into one sorted,
/// duplicate-free stream (the left iterator wins ties). This is how a
/// hybrid store reads an immutable base snapshot plus its delta as one
/// source without materializing either side.
class MergeScanIterator : public ScanIterator {
 public:
  MergeScanIterator(std::unique_ptr<ScanIterator> a,
                    std::unique_ptr<ScanIterator> b);

  bool Valid() const override;
  const Triple& Value() const override;
  void Next() override;
  void Seek(const Triple& target) override;
  ScanOrder order() const override { return a_->order(); }
  Status status() const override;

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
