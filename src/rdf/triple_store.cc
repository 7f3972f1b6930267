#include "rdf/triple_store.h"

#include <algorithm>
#include <utility>

namespace kb {
namespace rdf {

namespace {

const Triple kEmptySlot(kAnyTerm, kAnyTerm, kAnyTerm);

/// Iterator over one sorted index range. Holds a shared_ptr to the
/// snapshot so the data outlives store mutations and even the store.
class MemScanIterator : public ScanIterator {
 public:
  MemScanIterator(std::shared_ptr<const StoreSnapshot> snap,
                  const std::vector<Triple>& index, ScanOrder order,
                  const TriplePattern& pattern)
      : snap_(std::move(snap)), order_(order), pattern_(pattern) {
    auto less = [order](const Triple& a, const Triple& b) {
      return LessInOrder(order, a, b);
    };
    Triple as_triple(pattern.s, pattern.p, pattern.o);
    TermId key[3];
    ComponentsInOrder(order, as_triple, key);
    int prefix = BoundPrefixLength(order, pattern);
    TermId lo[3] = {0, 0, 0};
    TermId hi[3] = {kAnyTerm, kAnyTerm, kAnyTerm};
    for (int i = 0; i < prefix; ++i) lo[i] = hi[i] = key[i];
    cur_ = std::lower_bound(index.data(), index.data() + index.size(),
                            TripleFromOrder(order, lo[0], lo[1], lo[2]),
                            less);
    // No valid triple carries a kAnyTerm component, so the hi key is a
    // strict upper bound of the prefix range.
    end_ = std::upper_bound(cur_, index.data() + index.size(),
                            TripleFromOrder(order, hi[0], hi[1], hi[2]),
                            less);
    SkipNonMatching();
  }

  bool Valid() const override { return cur_ != end_; }
  const Triple& Value() const override { return *cur_; }

  void Next() override {
    ++cur_;
    SkipNonMatching();
  }

  void Seek(const Triple& target) override {
    auto less = [this](const Triple& a, const Triple& b) {
      return LessInOrder(order_, a, b);
    };
    cur_ = std::lower_bound(cur_, end_, target, less);
    SkipNonMatching();
  }

  ScanOrder order() const override { return order_; }

 private:
  void SkipNonMatching() {
    while (cur_ != end_ && !pattern_.Matches(*cur_)) ++cur_;
  }

  std::shared_ptr<const StoreSnapshot> snap_;
  ScanOrder order_;
  TriplePattern pattern_;
  const Triple* cur_ = nullptr;
  const Triple* end_ = nullptr;
};

}  // namespace

std::unique_ptr<ScanIterator> StoreSnapshot::NewScan(
    const TriplePattern& pattern) const {
  ScanOrder order = ChooseScanOrder(pattern);
  return std::make_unique<MemScanIterator>(shared_from_this(), index(order),
                                           order, pattern);
}

size_t StoreSnapshot::EstimateCount(const TriplePattern& pattern) const {
  ScanOrder order = ChooseScanOrder(pattern);
  const std::vector<Triple>& idx = index(order);
  auto less = [order](const Triple& a, const Triple& b) {
    return LessInOrder(order, a, b);
  };
  Triple as_triple(pattern.s, pattern.p, pattern.o);
  TermId key[3];
  ComponentsInOrder(order, as_triple, key);
  int prefix = BoundPrefixLength(order, pattern);
  TermId lo[3] = {0, 0, 0};
  TermId hi[3] = {kAnyTerm, kAnyTerm, kAnyTerm};
  for (int i = 0; i < prefix; ++i) lo[i] = hi[i] = key[i];
  auto begin = std::lower_bound(idx.begin(), idx.end(),
                                TripleFromOrder(order, lo[0], lo[1], lo[2]),
                                less);
  auto end = std::upper_bound(begin, idx.end(),
                              TripleFromOrder(order, hi[0], hi[1], hi[2]),
                              less);
  int bound = (pattern.s != kAnyTerm) + (pattern.p != kAnyTerm) +
              (pattern.o != kAnyTerm);
  if (prefix == bound) {
    // All bound components are inside the range prefix: the range IS
    // the match set, so its width is an exact count.
    return static_cast<size_t>(end - begin);
  }
  size_t n = 0;
  for (auto it = begin; it != end; ++it) {
    if (pattern.Matches(*it)) ++n;
  }
  return n;
}

std::vector<Triple> StoreSnapshot::MatchFullScan(
    const TriplePattern& pattern) const {
  std::vector<Triple> out;
  for (const Triple& t : spo_) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  return out;
}

/// Point-in-time view of a hybrid store: an immutable FrameStore base
/// merged with an immutable delta snapshot. Both sides choose the same
/// scan order for a pattern (ChooseScanOrder is deterministic), so the
/// merged stream is sorted in that order.
class HybridSnapshot : public TripleSource {
 public:
  HybridSnapshot(std::shared_ptr<const FrameStore> base,
                 std::shared_ptr<const StoreSnapshot> delta)
      : base_(std::move(base)), delta_(std::move(delta)) {}

  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override {
    return std::make_unique<MergeScanIterator>(base_->NewScan(pattern),
                                               delta_->NewScan(pattern));
  }

  size_t EstimateCount(const TriplePattern& pattern) const override {
    // Exact: the delta is kept disjoint from the base by Add().
    return base_->EstimateCount(pattern) + delta_->EstimateCount(pattern);
  }

 private:
  std::shared_ptr<const FrameStore> base_;
  std::shared_ptr<const StoreSnapshot> delta_;
};

TripleSet::TripleSet(TripleSet&& other) noexcept
    : slots_(std::exchange(other.slots_, {})),
      size_(std::exchange(other.size_, 0)) {}

TripleSet& TripleSet::operator=(TripleSet&& other) noexcept {
  slots_ = std::exchange(other.slots_, {});
  size_ = std::exchange(other.size_, 0);
  return *this;
}

size_t TripleSet::Find(const Triple& t) const {
  const size_t mask = slots_.size() - 1;
  size_t i = TripleHash()(t) & mask;
  while (!(slots_[i] == t) && slots_[i].s != kAnyTerm) i = (i + 1) & mask;
  return i;
}

bool TripleSet::Insert(const Triple& t) {
  if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
  const size_t i = Find(t);
  if (slots_[i] == t) return false;
  slots_[i] = t;
  ++size_;
  return true;
}

bool TripleSet::Contains(const Triple& t) const {
  return size_ > 0 && slots_[Find(t)] == t;
}

void TripleSet::AppendTo(std::vector<Triple>* out) const {
  for (const Triple& t : slots_) {
    if (t.s != kAnyTerm) out->push_back(t);
  }
}

void TripleSet::Grow() {
  std::vector<Triple> old = std::exchange(
      slots_,
      std::vector<Triple>(std::max<size_t>(16, 2 * slots_.size()), kEmptySlot));
  for (const Triple& t : old) {
    if (t.s != kAnyTerm) slots_[Find(t)] = t;
  }
}

TripleStore::TripleStore(std::shared_ptr<const FrameStore> base)
    : base_(base), dict_(std::move(base)) {}

TripleStore::TripleStore(TripleStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  base_ = std::move(other.base_);
  dict_ = std::move(other.dict_);
  set_ = std::move(other.set_);
  pending_ = std::move(other.pending_);
  snapshot_ = std::move(other.snapshot_);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  base_ = std::move(other.base_);
  dict_ = std::move(other.dict_);
  set_ = std::move(other.set_);
  pending_ = std::move(other.pending_);
  snapshot_ = std::move(other.snapshot_);
  return *this;
}

bool TripleStore::Add(const Triple& t) {
  if (base_ != nullptr && base_->Contains(t)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_.Insert(t)) return false;
  pending_.push_back(t);
  return true;
}

bool TripleStore::AddTerms(const Term& s, const Term& p, const Term& o) {
  return Add(Triple(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)));
}

bool TripleStore::Contains(const Triple& t) const {
  if (base_ != nullptr && base_->Contains(t)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return set_.Contains(t);
}

size_t TripleStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_.size() + (base_ != nullptr ? base_->size() : 0);
}

std::shared_ptr<const StoreSnapshot> TripleStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr || !pending_.empty()) {
    auto next = std::shared_ptr<StoreSnapshot>(new StoreSnapshot());
    auto merge = [](std::vector<Triple>* out, const std::vector<Triple>& base,
                    std::vector<Triple> batch, ScanOrder order) {
      auto less = [order](const Triple& a, const Triple& b) {
        return LessInOrder(order, a, b);
      };
      SortRun(&batch, order);
      if (base.empty()) {
        *out = std::move(batch);
        return;
      }
      out->reserve(base.size() + batch.size());
      std::merge(base.begin(), base.end(), batch.begin(), batch.end(),
                 std::back_inserter(*out), less);
    };
    static const std::vector<Triple> kEmpty;
    const StoreSnapshot* base = snapshot_.get();
    merge(&next->spo_, base ? base->spo_ : kEmpty, pending_, ScanOrder::kSpo);
    merge(&next->pos_, base ? base->pos_ : kEmpty, pending_, ScanOrder::kPos);
    // The last permutation takes the pending buffer itself.
    merge(&next->osp_, base ? base->osp_ : kEmpty, std::move(pending_),
          ScanOrder::kOsp);
    pending_.clear();
    snapshot_ = std::move(next);
  }
  return snapshot_;
}

std::vector<Triple> TripleStore::SpoTriples() const {
  std::vector<Triple> delta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delta.reserve(set_.size());
    set_.AppendTo(&delta);
  }
  SortRun(&delta, ScanOrder::kSpo);
  if (base_ == nullptr || base_->size() == 0) return delta;
  // The delta is disjoint from the base (Add() keeps it so).
  std::vector<Triple> out;
  out.reserve(base_->size() + delta.size());
  auto next = delta.begin();
  for (size_t i = 0; i < base_->size(); ++i) {
    const Triple t = base_->TripleAt(ScanOrder::kSpo, i);
    for (; next != delta.end() && *next < t; ++next) out.push_back(*next);
    out.push_back(t);
  }
  out.insert(out.end(), next, delta.end());
  return out;
}

std::unique_ptr<ScanIterator> TripleStore::NewScan(
    const TriplePattern& pattern) const {
  if (base_ == nullptr) return Snapshot()->NewScan(pattern);
  // Each child iterator pins its own view, so the transient
  // HybridSnapshot need not outlive this call.
  return std::make_unique<MergeScanIterator>(base_->NewScan(pattern),
                                             Snapshot()->NewScan(pattern));
}

size_t TripleStore::EstimateCount(const TriplePattern& pattern) const {
  size_t n = Snapshot()->EstimateCount(pattern);
  if (base_ != nullptr) n += base_->EstimateCount(pattern);
  return n;
}

std::shared_ptr<const TripleSource> TripleStore::SnapshotSource() const {
  if (base_ == nullptr) return Snapshot();
  return std::make_shared<HybridSnapshot>(base_, Snapshot());
}

void TripleStore::Scan(const TriplePattern& pattern,
                       const std::function<bool(const Triple&)>& fn) const {
  TripleSource::Scan(pattern, fn);
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  Scan(pattern, [&out](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

size_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  return EstimateCount(pattern);
}

std::vector<TermId> TripleStore::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  TriplePattern pat;
  pat.s = s;
  pat.p = p;
  Scan(pat, [&out](const Triple& t) {
    out.push_back(t.o);
    return true;
  });
  return out;
}

std::vector<TermId> TripleStore::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  TriplePattern pat;
  pat.p = p;
  pat.o = o;
  Scan(pat, [&out](const Triple& t) {
    out.push_back(t.s);
    return true;
  });
  return out;
}

TermId TripleStore::FirstObject(TermId s, TermId p) const {
  TermId out = kInvalidTermId;
  TriplePattern pat;
  pat.s = s;
  pat.p = p;
  Scan(pat, [&out](const Triple& t) {
    out = t.o;
    return false;
  });
  return out;
}

std::vector<Triple> TripleStore::MatchFullScan(
    const TriplePattern& pattern) const {
  std::vector<Triple> delta = Snapshot()->MatchFullScan(pattern);
  if (base_ == nullptr) return delta;
  std::vector<Triple> from_base = base_->MatchFullScan(pattern);
  std::vector<Triple> out;
  out.reserve(delta.size() + from_base.size());
  std::merge(from_base.begin(), from_base.end(), delta.begin(), delta.end(),
             std::back_inserter(out));
  return out;
}

}  // namespace rdf
}  // namespace kb
