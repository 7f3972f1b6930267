#include "rdf/triple_store.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

namespace kb {
namespace rdf {

namespace {

const Triple kEmptySlot(kAnyTerm, kAnyTerm, kAnyTerm);

}  // namespace

std::unique_ptr<ScanIterator> StoreSnapshot::NewScan(
    const TriplePattern& pattern) const {
  const ScanOrder order = ChooseScanOrder(pattern);
  const std::span<const Triple> in_base = base_.Range(pattern);
  const std::span<const Triple> in_delta = delta().Range(pattern);
  auto scan = [this, order](std::span<const Triple> range) {
    return std::make_unique<RunScanIterator>(shared_from_this(), range, order);
  };
  if (in_base.empty()) return scan(in_delta);
  if (in_delta.empty()) return scan(in_base);
  return std::make_unique<MergeScanIterator>(scan(in_base), scan(in_delta));
}

size_t StoreSnapshot::EstimateCount(const TriplePattern& pattern) const {
  return base_.Range(pattern).size() + delta().Range(pattern).size();
}

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
    : base_(base), base_runs_(base->runs()), dict_(std::move(base)) {}

TripleStore::TripleStore(TripleStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  base_ = std::move(other.base_);
  base_runs_ = std::exchange(other.base_runs_, {});
  dict_ = std::move(other.dict_);
  set_ = std::move(other.set_);
  pending_ = std::move(other.pending_);
  snapshot_ = std::move(other.snapshot_);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  base_ = std::move(other.base_);
  base_runs_ = std::exchange(other.base_runs_, {});
  dict_ = std::move(other.dict_);
  set_ = std::move(other.set_);
  pending_ = std::move(other.pending_);
  snapshot_ = std::move(other.snapshot_);
  return *this;
}

bool TripleStore::Add(const Triple& t) {
  if (base_runs_.Contains(t)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!set_.Insert(t)) return false;
  pending_.push_back(t);
  return true;
}

bool TripleStore::AddTerms(const Term& s, const Term& p, const Term& o) {
  return Add(Triple(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)));
}

bool TripleStore::Contains(const Triple& t) const {
  if (base_runs_.Contains(t)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return set_.Contains(t);
}

size_t TripleStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return set_.size() + base_runs_.size();
}

std::shared_ptr<const StoreSnapshot> TripleStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr || !pending_.empty()) {
    auto next = std::shared_ptr<StoreSnapshot>(new StoreSnapshot());
    next->base_owner_ = base_;
    next->base_ = base_runs_;
    auto merge = [](std::vector<Triple>* out, const std::vector<Triple>& prev,
                    std::vector<Triple> batch, ScanOrder order) {
      auto less = [order](const Triple& a, const Triple& b) {
        return LessInOrder(order, a, b);
      };
      SortRun(&batch, order);
      if (prev.empty()) {
        *out = std::move(batch);
        return;
      }
      out->reserve(prev.size() + batch.size());
      std::merge(prev.begin(), prev.end(), batch.begin(), batch.end(),
                 std::back_inserter(*out), less);
    };
    // The previous snapshot's delta runs, if any.
    static const std::vector<Triple> kEmpty;
    const StoreSnapshot* prev = snapshot_.get();
    merge(&next->spo_, prev ? prev->spo_ : kEmpty, pending_, ScanOrder::kSpo);
    merge(&next->pos_, prev ? prev->pos_ : kEmpty, pending_, ScanOrder::kPos);
    // The last permutation takes the pending buffer itself.
    merge(&next->osp_, prev ? prev->osp_ : kEmpty, std::move(pending_),
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
  if (base_runs_.size() == 0) return delta;
  // The delta is disjoint from the base (Add() keeps it so).
  std::vector<Triple> out;
  out.reserve(base_runs_.size() + delta.size());
  std::merge(base_runs_.spo.begin(), base_runs_.spo.end(), delta.begin(),
             delta.end(), std::back_inserter(out));
  return out;
}

std::unique_ptr<ScanIterator> TripleStore::NewScan(
    const TriplePattern& pattern) const {
  return Snapshot()->NewScan(pattern);
}

size_t TripleStore::EstimateCount(const TriplePattern& pattern) const {
  return Snapshot()->EstimateCount(pattern);
}

std::shared_ptr<const TripleSource> TripleStore::SnapshotSource() const {
  return Snapshot();
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  Scan(pattern, [&out](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::vector<Triple> TripleStore::MatchFullScan(
    const TriplePattern& pattern) const {
  std::shared_ptr<const StoreSnapshot> snap = Snapshot();
  const std::vector<Triple> base = snap->base().MatchFullScan(pattern);
  const std::vector<Triple> delta = snap->delta().MatchFullScan(pattern);
  std::vector<Triple> out;
  out.reserve(base.size() + delta.size());
  std::merge(base.begin(), base.end(), delta.begin(), delta.end(),
             std::back_inserter(out));
  return out;
}

}  // namespace rdf
}  // namespace kb
