#include "rdf/triple_source.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace kb {
namespace rdf {

namespace {

/// Each 32-bit id splits into digits of 11, 11 and 10 bits.
constexpr int kDigitBits = 11;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr int kDigitsPerId = 3;
constexpr int kDigits = 3 * kDigitsPerId;

using Field = TermId Triple::*;

/// LSD radix sort of a long run. All nine digit histograms come from
/// one pass; each digit that varies across the run then costs one
/// stable scatter pass, least significant first. The 72 KB of counts
/// sit on this frame, which only long runs reach.
void RadixSortRun(std::vector<Triple>* run, ScanOrder order) {
  static constexpr Field kFieldsLsdFirst[3][3] = {
      {&Triple::o, &Triple::p, &Triple::s},   // kSpo
      {&Triple::s, &Triple::o, &Triple::p},   // kPos
      {&Triple::p, &Triple::s, &Triple::o}};  // kOsp
  const Field* fields = kFieldsLsdFirst[static_cast<int>(order)];
  const size_t n = run->size();
  uint32_t counts[kDigits][kBuckets] = {};
  for (const Triple& t : *run) {
    for (int f = 0; f < 3; ++f) {
      const TermId id = t.*fields[f];
      uint32_t(*c)[kBuckets] = counts + f * kDigitsPerId;
      ++c[0][id & kDigitMask];
      ++c[1][(id >> kDigitBits) & kDigitMask];
      ++c[2][id >> (2 * kDigitBits)];
    }
  }
  std::vector<Triple> scratch(n);
  Triple* src = run->data();
  Triple* dst = scratch.data();
  for (int d = 0; d < kDigits; ++d) {
    const Field field = fields[d / kDigitsPerId];
    const int shift = (d % kDigitsPerId) * kDigitBits;
    uint32_t* next = counts[d];
    // A digit every triple shares leaves the order as it is.
    if (next[(src[0].*field >> shift) & kDigitMask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = next[b];
      next[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[next[(src[i].*field >> shift) & kDigitMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != run->data()) run->swap(scratch);
}

/// Projects a triple's components into `order` space (e.g. kPos maps
/// (s,p,o) to (p,o,s)).
void ComponentsInOrder(ScanOrder order, const Triple& t, TermId out[3]) {
  switch (order) {
    case ScanOrder::kSpo:
      out[0] = t.s;
      out[1] = t.p;
      out[2] = t.o;
      return;
    case ScanOrder::kPos:
      out[0] = t.p;
      out[1] = t.o;
      out[2] = t.s;
      return;
    case ScanOrder::kOsp:
      out[0] = t.o;
      out[1] = t.s;
      out[2] = t.p;
      return;
  }
}

}  // namespace

bool LessInOrder(ScanOrder order, const Triple& a, const Triple& b) {
  TermId ka[3] = {0, 0, 0};
  TermId kb_[3] = {0, 0, 0};
  ComponentsInOrder(order, a, ka);
  ComponentsInOrder(order, b, kb_);
  if (ka[0] != kb_[0]) return ka[0] < kb_[0];
  if (ka[1] != kb_[1]) return ka[1] < kb_[1];
  return ka[2] < kb_[2];
}

void SortRun(std::vector<Triple>* run, ScanOrder order) {
  auto less = [order](const Triple& a, const Triple& b) {
    return LessInOrder(order, a, b);
  };
  if (std::is_sorted(run->begin(), run->end(), less)) return;
  // The digit counts are 32-bit; a run past that falls back too.
  if (run->size() < kSortRunRadixMin || run->size() > UINT32_MAX) {
    std::sort(run->begin(), run->end(), less);
    return;
  }
  RadixSortRun(run, order);
}

int BoundPrefixLength(ScanOrder order, const TriplePattern& pattern) {
  Triple as_triple(pattern.s, pattern.p, pattern.o);
  TermId k[3] = {0, 0, 0};
  ComponentsInOrder(order, as_triple, k);
  int n = 0;
  while (n < 3 && k[n] != kAnyTerm) ++n;
  return n;
}

ScanOrder ChooseScanOrder(const TriplePattern& pattern) {
  ScanOrder best = ScanOrder::kSpo;
  int best_len = BoundPrefixLength(ScanOrder::kSpo, pattern);
  for (ScanOrder order : {ScanOrder::kPos, ScanOrder::kOsp}) {
    int len = BoundPrefixLength(order, pattern);
    if (len > best_len) {
      best_len = len;
      best = order;
    }
  }
  return best;
}

std::span<const Triple> TripleRuns::Range(const TriplePattern& pattern) const {
  const ScanOrder order = ChooseScanOrder(pattern);
  const int prefix = BoundPrefixLength(order, pattern);
  // Compares the first `prefix` components in `order` space: a prefix
  // of the run's collation, under which the match set is one range.
  auto less = [order, prefix](const Triple& a, const Triple& b) {
    TermId ka[3] = {0, 0, 0};
    TermId kb_[3] = {0, 0, 0};
    ComponentsInOrder(order, a, ka);
    ComponentsInOrder(order, b, kb_);
    for (int i = 0; i < prefix; ++i) {
      if (ka[i] != kb_[i]) return ka[i] < kb_[i];
    }
    return false;
  };
  const std::span<const Triple> r = run(order);
  const Triple key(pattern.s, pattern.p, pattern.o);
  const auto [begin, end] = std::equal_range(r.begin(), r.end(), key, less);
  return {begin, end};
}

bool TripleRuns::Contains(const Triple& t) const {
  // Triple::operator< is the SPO collation.
  return std::binary_search(spo.begin(), spo.end(), t);
}

std::vector<Triple> TripleRuns::MatchFullScan(
    const TriplePattern& pattern) const {
  std::vector<Triple> out;
  for (const Triple& t : spo) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  return out;
}

MergeScanIterator::MergeScanIterator(std::unique_ptr<ScanIterator> a,
                                     std::unique_ptr<ScanIterator> b)
    : a_(std::move(a)), b_(std::move(b)) {
  KB_CHECK(a_->order() == b_->order()) << "merged scans must share an order";
}

bool MergeScanIterator::Valid() const { return a_->Valid() || b_->Valid(); }

const Triple& MergeScanIterator::Value() const {
  return FromA() ? a_->Value() : b_->Value();
}

void MergeScanIterator::Next() {
  // If both sides sit on the same triple, advancing only the served
  // side would re-emit it from the other: step past the duplicate too.
  bool both_equal =
      a_->Valid() && b_->Valid() && a_->Value() == b_->Value();
  if (FromA()) {
    a_->Next();
    if (both_equal) b_->Next();
  } else {
    b_->Next();
  }
}

bool MergeScanIterator::FromA() const {
  if (!b_->Valid()) return true;
  if (!a_->Valid()) return false;
  return !LessInOrder(a_->order(), b_->Value(), a_->Value());
}

void TripleSource::Scan(
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  for (std::unique_ptr<ScanIterator> it = NewScan(pattern); it->Valid();
       it->Next()) {
    if (!fn(it->Value())) return;
  }
}

}  // namespace rdf
}  // namespace kb
