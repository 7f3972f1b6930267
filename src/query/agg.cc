#include "query/agg.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "util/hash.h"

namespace kb {
namespace query {

size_t RowHash::operator()(const Row& row) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (rdf::TermId id : row) h = HashCombine(h, Mix64(id));
  return static_cast<size_t>(h);
}

void GroupAggregator::Accumulate(const Row& row) {
  key_.resize(agg_.group_slots.size());
  for (size_t i = 0; i < agg_.group_slots.size(); ++i) {
    key_[i] = row[static_cast<size_t>(agg_.group_slots[i])];
  }
  Accum& accum = groups_[key_];
  if (agg_.func == AggFunc::kCountDistinct && agg_.agg_slot >= 0) {
    accum.distinct.insert(row[static_cast<size_t>(agg_.agg_slot)]);
  } else {
    ++accum.count;
  }
}

std::vector<Row> GroupAggregator::Finish(size_t top_k) && {
  auto count_of = [this](const Accum& accum) {
    uint64_t n = agg_.func == AggFunc::kCountDistinct && agg_.agg_slot >= 0
                     ? accum.distinct.size()
                     : accum.count;
    return std::min<uint64_t>(n, kMaxCount);
  };
  auto emit = [](Row key, uint64_t count) {
    key.push_back(static_cast<rdf::TermId>(count));
    return key;
  };

  std::vector<Row> out;
  if (top_k == 0) {
    out.reserve(groups_.size());
    for (auto& [key, accum] : groups_) {
      out.push_back(emit(key, count_of(accum)));
    }
    return out;
  }

  // Bounded heap: the worst kept group sits on top and is evicted the
  // moment a better one arrives, so only k groups are ever ordered.
  using Entry = std::pair<uint64_t, Row>;  // (count, group key)
  auto better = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(better)> heap(
      better);
  for (auto& [key, accum] : groups_) {
    Entry entry(count_of(accum), key);
    if (heap.size() < top_k) {
      heap.push(std::move(entry));
    } else if (better(entry, heap.top())) {
      heap.pop();
      heap.push(std::move(entry));
    }
  }
  out.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = emit(heap.top().second, heap.top().first);
    heap.pop();
  }
  return out;
}

}  // namespace query
}  // namespace kb
