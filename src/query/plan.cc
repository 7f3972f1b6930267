#include "query/plan.h"

#include <algorithm>
#include <map>

namespace kb {
namespace query {

namespace {

/// The scan pattern with only constants bound (variable values are
/// unknown at plan time), for cardinality estimation.
rdf::TriplePattern ConstantPattern(const QueryPattern& qp) {
  rdf::TriplePattern p;
  if (!qp.s.is_var) p.s = qp.s.id;
  if (!qp.p.is_var) p.p = qp.p.id;
  if (!qp.o.is_var) p.o = qp.o.id;
  return p;
}

/// Statically bound positions: constants plus variables some earlier
/// join level has already bound.
int StaticallyBound(const QueryPattern& qp,
                    const std::map<std::string, int>& bound) {
  int n = 0;
  for (const QueryTerm* t : {&qp.s, &qp.p, &qp.o}) {
    if (!t->is_var || bound.count(t->var) > 0) ++n;
  }
  return n;
}

void AppendTermKey(const QueryTerm& t, std::string* key) {
  if (t.is_var) {
    key->push_back('?');
    key->append(t.var);
  } else {
    key->push_back('#');
    key->append(std::to_string(t.id));
  }
  key->push_back(' ');
}

}  // namespace

PlanPtr CompilePlan(const SelectQuery& query,
                    const rdf::TripleSource& source) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->distinct = query.distinct;

  // Slot assignment: first occurrence across written pattern order, so
  // slot layout is independent of the join order the planner picks.
  std::map<std::string, int> slots;
  for (const QueryPattern& qp : query.where) {
    for (const QueryTerm* t : {&qp.s, &qp.p, &qp.o}) {
      if (t->is_var && slots.emplace(t->var, 0).second) {
        slots[t->var] = static_cast<int>(plan->var_names.size());
        plan->var_names.push_back(t->var);
      }
      if (!t->is_var && t->id == rdf::kInvalidTermId) {
        plan->unmatchable = true;  // unknown constant: empty result
      }
    }
  }

  // Aggregation: group slots + counted slot resolve against the same
  // slot table; the output columns become [group vars..., agg name].
  // A group/agg variable absent from WHERE is dropped (grouping) or
  // degraded to COUNT(*) (counting), mirroring how the projection
  // silently skips absent variables.
  if (query.agg.enabled()) {
    plan->agg.enabled = true;
    plan->agg.func = query.agg.func;
    for (const std::string& var : query.agg.group_by) {
      auto it = slots.find(var);
      if (it == slots.end()) continue;
      plan->agg.group_slots.push_back(it->second);
      plan->projection_slots.push_back(it->second);
      plan->projection_names.push_back(var);
    }
    if (!query.agg.var.empty()) {
      auto it = slots.find(query.agg.var);
      if (it != slots.end()) plan->agg.agg_slot = it->second;
    }
    plan->projection_names.push_back(
        query.agg.out_name.empty() ? "count" : query.agg.out_name);
    if (plan->unmatchable) return plan;
  }

  // Projection: named variables that occur in the WHERE clause (others
  // are silently absent, matching the map-based executor's behavior);
  // an empty projection selects every variable.
  if (plan->agg.enabled) {
    // handled above
  } else if (query.projection.empty()) {
    for (size_t i = 0; i < plan->var_names.size(); ++i) {
      plan->projection_slots.push_back(static_cast<int>(i));
      plan->projection_names.push_back(plan->var_names[i]);
    }
  } else {
    for (const std::string& var : query.projection) {
      auto it = slots.find(var);
      if (it == slots.end()) continue;
      plan->projection_slots.push_back(it->second);
      plan->projection_names.push_back(var);
    }
  }
  if (plan->unmatchable) return plan;

  // Greedy join-order selection.
  std::vector<size_t> order;
  std::vector<bool> used(query.where.size(), false);
  std::map<std::string, int> bound;
  for (size_t step = 0; step < query.where.size(); ++step) {
    size_t chosen = query.where.size();
    int best_bound = -1;
    size_t best_count = SIZE_MAX;
    for (size_t i = 0; i < query.where.size(); ++i) {
      if (used[i]) continue;
      int b = StaticallyBound(query.where[i], bound);
      if (b > best_bound) {
        best_bound = b;
        best_count = source.EstimateCount(ConstantPattern(query.where[i]));
        chosen = i;
      } else if (b == best_bound) {
        size_t count = source.EstimateCount(ConstantPattern(query.where[i]));
        if (count < best_count) {
          best_count = count;
          chosen = i;
        }
      }
    }
    used[chosen] = true;
    order.push_back(chosen);
    for (const QueryTerm* t :
         {&query.where[chosen].s, &query.where[chosen].p,
          &query.where[chosen].o}) {
      if (t->is_var) bound.emplace(t->var, slots.at(t->var));
    }
  }

  // Compile each level against the variables bound before it.
  std::map<std::string, int> bound_before;
  for (size_t idx : order) {
    const QueryPattern& qp = query.where[idx];
    CompiledScan scan;
    std::map<std::string, int> local;
    Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
    const QueryTerm* terms[3] = {&qp.s, &qp.p, &qp.o};
    for (int i = 0; i < 3; ++i) {
      Access& a = *accesses[i];
      const QueryTerm& t = *terms[i];
      if (!t.is_var) {
        a.kind = Access::Kind::kConst;
        a.constant = t.id;
        continue;
      }
      a.slot = slots.at(t.var);
      if (local.count(t.var) > 0) {
        a.kind = Access::Kind::kCheck;
      } else if (bound_before.count(t.var) > 0) {
        a.kind = Access::Kind::kProbe;
      } else {
        a.kind = Access::Kind::kBind;
        local.emplace(t.var, a.slot);
      }
    }
    for (const auto& [var, slot] : local) bound_before.emplace(var, slot);
    plan->scans.push_back(scan);
  }
  return plan;
}

std::string PlanCacheKey(const SelectQuery& query) {
  std::string key;
  key.reserve(64);
  key.push_back(query.distinct ? 'D' : 'd');
  key.push_back('|');
  for (const std::string& var : query.projection) {
    key.push_back('?');
    key.append(var);
    key.push_back(' ');
  }
  key.push_back('|');
  for (const QueryPattern& qp : query.where) {
    AppendTermKey(qp.s, &key);
    AppendTermKey(qp.p, &key);
    AppendTermKey(qp.o, &key);
    key.push_back('.');
  }
  // Aggregation shape (absent for plain queries, so their keys are
  // unchanged): function, counted variable, output name, group-bys.
  // top_k is deliberately left out, like LIMIT — it does not change
  // the compiled plan, only the bounded heap at open time.
  if (query.agg.enabled()) {
    key.append("|AGG:");
    key.push_back(query.agg.func == AggFunc::kCountDistinct ? 'C' : 'c');
    key.push_back('(');
    key.append(query.agg.var);
    key.append(")->");
    key.append(query.agg.out_name);
    key.append(" BY");
    for (const std::string& var : query.agg.group_by) {
      key.push_back(' ');
      key.push_back('?');
      key.append(var);
    }
  }
  return key;
}

PlanPtr PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.front().second;
}

void PlanCache::Insert(const std::string& key, PlanPtr plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(plan));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace query
}  // namespace kb
