#include "query/engine.h"

#include <unordered_set>

#include "query/agg.h"
#include "rdf/term.h"
#include "util/metrics_registry.h"
#include "util/string_util.h"

namespace kb {
namespace query {

namespace {

/// Executor instruments in the default registry.
struct QueryMetrics {
  Counter& executions;
  Counter& rows;
  Counter& rows_streamed;
  Counter& patterns_evaluated;
  Counter& index_scans;
  Counter& plan_cache_hits;
  Counter& plan_cache_misses;
  Counter& agg_groups;
  Histogram& execute_ms;

  static QueryMetrics& Get() {
    static QueryMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new QueryMetrics{
          r.counter("query.executions"),
          r.counter("query.rows"),
          r.counter("query.rows_streamed"),
          r.counter("query.patterns_evaluated"),
          r.counter("query.index_scans"),
          r.counter("query.plan_cache_hits"),
          r.counter("query.plan_cache_misses"),
          r.counter("query.agg_groups"),
          r.histogram("query.execute_ms"),
      };
    }();
    return *m;
  }
};

}  // namespace

// --------------------------------------------------------- Operators

class Cursor::Operator {
 public:
  virtual ~Operator() = default;
  /// Produces the next row into `row`; false at end of stream.
  virtual bool Next(Row* row) = 0;
};

namespace {

using Operator = Cursor::Operator;

/// Scan pattern for one join level: constants and probe slots resolved
/// against the current row; freshly bound and checked positions stay
/// wild.
rdf::TriplePattern ScanPattern(const CompiledScan& scan, const Row& row) {
  rdf::TriplePattern pattern;
  rdf::TermId* out[3] = {&pattern.s, &pattern.p, &pattern.o};
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  for (int i = 0; i < 3; ++i) {
    switch (accesses[i]->kind) {
      case Access::Kind::kConst:
        *out[i] = accesses[i]->constant;
        break;
      case Access::Kind::kProbe:
        *out[i] = row[static_cast<size_t>(accesses[i]->slot)];
        break;
      default:
        break;  // kBind/kCheck stay wild
    }
  }
  return pattern;
}

/// Applies one matched triple to the row: binds fresh slots, verifies
/// constants, probes and repeated variables. Returns false if the
/// triple does not extend the row.
bool BindRow(const CompiledScan& scan, const rdf::Triple& t, Row* row) {
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  const rdf::TermId values[3] = {t.s, t.p, t.o};
  for (int i = 0; i < 3; ++i) {
    const Access& a = *accesses[i];
    switch (a.kind) {
      case Access::Kind::kConst:
        if (values[i] != a.constant) return false;
        break;
      case Access::Kind::kProbe:
      case Access::Kind::kCheck:
        if ((*row)[static_cast<size_t>(a.slot)] != values[i]) return false;
        break;
      case Access::Kind::kBind:
        (*row)[static_cast<size_t>(a.slot)] = values[i];
        break;
    }
  }
  return true;
}

/// Zero rows (unmatchable constants).
class EmptyOp : public Operator {
 public:
  bool Next(Row*) override { return false; }
};

/// Exactly one empty row (empty WHERE clause).
class OnceOp : public Operator {
 public:
  explicit OnceOp(size_t width) : width_(width) {}
  bool Next(Row* row) override {
    if (done_) return false;
    done_ = true;
    row->assign(width_, rdf::kAnyTerm);
    return true;
  }

 private:
  size_t width_;
  bool done_ = false;
};

/// Leaf: one index scan binding the first pattern's variables.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const rdf::TripleSource* source, const CompiledScan& scan,
              size_t width, QueryStats* stats, Cursor::CancelState* cancel)
      : source_(source),
        scan_(scan),
        width_(width),
        stats_(stats),
        cancel_(cancel) {}

  bool Next(Row* row) override {
    if (iter_ == nullptr) {
      static const Row kNoRow;
      iter_ = source_->NewScan(ScanPattern(scan_, kNoRow));
      ++stats_->index_scans;
      ++stats_->patterns_evaluated;
    }
    while (iter_->Valid()) {
      if (cancel_->Expired()) return false;
      const rdf::Triple& t = iter_->Value();
      ++stats_->intermediate_rows;
      row->assign(width_, rdf::kAnyTerm);
      bool ok = BindRow(scan_, t, row);
      iter_->Next();
      if (ok) return true;
    }
    return false;
  }

 private:
  const rdf::TripleSource* source_;
  CompiledScan scan_;
  size_t width_;
  QueryStats* stats_;
  Cursor::CancelState* cancel_;
  std::unique_ptr<rdf::ScanIterator> iter_;
};

/// Index nested-loop join: for every row of `child`, an index scan
/// probes the matches of this level's pattern.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(std::unique_ptr<Operator> child,
                        const rdf::TripleSource* source,
                        const CompiledScan& scan, QueryStats* stats,
                        Cursor::CancelState* cancel)
      : child_(std::move(child)),
        source_(source),
        scan_(scan),
        stats_(stats),
        cancel_(cancel) {}

  bool Next(Row* row) override {
    for (;;) {
      if (iter_ != nullptr) {
        while (iter_->Valid()) {
          if (cancel_->Expired()) return false;
          const rdf::Triple& t = iter_->Value();
          ++stats_->intermediate_rows;
          *row = outer_;
          bool ok = BindRow(scan_, t, row);
          iter_->Next();
          if (ok) return true;
        }
        iter_.reset();
      }
      if (!child_->Next(&outer_)) return false;
      iter_ = source_->NewScan(ScanPattern(scan_, outer_));
      ++stats_->index_scans;
      ++stats_->patterns_evaluated;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  const rdf::TripleSource* source_;
  CompiledScan scan_;
  QueryStats* stats_;
  Cursor::CancelState* cancel_;
  Row outer_;
  std::unique_ptr<rdf::ScanIterator> iter_;
};

/// Narrows full-width rows to the projected columns.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<int> slots)
      : child_(std::move(child)), slots_(std::move(slots)) {}

  bool Next(Row* row) override {
    if (!child_->Next(&buffer_)) return false;
    row->resize(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      (*row)[i] = buffer_[static_cast<size_t>(slots_[i])];
    }
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> slots_;
  Row buffer_;
};

/// Drops duplicate projected rows.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  bool Next(Row* row) override {
    while (child_->Next(row)) {
      if (seen_.insert(*row).second) return true;
    }
    return false;
  }

 private:
  std::unique_ptr<Operator> child_;
  std::unordered_set<Row, RowHash> seen_;
};

/// Stops the pipeline after `limit` rows (LIMIT pushdown: nothing
/// below this operator runs once the quota is reached).
class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, size_t limit)
      : child_(std::move(child)), remaining_(limit) {}

  bool Next(Row* row) override {
    if (remaining_ == 0) return false;
    if (!child_->Next(row)) {
      remaining_ = 0;
      return false;
    }
    --remaining_;
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  size_t remaining_;
};

/// Hash GROUP BY over full-width rows: drains the child into the
/// shared GroupAggregator (query/agg.h), then streams the aggregated
/// [group values..., count] rows — ordered when a top-k bound was
/// requested, hash order otherwise. Replaces Project/Distinct in the
/// pipeline: the aggregate's output columns are already narrow.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(std::unique_ptr<Operator> child, const CompiledAgg& agg,
                  size_t top_k, QueryStats* stats,
                  Cursor::CancelState* cancel)
      : child_(std::move(child)),
        agg_(agg),
        top_k_(top_k),
        stats_(stats),
        cancel_(cancel) {}

  bool Next(Row* row) override {
    if (!done_) {
      GroupAggregator groups(agg_);
      Row in;
      while (child_->Next(&in)) {
        groups.Accumulate(in);
        if (cancel_->expired) break;
      }
      done_ = true;
      if (!cancel_->expired) {
        stats_->agg_groups += groups.num_groups();
        out_ = std::move(groups).Finish(top_k_);
      }
      // An expired deadline discards the partial aggregate: a group
      // that is missing late rows would be silently *wrong*, not just
      // a prefix, so nothing is emitted (the cursor flags the stats).
    }
    if (cancel_->expired || pos_ >= out_.size()) return false;
    *row = std::move(out_[pos_++]);
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  CompiledAgg agg_;
  size_t top_k_;
  QueryStats* stats_;
  Cursor::CancelState* cancel_;
  std::vector<Row> out_;
  size_t pos_ = 0;
  bool done_ = false;
};

}  // namespace

// ------------------------------------------------------------ Cursor

Cursor::Cursor(PlanPtr plan,
               std::shared_ptr<const rdf::TripleSource> snapshot,
               const rdf::TripleSource* source,
               const ExecutionOptions& options, size_t limit, size_t top_k)
    : plan_(std::move(plan)),
      snapshot_(std::move(snapshot)),
      cancel_(std::make_unique<CancelState>()),
      stats_(std::make_unique<QueryStats>()),
      max_rows_(options.max_rows) {
  if (options.has_deadline()) {
    cancel_->armed = true;
    cancel_->deadline = options.deadline;
  }
  const rdf::TripleSource* src =
      snapshot_ != nullptr ? snapshot_.get() : source;
  std::unique_ptr<Operator> op;
  if (plan_->unmatchable) {
    op = std::make_unique<EmptyOp>();
  } else if (plan_->scans.empty()) {
    op = std::make_unique<OnceOp>(plan_->var_names.size());
  } else {
    op = std::make_unique<IndexScanOp>(
        src, plan_->scans[0], plan_->var_names.size(), stats_.get(),
        cancel_.get());
    for (size_t i = 1; i < plan_->scans.size(); ++i) {
      op = std::make_unique<IndexNestedLoopJoinOp>(
          std::move(op), src, plan_->scans[i], stats_.get(), cancel_.get());
    }
  }
  if (plan_->agg.enabled) {
    // Aggregation replaces Project/Distinct: the aggregate streams
    // id-native [group..., count] rows straight to the boundary.
    op = std::make_unique<HashAggregateOp>(std::move(op), plan_->agg, top_k,
                                           stats_.get(), cancel_.get());
  } else {
    op = std::make_unique<ProjectOp>(std::move(op), plan_->projection_slots);
    if (plan_->distinct) op = std::make_unique<DistinctOp>(std::move(op));
  }
  if (limit != 0) op = std::make_unique<LimitOp>(std::move(op), limit);
  root_ = std::move(op);
}

Cursor::Cursor(Cursor&&) noexcept = default;
Cursor& Cursor::operator=(Cursor&&) noexcept = default;

Cursor::~Cursor() {
  if (stats_ == nullptr || flushed_metrics_) return;
  QueryMetrics& metrics = QueryMetrics::Get();
  metrics.rows_streamed.Increment(stats_->rows_streamed);
  metrics.patterns_evaluated.Increment(stats_->patterns_evaluated);
  metrics.index_scans.Increment(stats_->index_scans);
  if (stats_->agg_groups > 0) {
    metrics.agg_groups.Increment(stats_->agg_groups);
  }
  flushed_metrics_ = true;
}

bool Cursor::Next(Row* row) {
  if (stats_->deadline_exceeded || stats_->max_rows_hit) return false;
  if (max_rows_ != 0 && stats_->rows_streamed >= max_rows_) {
    stats_->max_rows_hit = true;
    return false;
  }
  // An already-expired deadline ends the stream before the first pull
  // (deterministic for "give up immediately" requests); otherwise the
  // operators poll cooperatively from their scan loops.
  if (cancel_->armed && stats_->rows_streamed == 0 &&
      std::chrono::steady_clock::now() >= cancel_->deadline) {
    cancel_->expired = true;
  }
  if (cancel_->expired || !root_->Next(row)) {
    stats_->deadline_exceeded = cancel_->expired;
    return false;
  }
  ++stats_->rows_streamed;
  return true;
}

const std::vector<std::string>& Cursor::columns() const {
  return plan_->projection_names;
}

Binding Cursor::ToBinding(const Row& row) const {
  Binding binding;
  for (size_t i = 0; i < plan_->projection_names.size() && i < row.size();
       ++i) {
    binding[plan_->projection_names[i]] = row[i];
  }
  return binding;
}

// ------------------------------------------------------- QueryEngine

PlanPtr QueryEngine::GetPlan(const SelectQuery& query,
                             bool* cache_hit) const {
  *cache_hit = false;
  QueryMetrics& metrics = QueryMetrics::Get();
  std::string key = PlanCacheKey(query);
  if (PlanPtr plan = cache_->Lookup(key); plan != nullptr) {
    metrics.plan_cache_hits.Increment();
    *cache_hit = true;
    return plan;
  }
  metrics.plan_cache_misses.Increment();
  PlanPtr plan = CompilePlan(query, *source_);
  cache_->Insert(key, plan);
  return plan;
}

Cursor QueryEngine::Open(const SelectQuery& query,
                         const ExecutionOptions& options) const {
  QueryMetrics::Get().executions.Increment();
  bool cache_hit = false;
  PlanPtr plan = GetPlan(query, &cache_hit);
  Cursor cursor(std::move(plan), source_->SnapshotSource(), source_, options,
                query.limit, query.agg.top_k);
  cursor.stats_->plan_cache_hit = cache_hit;
  return cursor;
}

std::vector<Binding> QueryEngine::Execute(const SelectQuery& query,
                                          const ExecutionOptions& options,
                                          QueryStats* stats) const {
  QueryMetrics& metrics = QueryMetrics::Get();
  ScopedTimer timer(metrics.execute_ms);
  Cursor cursor = Open(query, options);
  std::vector<Binding> results;
  Row row;
  while (cursor.Next(&row)) results.push_back(cursor.ToBinding(row));
  if (stats != nullptr) *stats = cursor.stats();
  metrics.rows.Increment(results.size());
  return results;
}

StatusOr<SelectQuery> ParseSparql(std::string_view text,
                                  const rdf::Dictionary& dict) {
  SelectQuery query;
  // Tokenize by whitespace but keep quoted literals intact; parens
  // become their own tokens (the aggregate syntax) except inside
  // quotes or <IRIs>, where they are ordinary characters.
  std::vector<std::string> tokens;
  {
    std::string current;
    bool in_quotes = false;
    bool in_iri = false;
    for (size_t i = 0; i < text.size(); ++i) {
      char c = text[i];
      if (c == '"' ) {
        in_quotes = !in_quotes;
        current += c;
        continue;
      }
      if (!in_quotes && c == '<') in_iri = true;
      if (!in_quotes && c == '>') in_iri = false;
      if (!in_quotes && !in_iri && (c == '(' || c == ')')) {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
        tokens.push_back(std::string(1, c));
        continue;
      }
      if (!in_quotes && isspace(static_cast<unsigned char>(c))) {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
        continue;
      }
      current += c;
    }
    if (!current.empty()) tokens.push_back(current);
  }
  size_t i = 0;
  auto expect = [&](const char* word) -> bool {
    if (i < tokens.size() && ToUpper(tokens[i]) == word) {
      ++i;
      return true;
    }
    return false;
  };
  if (!expect("SELECT")) return Status::InvalidArgument("expected SELECT");
  if (expect("DISTINCT")) query.distinct = true;
  // Projection list: ?vars and at most one (COUNT(...) AS ?name)
  // aggregate spec, in any interleaving.
  while (i < tokens.size()) {
    if (tokens[i][0] == '?') {
      query.projection.push_back(tokens[i].substr(1));
      ++i;
      continue;
    }
    if (tokens[i] != "(") break;
    if (query.agg.enabled()) {
      return Status::InvalidArgument("only one aggregate is supported");
    }
    ++i;  // '('
    if (!expect("COUNT")) {
      return Status::InvalidArgument("expected COUNT in aggregate");
    }
    if (i >= tokens.size() || tokens[i] != "(") {
      return Status::InvalidArgument("expected ( after COUNT");
    }
    ++i;
    query.agg.func = expect("DISTINCT") ? AggFunc::kCountDistinct
                                        : AggFunc::kCount;
    if (i < tokens.size() && tokens[i] == "*") {
      if (query.agg.func == AggFunc::kCountDistinct) {
        return Status::InvalidArgument("COUNT(DISTINCT *) is unsupported");
      }
      ++i;
    } else if (i < tokens.size() && tokens[i].size() > 1 &&
               tokens[i][0] == '?') {
      query.agg.var = tokens[i].substr(1);
      ++i;
    } else {
      return Status::InvalidArgument("expected ?var or * in COUNT");
    }
    if (i >= tokens.size() || tokens[i] != ")") {
      return Status::InvalidArgument("expected ) after COUNT argument");
    }
    ++i;
    if (!expect("AS")) {
      return Status::InvalidArgument("expected AS in aggregate");
    }
    if (i >= tokens.size() || tokens[i].size() < 2 || tokens[i][0] != '?') {
      return Status::InvalidArgument("expected ?name after AS");
    }
    query.agg.out_name = tokens[i].substr(1);
    ++i;
    if (i >= tokens.size() || tokens[i] != ")") {
      return Status::InvalidArgument("expected ) closing aggregate");
    }
    ++i;
  }
  if (i < tokens.size() && tokens[i] == "*") ++i;  // SELECT *
  if (query.agg.enabled() && query.distinct) {
    return Status::InvalidArgument("DISTINCT with an aggregate");
  }
  if (!expect("WHERE")) return Status::InvalidArgument("expected WHERE");
  if (i >= tokens.size() || tokens[i] != "{") {
    return Status::InvalidArgument("expected {");
  }
  ++i;
  std::vector<QueryTerm> terms;
  auto flush_pattern = [&]() -> Status {
    if (terms.empty()) return Status::OK();
    if (terms.size() != 3) {
      return Status::InvalidArgument("pattern must have 3 terms");
    }
    query.where.push_back({terms[0], terms[1], terms[2]});
    terms.clear();
    return Status::OK();
  };
  for (; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "}") {
      KB_RETURN_IF_ERROR(flush_pattern());
      if (query.where.empty()) {
        return Status::InvalidArgument("empty WHERE clause");
      }
      ++i;
      // Optional GROUP BY ?g ... (aggregate queries only).
      if (i < tokens.size() && ToUpper(tokens[i]) == "GROUP") {
        ++i;
        if (!expect("BY")) {
          return Status::InvalidArgument("expected BY after GROUP");
        }
        if (!query.agg.enabled()) {
          return Status::InvalidArgument("GROUP BY without an aggregate");
        }
        while (i < tokens.size() && tokens[i].size() > 1 &&
               tokens[i][0] == '?') {
          query.agg.group_by.push_back(tokens[i].substr(1));
          ++i;
        }
        if (query.agg.group_by.empty()) {
          return Status::InvalidArgument("empty GROUP BY");
        }
      }
      // Optional ORDER BY DESC(?agg) — the top-k form; only the
      // aggregate output may be the sort key, and a LIMIT must bound
      // the heap.
      bool ordered = false;
      if (i < tokens.size() && ToUpper(tokens[i]) == "ORDER") {
        ++i;
        if (!expect("BY")) {
          return Status::InvalidArgument("expected BY after ORDER");
        }
        if (!query.agg.enabled()) {
          return Status::InvalidArgument("ORDER BY without an aggregate");
        }
        if (!expect("DESC")) {
          return Status::InvalidArgument(
              "only ORDER BY DESC(?agg) is supported");
        }
        if (i >= tokens.size() || tokens[i] != "(") {
          return Status::InvalidArgument("expected ( after DESC");
        }
        ++i;
        if (i >= tokens.size() || tokens[i] != "?" + query.agg.out_name) {
          return Status::InvalidArgument(
              "ORDER BY DESC must sort on the aggregate output");
        }
        ++i;
        if (i >= tokens.size() || tokens[i] != ")") {
          return Status::InvalidArgument("expected ) after DESC(?var");
        }
        ++i;
        ordered = true;
      }
      // Optional trailing "LIMIT n".
      if (i < tokens.size() && ToUpper(tokens[i]) == "LIMIT") {
        ++i;
        long long n = 0;
        if (i >= tokens.size() || !ParseInt64(tokens[i], &n) || n < 0) {
          return Status::InvalidArgument("bad LIMIT");
        }
        query.limit = static_cast<size_t>(n);
        ++i;
      }
      if (ordered) {
        if (query.limit == 0) {
          return Status::InvalidArgument(
              "ORDER BY DESC(?agg) requires LIMIT (top-k)");
        }
        query.agg.top_k = query.limit;
        query.limit = 0;  // the bounded heap already emits exactly k
      }
      if (query.agg.enabled()) {
        // Grouped output variables must be exactly the projected ones
        // (order included), so the output columns are unambiguous.
        if (!query.projection.empty() &&
            query.projection != query.agg.group_by) {
          return Status::InvalidArgument(
              "projected variables must match GROUP BY");
        }
        // The output row is keyed by name; a collision would make the
        // count shadow its own group column.
        for (const std::string& g : query.agg.group_by) {
          if (g == query.agg.out_name) {
            return Status::InvalidArgument(
                "aggregate output name collides with a grouped variable");
          }
        }
      }
      if (i < tokens.size()) {
        return Status::InvalidArgument("trailing tokens after query");
      }
      return query;
    }
    if (token == ".") {
      KB_RETURN_IF_ERROR(flush_pattern());
      continue;
    }
    if (token[0] == '?') {
      if (token.size() < 2) {
        return Status::InvalidArgument("bare '?' variable");
      }
      terms.push_back(QueryTerm::Var(token.substr(1)));
      continue;
    }
    auto parsed = rdf::Term::Parse(token);
    if (!parsed.ok()) return parsed.status();
    // Unknown constants stay kInvalidTermId = unmatchable.
    terms.push_back(QueryTerm::Bound(dict.Lookup(*parsed)));
  }
  return Status::InvalidArgument("unterminated WHERE clause");
}

}  // namespace query
}  // namespace kb
