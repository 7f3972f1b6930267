#include "server/kb_server.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "core/entity_card.h"
#include "query/plan.h"
#include "rdf/namespaces.h"
#include "server/protocol.h"
#include "util/logging.h"

namespace kb {
namespace server {

namespace {

/// Fields where any negative value keeps a documented meaning
/// (deadline_ms: none; max_rows, max_facts, top_k: the default;
/// iterations: 0).
constexpr double kAnyNegative = -std::numeric_limits<double>::max();
/// Longest deadline_ms a query may carry (one year): a longer one is
/// refused, so now + deadline always fits steady_clock's nanoseconds.
constexpr double kMaxDeadlineMs = 365.0 * 24 * 3600 * 1000;

/// Splices a serialized result body ("{...}") into an ok envelope with
/// the cached flag, without re-parsing the body — this is the entire
/// work of a result-cache hit.
std::string OkWithBody(const std::string& body, bool cached) {
  std::string out = "{\"status\":\"ok\",\"cached\":";
  out += cached ? "true" : "false";
  if (body.size() > 2) {
    out += ',';
    out.append(body, 1, body.size() - 1);  // body without its '{'
  } else {
    out += '}';
  }
  return out;
}

}  // namespace

struct KbServer::Metrics {
  Counter& requests;
  Counter& errors;
  Counter& queries;
  Counter& entity_cards;
  Counter& inserted_facts;
  Counter& analytics;
  Counter& deadline_exceeded;
  Histogram& request_ms;
  Histogram& query_ms;
  Histogram& analytics_ms;
  EventServerMetrics core;

  static Metrics* Get() {
    static Metrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      EventServerMetrics core;
      core.open_connections = &r.gauge("server.open_connections");
      core.queue_depth = &r.gauge("server.queue_depth");
      core.rejected = &r.counter("server.rejected");
      core.errors = &r.counter("server.errors");
      core.epoll_wakeups = &r.counter("server.epoll_wakeups");
      core.pipelined_frames = &r.counter("server.pipelined_frames");
      core.idle_closed = &r.counter("server.idle_closed");
      return new Metrics{
          r.counter("server.requests"),
          r.counter("server.errors"),
          r.counter("server.queries"),
          r.counter("server.entity_cards"),
          r.counter("server.inserted_facts"),
          r.counter("server.analytics"),
          r.counter("server.deadline_exceeded"),
          r.histogram("server.request_ms"),
          r.histogram("server.query_ms"),
          r.histogram("server.analytics_ms"),
          core,
      };
    }();
    return m;
  }
};

KbServer::KbServer(core::KnowledgeBase* kb, const Options& options)
    : kb_(kb),
      options_(options),
      result_cache_(options.cache_bytes),
      metrics_(Metrics::Get()),
      server_(options, metrics_->core,
              std::bind_front(&KbServer::HandleFrame, this)) {}

KbServer::~KbServer() { Stop(); }

Status KbServer::Start() {
  // Before the workers exist: health reads it from them.
  started_at_ = std::chrono::steady_clock::now();
  return server_.Start();
}

void KbServer::Stop() { server_.Stop(); }

void KbServer::Drain(double timeout_ms) { server_.Drain(timeout_ms); }

void KbServer::WithWriteLock(const std::function<void()>& fn) {
  std::unique_lock<std::shared_mutex> lock(kb_mu_);
  fn();
}

uint64_t KbServer::applied_epoch() const {
  return options_.applied_epoch_fn ? options_.applied_epoch_fn()
                                   : kb_->epoch();
}

std::string KbServer::HandleFrame(const std::string& payload) {
  ScopedTimer timer(metrics_->request_ms);
  metrics_->requests.Increment();
  auto request = Json::Parse(payload);
  if (!request.ok()) {
    metrics_->errors.Increment();
    // Framing is intact; only this request was garbage.
    return ErrorResponse("bad_request", request.status().message());
  }
  return HandleRequest(*request);
}

std::string KbServer::HandleRequest(const Json& request) {
  const std::string op = request.GetString("op");
  if (op == "query") return HandleQuery(request);
  if (op == "entity_card") return HandleEntityCard(request);
  if (op == "insert_facts") return HandleInsertFacts(request);
  if (op == "analytics") return HandleAnalytics(request);
  if (op == "health") return HandleHealth();
  if (op == "metrics") return HandleMetrics();
  metrics_->errors.Increment();
  return ErrorResponse("unknown_endpoint", "no such op: " + op);
}

std::string KbServer::CheckMinEpoch(const Json& request) const {
  double min_epoch = 0;
  if (std::string bad =
          ReadNumber(request, "min_epoch", 0, kMaxWireInteger, &min_epoch);
      !bad.empty()) {
    return bad;
  }
  const uint64_t required = static_cast<uint64_t>(min_epoch);
  const uint64_t applied = applied_epoch();
  if (applied >= required) return std::string();
  // Read-your-writes: this replica has not yet applied the epoch the
  // client's own writes reached. The caller (router or retrying
  // client) redirects to the leader or a fresher replica.
  return ErrorResponse("stale_replica",
                       "applied epoch " + std::to_string(applied) +
                           " < required " + std::to_string(required));
}

std::string KbServer::HandleQuery(const Json& request) {
  metrics_->queries.Increment();
  ScopedTimer timer(metrics_->query_ms);
  const std::string sparql = request.GetString("sparql");
  if (sparql.empty()) return ErrorResponse("bad_request", "missing sparql");
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }
  double deadline_ms = options_.default_deadline_ms;
  if (std::string bad = ReadNumber(request, "deadline_ms", kAnyNegative,
                                   kMaxDeadlineMs, &deadline_ms);
      !bad.empty()) {
    return bad;
  }
  if (request["deadline_ms"].is_number()) {
    if (deadline_ms < 0) deadline_ms = 0;  // explicit "no deadline"
    else if (deadline_ms == 0) deadline_ms = 1e-9;  // expire immediately
  }
  double requested_rows = -1;  // negative: the server default
  if (std::string bad = ReadNumber(request, "max_rows", kAnyNegative,
                                   kMaxWireInteger, &requested_rows);
      !bad.empty()) {
    return bad;
  }
  size_t max_rows = options_.default_max_rows;
  if (requested_rows >= 0) max_rows = static_cast<size_t>(requested_rows);

  // The epoch is read *before* parse/execute: if a write lands in
  // between, the entry is cached under the older epoch and simply
  // never matches again — the safe direction. (Reading it after could
  // file pre-write rows under the post-write epoch: a stale read.)
  const uint64_t epoch = kb_->epoch();
  // Held across parse, execute and render: the exclusive side
  // (insert_facts, WithWriteLock) must quiesce the whole read path —
  // a background checkpoint move-assigns the KB out from under any
  // reader it has not excluded.
  std::shared_lock<std::shared_mutex> lock(kb_mu_);
  auto parsed = kb_->ParseQuery(sparql);
  if (!parsed.ok()) {
    return ErrorResponse("bad_query", parsed.status().ToString());
  }

  query::ExecutionOptions exec;
  if (deadline_ms > 0) {
    exec.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(deadline_ms * 1000));
  }
  exec.max_rows = max_rows;

  const bool use_cache =
      result_cache_.enabled() && !request.GetBool("no_cache", false);
  std::string cache_key;
  if (use_cache) {
    // Normalized shape + constants (the plan-cache key) plus what the
    // plan deliberately leaves out but the result depends on.
    cache_key = query::PlanCacheKey(*parsed);
    cache_key += "|limit=" + std::to_string(parsed->limit);
    cache_key += "|cap=" + std::to_string(max_rows);
    // The plan key deliberately omits top-k (the plan is k-agnostic);
    // the result is not.
    cache_key += "|topk=" + std::to_string(parsed->agg.top_k);
    if (auto body = result_cache_.Lookup(cache_key, epoch);
        body != nullptr) {
      return OkWithBody(*body, /*cached=*/true);
    }
  }

  query::QueryStats stats;
  std::vector<query::Binding> rows = kb_->Execute(*parsed, exec, &stats);
  if (stats.deadline_exceeded) {
    // Partial-free by contract: whatever prefix was produced is
    // dropped, the client sees an error it can retry with a longer
    // budget — never silently truncated data.
    metrics_->deadline_exceeded.Increment();
    return ErrorResponse("deadline_exceeded",
                         "query missed its deadline after " +
                             std::to_string(stats.rows_streamed) + " rows");
  }

  Json body = Json::Object();
  {
    // Term rendering reads the dictionary, which insert_facts grows
    // under the exclusive side of the lock held above.
    const rdf::Dictionary& dict = kb_->store().dict();
    std::vector<std::string> columns = parsed->projection;
    if (parsed->agg.enabled()) {
      // Aggregate results are [group values..., count]; the count
      // column is a plain number, not a dictionary term.
      columns = parsed->agg.group_by;
      columns.push_back(parsed->agg.out_name.empty() ? "count"
                                                     : parsed->agg.out_name);
    } else if (columns.empty() && !rows.empty()) {
      for (const auto& [var, id] : rows.front()) columns.push_back(var);
    }
    Json columns_json = Json::Array();
    for (const std::string& c : columns) columns_json.Append(Json::Str(c));
    Json rows_json = Json::Array();
    for (const query::Binding& row : rows) {
      Json row_json = Json::Array();
      for (size_t c = 0; c < columns.size(); ++c) {
        auto it = row.find(columns[c]);
        if (it == row.end() || it->second == rdf::kInvalidTermId) {
          row_json.Append(Json::Null());
        } else if (parsed->agg.enabled() && c + 1 == columns.size()) {
          row_json.Append(Json::Number(static_cast<double>(it->second)));
        } else {
          const rdf::Term& term = dict.term(it->second);
          row_json.Append(Json::Str(
              term.is_iri() ? rdf::Abbreviate(term.value()) : term.value()));
        }
      }
      rows_json.Append(std::move(row_json));
    }
    body.Set("columns", std::move(columns_json));
    body.Set("rows", std::move(rows_json));
  }
  body.Set("row_count", Json::Number(static_cast<double>(rows.size())));
  if (stats.max_rows_hit) body.Set("truncated", Json::Bool(true));

  std::string serialized = body.Dump();
  // A row-capped result is a prefix; caching it would serve the
  // truncation to callers with a different tolerance.
  if (use_cache && !stats.max_rows_hit) {
    result_cache_.Insert(cache_key, epoch, serialized);
  }
  return OkWithBody(serialized, /*cached=*/false);
}

std::string KbServer::HandleEntityCard(const Json& request) {
  metrics_->entity_cards.Increment();
  const std::string entity = request.GetString("entity");
  if (entity.empty()) return ErrorResponse("bad_request", "missing entity");
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }
  double max_facts = 0;  // 0 or negative: the card's default
  if (std::string bad = ReadNumber(request, "max_facts", kAnyNegative,
                                   kMaxWireInteger, &max_facts);
      !bad.empty()) {
    return bad;
  }
  core::EntityCardOptions card_options;
  if (max_facts > 0) card_options.max_facts = static_cast<size_t>(max_facts);
  StatusOr<core::EntityCard> card = [&] {
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    return core::BuildEntityCard(*kb_, entity, card_options);
  }();
  if (!card.ok()) {
    if (card.status().IsNotFound()) {
      return ErrorResponse("not_found", card.status().message());
    }
    return ErrorResponse("internal", card.status().ToString());
  }
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("canonical", Json::Str(card->canonical));
  response.Set("display_name", Json::Str(card->display_name));
  Json types = Json::Array();
  for (const std::string& type : card->types) types.Append(Json::Str(type));
  response.Set("types", std::move(types));
  Json facts = Json::Array();
  for (const core::CardFact& fact : card->facts) {
    Json f = Json::Object();
    f.Set("property", Json::Str(fact.property));
    f.Set("value", Json::Str(fact.value));
    f.Set("confidence", Json::Number(fact.confidence));
    f.Set("support", Json::Number(fact.support));
    facts.Append(std::move(f));
  }
  response.Set("facts", std::move(facts));
  Json labels = Json::Array();
  for (const auto& [lang, label] : card->labels) {
    Json l = Json::Object();
    l.Set("lang", Json::Str(lang));
    l.Set("label", Json::Str(label));
    labels.Append(std::move(l));
  }
  response.Set("labels", std::move(labels));
  response.Set("text", Json::Str(core::RenderEntityCard(*card)));
  return response.Dump();
}

std::string KbServer::HandleInsertFacts(const Json& request) {
  if (options_.read_only) {
    return ErrorResponse(
        "not_leader", "this replica is read-only; send writes to the leader");
  }
  const Json& facts = request["facts"];
  if (!facts.is_array()) {
    return ErrorResponse("bad_request", "facts must be an array");
  }
  // Decode and validate outside the lock; invalid entries are counted
  // and dropped here so the replication log only ever sees facts that
  // will actually be asserted. An out-of-range number fails the whole
  // request before anything is logged or asserted.
  std::vector<WireFact> batch;
  batch.reserve(facts.items().size());
  size_t skipped = 0;
  for (const Json& fact : facts.items()) {
    double year = 0, support = 1;
    if (std::string bad = ReadNumber(fact, "year", INT32_MIN, INT32_MAX, &year);
        !bad.empty()) {
      return bad;
    }
    if (std::string bad =
            ReadNumber(fact, "support", 0, UINT32_MAX, &support);
        !bad.empty()) {
      return bad;
    }
    WireFact wire;
    wire.s = fact.GetString("s");
    wire.p = fact.GetString("p");
    wire.o = fact.GetString("o");
    wire.has_year = fact["year"].is_number();
    wire.year = static_cast<int32_t>(year);
    if (!fact.is_object() || wire.s.empty() || wire.p.empty() ||
        (wire.o.empty() && !wire.has_year)) {
      ++skipped;
      continue;
    }
    wire.confidence = fact.GetNumber("confidence", 1.0);
    wire.support = static_cast<uint32_t>(support);
    batch.push_back(std::move(wire));
  }
  size_t inserted = 0, merged = 0;
  {
    std::unique_lock<std::shared_mutex> lock(kb_mu_);
    if (options_.pre_insert_hook && !batch.empty()) {
      // Log before apply: a follower can over-receive (idempotent
      // replay dedups) but must never under-receive relative to the
      // epoch this response publishes.
      Status logged = options_.pre_insert_hook(batch);
      if (!logged.ok()) {
        metrics_->errors.Increment();
        return ErrorResponse("internal",
                             "replication log append failed: " +
                                 logged.ToString());
      }
    }
    for (const WireFact& wire : batch) {
      if (AssertWireFact(wire, kb_)) ++inserted;
      else ++merged;
    }
  }
  metrics_->inserted_facts.Increment(inserted);
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("inserted", Json::Number(static_cast<double>(inserted)));
  response.Set("merged", Json::Number(static_cast<double>(merged)));
  response.Set("skipped", Json::Number(static_cast<double>(skipped)));
  response.Set("epoch", Json::Number(static_cast<double>(kb_->epoch())));
  return response.Dump();
}

ThreadPool* KbServer::AnalyticsPool() {
  std::lock_guard<std::mutex> lock(analytics_pool_mu_);
  if (analytics_pool_ == nullptr) {
    analytics_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, options_.num_workers)));
  }
  return analytics_pool_.get();
}

std::string KbServer::HandleAnalytics(const Json& request) {
  metrics_->analytics.Increment();
  ScopedTimer timer(metrics_->analytics_ms);
  const std::string job = request.GetString("job");
  if (job != "pagerank" && job != "class_stats") {
    return ErrorResponse("bad_request", "unknown analytics job: " + job);
  }
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }

  double requested_k = 0, requested_iterations = 20;
  if (std::string bad = ReadNumber(request, "top_k", kAnyNegative,
                                   kMaxWireInteger, &requested_k);
      !bad.empty()) {
    return bad;
  }
  if (std::string bad = ReadNumber(request, "iterations", kAnyNegative,
                                   INT32_MAX, &requested_iterations);
      !bad.empty()) {
    return bad;
  }
  const size_t top_k =
      requested_k > 0 ? static_cast<size_t>(requested_k) : size_t{10};
  const int iterations =
      requested_iterations > 0 ? static_cast<int>(requested_iterations) : 0;
  const bool insert = request.GetBool("insert", false);
  if (insert && options_.read_only) {
    return ErrorResponse(
        "not_leader", "this replica is read-only; send writes to the leader");
  }
  double damping = request.GetNumber("damping", 0.85);
  const bool rollup = request.GetBool("rollup", true);

  // Same caching discipline as queries: epoch read before the scan, a
  // job-shaped key, every write batch invalidates by construction. An
  // inserting run mutates the KB (and bumps the epoch), so it is never
  // served from — or written to — the cache.
  const uint64_t epoch = kb_->epoch();
  const bool use_cache = result_cache_.enabled() && !insert &&
                         !request.GetBool("no_cache", false);
  std::string cache_key;
  if (use_cache) {
    cache_key = "analytics|" + job + "|k=" + std::to_string(top_k);
    if (job == "pagerank") {
      cache_key += "|d=" + std::to_string(damping) +
                   "|it=" + std::to_string(iterations);
    } else {
      cache_key += rollup ? "|rollup" : "|direct";
    }
    if (auto body = result_cache_.Lookup(cache_key, epoch);
        body != nullptr) {
      return OkWithBody(*body, /*cached=*/true);
    }
  }

  ThreadPool* pool = AnalyticsPool();
  Json body = Json::Object();
  body.Set("job", Json::Str(job));
  analytics::PageRankResult pagerank;
  analytics::ClassStatsResult class_stats;
  {
    // The scans and term rendering read the store and dictionary;
    // shared side for the whole job so writers (and checkpoints)
    // exclude it wholesale.
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    const rdf::Dictionary& dict = kb_->store().dict();
    auto predicate = [&](std::string_view iri) {
      return dict.Lookup(rdf::Term::Iri(std::string(iri)));
    };
    if (job == "pagerank") {
      analytics::PageRankOptions opt;
      opt.damping = damping;
      opt.max_iterations = iterations;
      opt.iri_objects_only = &dict;
      for (std::string_view iri :
           {rdf::kRdfType, rdf::kRdfsSubClassOf, rdf::kRdfsLabel,
            rdf::kOwlSameAs}) {
        rdf::TermId id = predicate(iri);
        if (id != rdf::kInvalidTermId) opt.exclude_predicates.push_back(id);
      }
      pagerank = analytics::ComputePageRank(kb_->store(), opt, pool);
      body.Set("nodes",
               Json::Number(static_cast<double>(pagerank.nodes.size())));
      body.Set("edges",
               Json::Number(static_cast<double>(pagerank.num_edges)));
      body.Set("iterations", Json::Number(pagerank.iterations));
      body.Set("delta", Json::Number(pagerank.last_delta));
      Json top = Json::Array();
      for (const auto& [node, score] : pagerank.TopK(top_k)) {
        Json entry = Json::Object();
        entry.Set("entity",
                  Json::Str(rdf::Abbreviate(dict.term(node).value())));
        entry.Set("score", Json::Number(score));
        top.Append(std::move(entry));
      }
      body.Set("top", std::move(top));
    } else {
      analytics::ClassStatsOptions opt;
      opt.type_predicate = predicate(rdf::kRdfType);
      opt.subclass_predicate = predicate(rdf::kRdfsSubClassOf);
      opt.rollup = rollup;
      class_stats = analytics::ComputeClassStats(kb_->store(), opt, pool);
      body.Set("entities",
               Json::Number(static_cast<double>(class_stats.num_entities)));
      body.Set("classes",
               Json::Number(static_cast<double>(class_stats.num_classes)));
      Json top = Json::Array();
      size_t emitted = 0;
      for (const auto& [cls, count] : class_stats.counts) {
        if (emitted++ >= top_k) break;
        Json entry = Json::Object();
        entry.Set("class",
                  Json::Str(rdf::Abbreviate(dict.term(cls).value())));
        entry.Set("count", Json::Number(static_cast<double>(count)));
        top.Append(std::move(entry));
      }
      body.Set("top", std::move(top));
    }
  }
  if (insert) {
    const std::string default_property =
        job == "pagerank" ? "pagerankScore" : "entityCount";
    std::string property = request.GetString("property");
    if (property.empty()) property = default_property;
    size_t inserted = 0;
    {
      // Exclusive: the insert helpers intern literal terms through the
      // raw dictionary handle, which requires quiesced readers. The
      // materialized facts are a local, recomputable cache — they do
      // not ride the replication log (followers rerun the job).
      std::unique_lock<std::shared_mutex> lock(kb_mu_);
      inserted = job == "pagerank"
                     ? analytics::InsertPageRankFacts(pagerank, top_k,
                                                      property, kb_)
                     : analytics::InsertClassStatsFacts(class_stats,
                                                        property, kb_);
    }
    metrics_->inserted_facts.Increment(inserted);
    body.Set("inserted", Json::Number(static_cast<double>(inserted)));
  }

  std::string serialized = body.Dump();
  if (use_cache) result_cache_.Insert(cache_key, epoch, serialized);
  return OkWithBody(serialized, /*cached=*/false);
}

std::string KbServer::HandleHealth() const {
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("healthy", Json::Bool(true));
  {
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    response.Set("triples",
                 Json::Number(static_cast<double>(kb_->NumTriples())));
    response.Set("entities",
                 Json::Number(static_cast<double>(kb_->NumEntities())));
  }
  response.Set("epoch", Json::Number(static_cast<double>(kb_->epoch())));
  response.Set("role", Json::Str(options_.read_only ? "follower" : "leader"));
  response.Set("applied_epoch",
               Json::Number(static_cast<double>(applied_epoch())));
  double uptime_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started_at_)
                         .count();
  response.Set("uptime_ms", Json::Number(uptime_ms));
  return response.Dump();
}

std::string KbServer::HandleMetrics() const {
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("text",
               Json::Str(MetricsRegistry::Default().Snapshot().ToText()));
  return response.Dump();
}

}  // namespace server
}  // namespace kb
