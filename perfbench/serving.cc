// The two serving workloads.
//
//   read    one KbServer (default options) over a snapshot-booted KB;
//           4 connections send the read mix open loop.
//   ingest  Router -> leader KbServer (pre_insert_hook appends to a
//           fsynced ReplicationLog) -> WalShipper -> follower KbServer;
//           1 writer connection sends insert_facts batches and 3 reader
//           connections send the read mix, both open loop.
//
// Latency is charged from each request's due time. Every reply is
// checked against the expected result computed from the gold world.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/entity_card.h"
#include "core/kb_snapshot.h"
#include "loadgen/key_chooser.h"
#include "query/engine.h"
#include "rdf/namespaces.h"
#include "replication/follower.h"
#include "replication/repl_log.h"
#include "replication/router.h"
#include "replication/wal_shipper.h"
#include "server/json.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "storage/env.h"
#include "util/logging.h"
#include "world.h"

namespace perfbench {

namespace {

using kb::server::Json;
using kb::server::KbClient;
using kb::server::WireFact;

// ---- Recorded choices (perfbench/README.md lists them with reasons).
constexpr size_t kPersons = 80000;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr int kMaxGeneratorThreads = 4;
constexpr int kMaxConnections = 4;
constexpr int kReadConnections = 4;
constexpr int kIngestReaders = 3;
constexpr double kReadRate = 1000;        // read: requests/s
constexpr double kIngestReadRate = 400;   // ingest: reads/s
constexpr double kIngestWriteRate = 20;   // ingest: batches/s
constexpr size_t kBatchFacts = 4;
constexpr double kReadP99LimitMs = 25;    // max_rps limit, read
constexpr double kIngestP99LimitMs = 100; // max_rps limit, ingest
constexpr double kProbeSeconds = 0.5;
constexpr double kProbeStart = 2.0;       // first probe: 2x the fixed rate
constexpr double kProbeStep = 1.35;
constexpr int kMaxProbes = 10;
constexpr int kBisections = 2;
constexpr double kGraceSeconds = 10;      // past this, the run is invalid
// Traced runs replay one request in N per kind and connection (rarer
// kinds more often), at most kTraceCap per kind and connection.
constexpr size_t kTraceEvery[] = {8, 8, 2, 1, 1};  // card point scan agg insert
constexpr size_t kTraceCap = 300;
// Mix by count.
constexpr double kCardShare = 0.45, kPointShare = 0.35, kScanShare = 0.15;

enum Kind : uint8_t { kCard, kPoint, kScan, kAgg, kInsert, kNumKinds };
const char* const kKindName[] = {"card", "point", "scan", "agg", "insert"};
// Latency classes: entity cards and point queries form `point`.
enum LatClass : uint8_t { kLatPoint, kLatScan, kLatAgg, kLatInsert, kNumLat };
const char* const kLatName[] = {"point", "scan", "agg", "insert"};

LatClass ClassOf(Kind kind) {
  switch (kind) {
    case kCard:
    case kPoint:
      return kLatPoint;
    case kScan:
      return kLatScan;
    case kAgg:
      return kLatAgg;
    default:
      return kLatInsert;
  }
}

struct Op {
  double offset_s = 0;  ///< due time, seconds after the phase start
  Kind kind = kCard;
  uint32_t key = 0;  ///< index into the kind's key list, or batch index
};

struct Batch {
  std::vector<WireFact> facts;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  ///< (person, company)
};

/// One phase's offered load: reader ops (op i goes to reader i % R)
/// and, for ingest, the writer's batches.
struct Schedule {
  double seconds = 0;
  std::vector<Op> reads;
  std::vector<Op> writes;
  std::vector<Batch> batches;
};

/// Growth the run's own writes allow for, per written subject and
/// company. The writer bumps a counter before it sends.
struct Growth {
  explicit Growth(size_t entities)
      : by_subject(entities), by_object(entities) {}
  std::vector<std::atomic<uint32_t>> by_subject, by_object;
  std::atomic<uint64_t> total{0};
};

/// A traced request: its round trip and reply, replayed after the phase.
struct Sampled {
  Kind kind = kCard;
  uint32_t key = 0;
  Clock::time_point send, reply;
  bool cached = false;
  Json response;
};

struct PhaseResult {
  Samples latency[kNumLat];  ///< ms from due time
  Samples all;               ///< every class, ms from due time
  Samples late;              ///< ms from due time to send
  Samples tail_late;         ///< the same, over the last quarter
  Samples rtt[kNumLat];      ///< ms from send to reply
  uint64_t attempted = 0, failed = 0, shed = 0, wrong = 0, not_issued = 0;
  uint64_t cached[kNumLat] = {}, replies[kNumLat] = {};
  std::vector<Sampled> sampled;
  std::vector<WireFact> acked;  ///< facts whose batch was acknowledged
  std::string first_wrong;

  void Merge(PhaseResult&& other) {
    for (int c = 0; c < kNumLat; ++c) {
      latency[c].Append(other.latency[c]);
      rtt[c].Append(other.rtt[c]);
      cached[c] += other.cached[c];
      replies[c] += other.replies[c];
    }
    all.Append(other.all);
    late.Append(other.late);
    tail_late.Append(other.tail_late);
    attempted += other.attempted;
    failed += other.failed;
    shed += other.shed;
    wrong += other.wrong;
    not_issued += other.not_issued;
    if (first_wrong.empty()) first_wrong = other.first_wrong;
    for (Sampled& s : other.sampled) sampled.push_back(std::move(s));
    acked.insert(acked.end(), other.acked.begin(), other.acked.end());
  }
};

/// The served tier. Not movable: the insert hook and the follower's
/// epoch function capture `this`.
class Tier {
 public:
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  static std::unique_ptr<Tier> Start(
      bool ingest, const std::shared_ptr<const kb::rdf::FrameStore>& base,
      size_t entities, const std::string& dir, std::string* error);
  ~Tier() { Stop(); }

  void Stop() {
    if (router != nullptr) router->Stop();
    if (replica != nullptr) replica->Stop();
    if (follower_server != nullptr) follower_server->Stop();
    if (shipper != nullptr) shipper->Stop();
    if (server != nullptr) server->Stop();
  }

  int front_port() const {
    return router != nullptr ? router->port() : server->port();
  }
  /// The KB that answers reads (the follower's in ingest).
  kb::core::KnowledgeBase* read_kb() {
    return follower_kb != nullptr ? follower_kb.get() : kb.get();
  }
  int read_port() const {
    return follower_server != nullptr ? follower_server->port()
                                      : server->port();
  }

  /// Waits until the follower has applied the leader's current epoch.
  bool WaitForFollower(double timeout_s) const {
    if (replica == nullptr) return true;
    const uint64_t target = kb->epoch();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (replica->applied_epoch() < target) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  std::unique_ptr<kb::core::KnowledgeBase> kb;  ///< read server / leader
  std::unique_ptr<kb::replication::ReplicationLog> log;
  std::unique_ptr<kb::server::KbServer> server;
  std::unique_ptr<kb::replication::WalShipper> shipper;
  std::unique_ptr<kb::core::KnowledgeBase> follower_kb;
  std::unique_ptr<kb::server::KbServer> follower_server;
  std::unique_ptr<kb::replication::FollowerReplica> replica;
  std::unique_ptr<kb::replication::Router> router;

  std::mutex append_mu;
  Samples append_us;  ///< ReplicationLog::Append per batch, in the hook
  /// Facts this tier's writers have sent, bounding result growth.
  std::unique_ptr<Growth> growth;

 private:
  Tier() = default;
};

std::unique_ptr<Tier> Tier::Start(
    bool ingest, const std::shared_ptr<const kb::rdf::FrameStore>& base,
    size_t entities, const std::string& dir, std::string* error) {
  std::unique_ptr<Tier> tier(new Tier());
  tier->growth = std::make_unique<Growth>(entities);
  tier->kb = kb::core::KnowledgeBase::FromSnapshot(base);
  kb::server::KbServer::Options options;  // 4 workers, 2 I/O, 8 MB cache
  if (!ingest) {
    tier->server = std::make_unique<kb::server::KbServer>(tier->kb.get(),
                                                          options);
    if (!tier->server->Start().ok()) {
      *error = "server start failed";
      return nullptr;
    }
    return tier;
  }

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto log = kb::replication::ReplicationLog::Open(
      kb::replication::ReplicationLog::Options(), dir + "/log");
  if (!log.ok()) {
    *error = "replication log: " + log.status().ToString();
    return nullptr;
  }
  tier->log = std::move(*log);

  // DESIGN.md §5d: backend workers must exceed router workers + 1.
  const kb::replication::Router::Options router_defaults;
  options.num_workers = router_defaults.num_workers + 2;
  options.queue_depth = 32;
  kb::server::KbServer::Options leader_options = options;
  Tier* raw = tier.get();
  leader_options.pre_insert_hook = [raw](const std::vector<WireFact>& batch) {
    const Clock::time_point start = Clock::now();
    kb::Status status = raw->log->Append(batch);
    const double us = Us(Clock::now() - start);
    std::lock_guard<std::mutex> lock(raw->append_mu);
    raw->append_us.Add(us);
    return status;
  };
  tier->server = std::make_unique<kb::server::KbServer>(tier->kb.get(),
                                                        leader_options);
  tier->shipper = std::make_unique<kb::replication::WalShipper>(
      tier->log.get(), [raw] { return raw->kb->epoch(); },
      kb::replication::WalShipper::Options());
  if (!tier->server->Start().ok() || !tier->shipper->Start().ok()) {
    *error = "leader start failed";
    return nullptr;
  }

  tier->follower_kb = kb::core::KnowledgeBase::FromSnapshot(base);
  kb::server::KbServer::Options follower_options = options;
  follower_options.read_only = true;
  follower_options.applied_epoch_fn = [raw]() -> uint64_t {
    return raw->replica != nullptr ? raw->replica->applied_epoch() : 0;
  };
  tier->follower_server = std::make_unique<kb::server::KbServer>(
      tier->follower_kb.get(), follower_options);
  kb::replication::FollowerReplica::Options replica_options;
  replica_options.leader_repl_port = tier->shipper->port();
  replica_options.data_dir = dir + "/follower";
  auto replica = kb::replication::FollowerReplica::Open(
      replica_options, tier->follower_kb.get(), tier->follower_server.get());
  if (!replica.ok()) {
    *error = "follower: " + replica.status().ToString();
    return nullptr;
  }
  tier->replica = std::move(*replica);
  if (!tier->follower_server->Start().ok() || !tier->replica->Start().ok()) {
    *error = "follower start failed";
    return nullptr;
  }

  kb::replication::Router::Options router_options;
  router_options.leader_port = tier->server->port();
  router_options.replica_ports = {tier->follower_server->port()};
  tier->router = std::make_unique<kb::replication::Router>(router_options);
  if (!tier->router->Start().ok()) {
    *error = "router start failed";
    return nullptr;
  }
  return tier;
}

// ---------------------------------------------------------------- load

/// The schedule of one phase; the same seed gives the same requests.
Schedule MakeSchedule(const KeySets& keys, double read_rate,
                      double write_rate, double seconds, uint64_t seed,
                      std::unordered_set<uint64_t>* written) {
  Schedule s;
  s.seconds = seconds;
  kb::Rng rng(seed);
  kb::loadgen::ZipfianChooser cards(keys.cards.size());
  kb::loadgen::ZipfianChooser points(keys.points.size());
  kb::loadgen::ZipfianChooser scans(keys.scans.size());
  kb::loadgen::ZipfianChooser aggs(keys.aggs.size());
  const size_t n = static_cast<size_t>(read_rate * seconds);
  s.reads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.offset_s = static_cast<double>(i) / read_rate;
    const double u = rng.UniformDouble();
    if (u < kCardShare) {
      op.kind = kCard;
      op.key = static_cast<uint32_t>(cards.Next(rng));
    } else if (u < kCardShare + kPointShare) {
      op.kind = kPoint;
      op.key = static_cast<uint32_t>(points.Next(rng));
    } else if (u < kCardShare + kPointShare + kScanShare) {
      op.kind = kScan;
      op.key = static_cast<uint32_t>(scans.Next(rng));
    } else {
      op.kind = kAgg;
      op.key = static_cast<uint32_t>(aggs.Next(rng));
    }
    s.reads.push_back(op);
  }
  if (write_rate <= 0) return s;

  // Fresh worksFor facts: a Zipf-chosen person joins a uniformly chosen
  // company it does not work for yet. `written` holds the pairs other
  // schedules for the same tier already use.
  kb::loadgen::ZipfianChooser subjects(keys.write_subjects.size());
  const std::string works_for = "worksFor";
  const size_t batches = static_cast<size_t>(write_rate * seconds);
  for (size_t b = 0; b < batches; ++b) {
    Op op;
    op.offset_s = static_cast<double>(b) / write_rate;
    op.kind = kInsert;
    op.key = static_cast<uint32_t>(b);
    s.writes.push_back(op);
    Batch batch;
    while (batch.facts.size() < kBatchFacts) {
      const uint32_t person = keys.write_subjects[subjects.Next(rng)];
      const uint32_t company = keys.companies[rng.Uniform(keys.companies.size())];
      const uint64_t pair = (uint64_t{person} << 32) | company;
      if (keys.works_for.count(pair) > 0 || !written->insert(pair).second) {
        continue;
      }
      WireFact fact;
      fact.s = keys.names[person];
      fact.p = works_for;
      fact.o = keys.names[company];
      fact.confidence = 0.9;
      batch.facts.push_back(std::move(fact));
      batch.pairs.emplace_back(person, company);
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

/// Checks a reply against the key's expected result. In ingest, results
/// may hold up to as many extra rows as the writer has sent facts that
/// touch them.
bool CheckQuery(const Key& key, Kind kind, const kb::server::QueryResult& r,
                const Growth* growth, std::string* why) {
  size_t extra = 0;
  if (growth != nullptr && key.grows_with_writes) {
    if (kind == kPoint) extra = growth->by_subject[key.entity].load();
    if (kind == kScan) extra = growth->by_object[key.entity].load();
    if (kind == kAgg) extra = growth->total.load();
  }
  if (kind == kAgg) {
    if (r.rows.size() != key.rows || r.rows.front().empty()) {
      *why = "agg rows " + std::to_string(r.rows.size()) + " != " +
             std::to_string(key.rows);
      return false;
    }
    const int64_t top = std::atoll(r.rows.front().back().c_str());
    if (top < key.top || top > key.top + static_cast<int64_t>(extra)) {
      *why = "agg top " + std::to_string(top) + " expected " +
             std::to_string(key.top);
      return false;
    }
    return true;
  }
  if (r.rows.size() < key.rows || r.rows.size() > key.rows + extra) {
    *why = std::string(kKindName[kind]) + " rows " +
           std::to_string(r.rows.size()) + " expected " +
           std::to_string(key.rows) + ": " + key.text;
    return false;
  }
  return true;
}

/// Runs one connection's share of a schedule. Returns its results.
PhaseResult RunConnection(int port, const KeySets& keys, const Schedule& s,
                          bool writer, int index, int stride,
                          Clock::time_point start, Growth* growth,
                          bool traced) {
  PhaseResult out;
  KbClient client;
  if (!client.Connect(port).ok()) {
    out.first_wrong = "connect failed";
  }
  const std::vector<Op>& ops = writer ? s.writes : s.reads;
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s.seconds + kGraceSeconds));
  size_t seen_per_kind[kNumKinds] = {};
  size_t traced_per_kind[kNumKinds] = {};
  for (size_t i = static_cast<size_t>(index); i < ops.size();
       i += static_cast<size_t>(stride)) {
    const Op& op = ops[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(op.offset_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point send = Clock::now();
    if (send > give_up) {
      // The generator could not issue its schedule: the run is invalid.
      out.not_issued += (ops.size() - i + stride - 1) / stride;
      break;
    }
    if (!client.connected()) client.Connect(port);
    ++out.attempted;
    const LatClass cls = ClassOf(op.kind);
    bool ok = false;
    bool cached = false;
    kb::Status status;
    std::string why;
    if (op.kind == kInsert) {
      const Batch& batch = s.batches[op.key];
      for (const auto& [person, company] : batch.pairs) {
        growth->by_subject[person].fetch_add(1);
        growth->by_object[company].fetch_add(1);
        growth->total.fetch_add(1);
      }
      auto inserted = client.InsertFacts(batch.facts);
      status = inserted.status();
      if (inserted.ok()) {
        ok = *inserted == static_cast<int64_t>(batch.facts.size());
        if (ok) {
          out.acked.insert(out.acked.end(), batch.facts.begin(),
                           batch.facts.end());
        } else {
          why = "insert acknowledged " + std::to_string(*inserted) + " of " +
                std::to_string(batch.facts.size()) + " fresh facts";
        }
      }
    } else if (op.kind == kCard) {
      const Key& key = keys.cards[op.key];
      auto card = client.EntityCard(key.text);
      status = card.status();
      if (card.ok()) {
        ok = (*card)["canonical"].as_string() == key.text &&
             (*card)["display_name"].as_string() == key.display;
        if (!ok) why = "card " + key.text + " shows " +
                       (*card)["display_name"].as_string();
      }
    } else {
      const std::vector<Key>& list = op.kind == kPoint  ? keys.points
                                     : op.kind == kScan ? keys.scans
                                                        : keys.aggs;
      const Key& key = list[op.key];
      auto result = client.Query(key.text);
      status = result.status();
      if (result.ok()) {
        cached = result->cached;
        ok = CheckQuery(key, op.kind, *result, growth, &why);
      }
    }
    const Clock::time_point reply = Clock::now();
    if (!status.ok()) {
      if (status.IsUnavailable()) ++out.shed;
      why = status.ToString();
    }
    if (!ok) {
      ++out.failed;
      if (status.ok()) ++out.wrong;
      if (out.first_wrong.empty()) out.first_wrong = why;
      continue;
    }
    const double latency_ms = Ms(reply - due);
    out.latency[cls].Add(latency_ms);
    out.all.Add(latency_ms);
    out.late.Add(Ms(send - due));
    if (op.offset_s >= 0.75 * s.seconds) out.tail_late.Add(Ms(send - due));
    out.rtt[cls].Add(Ms(reply - send));
    ++out.replies[cls];
    if (cached) ++out.cached[cls];
    if (traced && seen_per_kind[op.kind]++ % kTraceEvery[op.kind] == 0 &&
        traced_per_kind[op.kind] < kTraceCap) {
      ++traced_per_kind[op.kind];
      Sampled sample;
      sample.kind = op.kind;
      sample.key = op.key;
      sample.send = send;
      sample.reply = reply;
      sample.cached = cached;
      sample.response = client.last_response();
      out.sampled.push_back(std::move(sample));
    }
  }
  return out;
}

/// Runs a whole schedule against `port`: at most 4 generator threads,
/// one connection each.
PhaseResult RunPhase(Tier* tier, const KeySets& keys, const Schedule& s,
                     bool traced, int readers) {
  const int port = tier->front_port();
  Growth* growth = tier->growth.get();
  const int writers = s.batches.empty() ? 0 : 1;
  KB_CHECK(readers + writers <= kMaxGeneratorThreads);
  KB_CHECK(readers + writers <= kMaxConnections);
  std::vector<PhaseResult> parts(static_cast<size_t>(readers + writers));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      parts[r] = RunConnection(port, keys, s, false, r, readers, start,
                               growth, traced);
    });
  }
  if (writers > 0) {
    threads.emplace_back([&] {
      parts[readers] = RunConnection(port, keys, s, true, 0, 1, start,
                                     growth, traced);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  for (PhaseResult& part : parts) result.Merge(std::move(part));
  return result;
}

/// Checks every acknowledged insert on the leader and the follower.
size_t MissingInserts(Tier* tier, const std::vector<WireFact>& acked) {
  size_t missing = 0;
  for (kb::core::KnowledgeBase* kb : {tier->kb.get(), tier->follower_kb.get()}) {
    const kb::rdf::Dictionary& dict = kb->store().dict();
    for (const WireFact& f : acked) {
      kb::rdf::Triple t(
          dict.Lookup(kb::rdf::Term::Iri(kb::rdf::EntityIri(f.s))),
          dict.Lookup(kb::rdf::Term::Iri(kb::rdf::PropertyIri(f.p))),
          dict.Lookup(kb::rdf::Term::Iri(kb::rdf::EntityIri(f.o))));
      if (t.s == kb::rdf::kInvalidTermId || t.p == kb::rdf::kInvalidTermId ||
          t.o == kb::rdf::kInvalidTermId || !kb->store().Contains(t)) {
        ++missing;
      }
    }
  }
  return missing;
}

// -------------------------------------------------------------- set-up

struct Setup {
  KeySets keys;
  /// The measured phase and the warm-up before it. Their writes are
  /// disjoint, so every insert either of them sends is fresh.
  Schedule main, warm;
  std::shared_ptr<const kb::rdf::FrameStore> base;
  std::unique_ptr<Tier> tier;
  double total_s = 0, generate_s = 0, prep_s = 0, load_s = 0,
         snapshot_write_s = 0, snapshot_open_s = 0, tier_s = 0;
};

double ReadRate(bool ingest) { return ingest ? kIngestReadRate : kReadRate; }
double WriteRate(bool ingest) { return ingest ? kIngestWriteRate : 0; }
int Readers(bool ingest) { return ingest ? kIngestReaders : kReadConnections; }

/// Warm-up: the fixed-rate mix on a fresh tier, checked but not
/// recorded.
void WarmUp(Setup* setup, bool ingest, Report* report) {
  PhaseResult warmed = RunPhase(setup->tier.get(), setup->keys, setup->warm,
                                false, Readers(ingest));
  if (warmed.failed > 0) {
    report->Fail("warm-up: " + std::to_string(warmed.failed) +
                 " failed requests, first: " + warmed.first_wrong);
  }
}

/// World generation, KB load, snapshot write and map, tier start and
/// warm-up. `error` is set when set-up itself failed; wrong warm-up
/// replies go to the report.
std::unique_ptr<Setup> RunSetup(const Args& args, bool ingest, int round,
                                Report* report, std::string* error) {
  auto setup = std::make_unique<Setup>();
  const Clock::time_point t0 = Clock::now();
  {
    kb::corpus::World world =
        kb::corpus::World::Generate(ServingWorldOptions(args.seed, kPersons));
    const Clock::time_point t1 = Clock::now();
    setup->generate_s = Seconds(t1 - t0);
    // The benchmark's own preparation (expected results, schedules) is
    // timed apart and left out of set-up time.
    setup->keys = BuildKeySets(world, args.seed);
    std::unordered_set<uint64_t> written;
    setup->main = MakeSchedule(setup->keys, ReadRate(ingest),
                               WriteRate(ingest), args.seconds,
                               args.seed ^ 0x1111, &written);
    setup->warm = MakeSchedule(setup->keys, ReadRate(ingest),
                               WriteRate(ingest), kWarmupSeconds,
                               args.seed ^ 0x3a3a, &written);
    const Clock::time_point t2 = Clock::now();
    setup->prep_s = Seconds(t2 - t1);

    auto loader = std::make_unique<kb::core::KnowledgeBase>();
    LoadKb(world, loader.get());
    const Clock::time_point t3 = Clock::now();
    setup->load_s = Seconds(t3 - t2);
    if (loader->NumTriples() != setup->keys.triples) {
      report->Fail("loaded " + std::to_string(loader->NumTriples()) +
                   " triples, expected " +
                   std::to_string(setup->keys.triples));
    }
    const std::string path =
        args.data_dir + "/kb-" + std::to_string(round) + ".kbsnap";
    kb::Status saved =
        kb::core::WriteKbSnapshot(kb::storage::Env::Default(), path, *loader);
    if (!saved.ok()) {
      *error = "snapshot write: " + saved.ToString();
      return nullptr;
    }
    setup->snapshot_write_s = Seconds(Clock::now() - t3);
    // The loader KB and the world are released here.
  }
  const Clock::time_point t4 = Clock::now();
  auto base = kb::core::OpenKbSnapshot(
      kb::storage::Env::Default(),
      args.data_dir + "/kb-" + std::to_string(round) + ".kbsnap");
  if (!base.ok()) {
    *error = "snapshot open: " + base.status().ToString();
    return nullptr;
  }
  setup->base = *base;
  const Clock::time_point t5 = Clock::now();
  setup->snapshot_open_s = Seconds(t5 - t4);
  setup->tier = Tier::Start(ingest, setup->base, setup->keys.entities,
                            args.data_dir + "/tier-setup", error);
  if (setup->tier == nullptr) return nullptr;
  setup->tier_s = Seconds(Clock::now() - t5);
  WarmUp(setup.get(), ingest, report);
  setup->total_s = Seconds(Clock::now() - t0) - setup->prep_s;
  return setup;
}

// ------------------------------------------------------------- tracing

struct LayerSamples {
  Samples other_us[kNumLat], response_kb[kNumLat];
  Samples exec_us[kNumLat], execute_us[kNumLat], binding_us[kNumLat];
  Samples parse_us, card_us;
  double dump_us = 0, dump_kb = 0, parse_reply_us = 0;
  double render_us = 0, render_rows = 0;
  double examined[kNumLat] = {}, produced[kNumLat] = {};
  uint64_t plan_hits = 0, plans = 0;
};

/// Replays sampled requests in-process against `kb`, recording each
/// call as a child span of the request's round-trip span.
void Replay(const std::vector<Sampled>& sampled, const KeySets& keys,
            const kb::core::KnowledgeBase& kb, Tracer* tracer,
            LayerSamples* out) {
  // The snapshot source must outlive the engine and its cursors.
  std::shared_ptr<const kb::rdf::TripleSource> source =
      kb.store().SnapshotSource();
  kb::query::QueryEngine ids_engine(source.get());
  uint64_t request = 0;
  size_t sink = 0;
  for (const Sampled& s : sampled) {
    ++request;
    const LatClass cls = ClassOf(s.kind);
    const int root = tracer->Add("server.rtt", request, -1, s.send, s.reply);
    // Reply serialization, both directions.
    Clock::time_point a = Clock::now();
    const std::string text = s.response.Dump();
    Clock::time_point b = Clock::now();
    auto reparsed = Json::Parse(text);
    Clock::time_point c = Clock::now();
    sink += reparsed.ok() ? 1 : 0;
    tracer->Add("server.json_dump", request, root, a, b);
    tracer->Add("server.json_parse", request, root, b, c);
    const double kb_size = static_cast<double>(text.size()) / 1024.0;
    out->dump_us += Us(b - a);
    out->parse_reply_us += Us(c - b);
    out->dump_kb += kb_size;
    out->response_kb[cls].Add(kb_size);

    if (s.kind == kCard) {
      a = Clock::now();
      auto card = kb::core::BuildEntityCard(kb, keys.cards[s.key].text);
      b = Clock::now();
      sink += card.ok() ? card->facts.size() : 0;
      tracer->Add("core.card", request, root, a, b);
      out->card_us.Add(Us(b - a));
    } else if (s.kind != kInsert) {
      const Key& key = s.kind == kPoint  ? keys.points[s.key]
                       : s.kind == kScan ? keys.scans[s.key]
                                         : keys.aggs[s.key];
      a = Clock::now();
      auto parsed = kb.ParseQuery(key.text);
      b = Clock::now();
      tracer->Add("core.parse", request, root, a, b);
      out->parse_us.Add(Us(b - a));
      if (parsed.ok() && !s.cached) {
        // Execute to Binding rows, then the id-only executor underneath.
        kb::query::QueryStats stats;
        a = Clock::now();
        std::vector<kb::query::Binding> rows =
            kb.Execute(*parsed, kb::query::ExecutionOptions(), &stats);
        b = Clock::now();
        const int execute = tracer->Add("core.execute", request, root, a, b);
        ++out->plans;
        if (stats.plan_cache_hit) ++out->plan_hits;
        Clock::time_point e0 = Clock::now();
        kb::query::Cursor cursor = ids_engine.Open(*parsed);
        kb::query::Row row;
        size_t produced = 0;
        while (cursor.Next(&row)) ++produced;
        Clock::time_point e1 = Clock::now();
        tracer->Add("query.exec", request, execute, e0, e1);
        out->examined[cls] += static_cast<double>(cursor.stats().intermediate_rows);
        out->produced[cls] += static_cast<double>(produced);
        out->exec_us[cls].Add(Us(e1 - e0));
        out->execute_us[cls].Add(Us(b - a));
        out->binding_us[cls].Add(Us(b - a) - Us(e1 - e0));
        // Term rendering, as the server renders result rows.
        std::string skip;
        if (parsed->agg.enabled()) {
          skip = parsed->agg.out_name.empty() ? "count" : parsed->agg.out_name;
        }
        const kb::rdf::Dictionary& dict = kb.store().dict();
        a = Clock::now();
        for (const kb::query::Binding& binding : rows) {
          for (const auto& [var, id] : binding) {
            if (var == skip || id == kb::rdf::kInvalidTermId) continue;
            const kb::rdf::Term& term = dict.term(id);
            sink += term.is_iri() ? kb::rdf::Abbreviate(term.value()).size()
                                  : term.value().size();
          }
        }
        b = Clock::now();
        tracer->Add("rdf.render", request, root, a, b);
        out->render_us += Us(b - a);
        out->render_rows += static_cast<double>(rows.size());
      }
    }
    out->other_us[cls].Add(tracer->SelfUs(root));
  }
  // Keeps the replayed results observable, so no call is optimized away.
  if (sink == 0) printf("  (replay produced no output)\n");
}

/// Round trips (us) of `n` entity cards, alternating two endpoints.
void RoundTrips(int port_a, int port_b, const std::string& entity, int n,
                Samples* a, Samples* b) {
  KbClient ca, cb;
  if (!ca.Connect(port_a).ok() || !cb.Connect(port_b).ok()) return;
  for (int i = 0; i < n; ++i) {
    Clock::time_point t0 = Clock::now();
    bool ok_a = ca.EntityCard(entity).ok();
    Clock::time_point t1 = Clock::now();
    bool ok_b = cb.EntityCard(entity).ok();
    Clock::time_point t2 = Clock::now();
    if (ok_a) a->Add(Us(t1 - t0));
    if (ok_b) b->Add(Us(t2 - t1));
  }
}

/// Per-class latency: the median and the highest of p99 / p95 / p90
/// that has at least ten samples beyond it.
void ReportClasses(PhaseResult& r, Report* report) {
  for (int c = 0; c < kNumLat; ++c) {
    Samples& lat = r.latency[c];
    if (lat.count() == 0) continue;
    const std::string name = kLatName[c];
    report->Set(name + "_p50_ms", lat.Quantile(0.5), "ms", lat.count());
    for (int pct : {99, 95, 90}) {
      if (lat.count() * (100 - pct) >= 1000) {
        report->Set(name + "_p" + std::to_string(pct) + "_ms",
                    lat.Quantile(pct / 100.0), "ms", lat.count());
        break;
      }
    }
  }
}

/// Highest offered rate (same mix) at which the open loop keeps its
/// schedule (no growing backlog: the median lateness of the last
/// quarter stays under a tenth of the limit) and p99 over all requests
/// stays under `limit_ms`, with no failed request. Rates climb
/// geometrically from twice the fixed rate; the bracket is then
/// bisected.
double MaxRps(const Args& args, bool ingest, Setup* setup, Report* report,
              int* probes) {
  const double limit_ms = ingest ? kIngestP99LimitMs : kReadP99LimitMs;
  const double write_share = WriteRate(ingest) / ReadRate(ingest);
  auto probe = [&](double rate) {
    ++*probes;
    std::unique_ptr<Tier> fresh;
    Tier* tier = setup->tier.get();
    if (ingest) {
      // Writes change the KB, so each probe gets its own tier.
      std::string error;
      fresh = Tier::Start(true, setup->base, setup->keys.entities,
                          args.data_dir + "/tier-probe", &error);
      if (fresh == nullptr) {
        report->Fail("probe tier: " + error);
        return std::make_pair(false, false);
      }
      tier = fresh.get();
    }
    std::unordered_set<uint64_t> written;
    Schedule s = MakeSchedule(setup->keys, rate, rate * write_share,
                              kProbeSeconds, args.seed ^ (0x9000 + *probes),
                              &written);
    PhaseResult r = RunPhase(tier, setup->keys, s, false, Readers(ingest));
    if (r.wrong > 0) report->Fail("probe: " + r.first_wrong);
    const double p99 = r.all.Quantile(0.99);
    const double tail_late = r.tail_late.Quantile(0.5);
    const bool kept = r.failed == 0 && r.not_issued == 0 &&
                      tail_late <= limit_ms / 10;
    printf("  probe %8.0f req/s: p99 %8.3f ms, late tail %7.3f ms, failed "
           "%llu -> %s\n",
           rate, p99, tail_late, static_cast<unsigned long long>(r.failed),
           kept && p99 <= limit_ms ? "pass" : "fail");
    return std::make_pair(kept, p99 <= limit_ms);
  };
  // A probe that kept its schedule but missed the p99 limit is run once
  // more: a single host stall can decide a one-second p99.
  auto passes = [&](double rate) {
    auto [kept, under_limit] = probe(rate);
    if (kept && !under_limit) std::tie(kept, under_limit) = probe(rate);
    return kept && under_limit;
  };
  double lo = 0, hi = 0;
  double rate = ReadRate(ingest) * kProbeStart;
  for (int k = 0; k < kMaxProbes; ++k, rate *= kProbeStep) {
    if (!passes(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  if (hi == 0) return lo;  // never failed within the ladder
  if (lo == 0) {
    // Even the first probe missed: step down until one passes.
    for (rate = hi / kProbeStep; rate > 1; rate /= kProbeStep) {
      if (passes(rate)) {
        lo = rate;
        break;
      }
      hi = rate;
    }
    if (lo == 0) return rate;
  }
  for (int i = 0; i < kBisections; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// `--trace 1`: repeats the measured phase, traced, on a fresh warmed
/// tier, replays the sampled requests through each layer's public
/// functions and reports the per-layer metrics.
int TraceRun(const Args& args, bool ingest, Setup* setup,
             double untraced_p50, Report* report) {
  const KeySets& keys = setup->keys;
  const int readers = Readers(ingest);
  setup->tier.reset();
  std::string error;
  setup->tier = Tier::Start(ingest, setup->base, keys.entities,
                            args.data_dir + "/tier-traced", &error);
  if (setup->tier == nullptr) {
    fprintf(stderr, "kbbench: traced tier: %s\n", error.c_str());
    return 1;
  }
  Tier* tier = setup->tier.get();
  WarmUp(setup, ingest, report);
  {
    std::lock_guard<std::mutex> lock(tier->append_mu);
    tier->append_us = Samples();
  }
  PhaseResult traced = RunPhase(tier, keys, setup->main, true, readers);
  if (traced.wrong > 0) {
    report->Fail("traced run: " + std::to_string(traced.wrong) +
                 " wrong replies, first: " + traced.first_wrong);
  }
  report->Set("trace.overhead_ms", traced.all.Quantile(0.5) - untraced_p50,
              "ms", traced.all.count());
  if (ingest) {
    if (!tier->WaitForFollower(10)) {
      report->Fail("follower did not catch up after the traced run");
    } else if (size_t missing = MissingInserts(tier, traced.acked)) {
      report->Fail(std::to_string(missing) +
                   " acknowledged inserts missing after the traced run");
    }
  }

  // Replays, on the quiesced KB that served the reads.
  Tracer tracer;
  LayerSamples layers;
  std::vector<Sampled> reads, writes;
  for (Sampled& s : traced.sampled) {
    (s.kind == kInsert ? writes : reads).push_back(std::move(s));
  }
  Replay(reads, keys, *tier->read_kb(), &tracer, &layers);
  for (int c = kLatPoint; c <= kLatAgg; ++c) {
    const std::string name = kLatName[c];
    report->Set("server.rtt_ms." + name, traced.rtt[c].Quantile(0.5), "ms",
                traced.rtt[c].count());
    report->Set("server.other_us." + name, layers.other_us[c].Quantile(0.5),
                "us", layers.other_us[c].count());
    report->Set("server.response_kb." + name, layers.response_kb[c].Mean(),
                "KB", layers.response_kb[c].count());
    report->Set("query.exec_us." + name, layers.exec_us[c].Quantile(0.5),
                "us", layers.exec_us[c].count());
    report->Set("core.execute_us." + name,
                layers.execute_us[c].Quantile(0.5), "us",
                layers.execute_us[c].count());
    if (c != kLatPoint) {
      report->Set("core.binding_us." + name,
                  layers.binding_us[c].Quantile(0.5), "us",
                  layers.binding_us[c].count());
      report->Set("query.rows_examined_per_row." + name,
                  layers.examined[c] / std::max(1.0, layers.produced[c]),
                  "ratio");
    }
  }
  report->Set("server.rtt_ms.insert", traced.rtt[kLatInsert].Quantile(0.5),
              "ms", traced.rtt[kLatInsert].count());
  report->Set("server.json_dump_us_per_kb",
              layers.dump_us / std::max(1e-9, layers.dump_kb), "us/KB");
  report->Set("server.json_parse_us_per_kb",
              layers.parse_reply_us / std::max(1e-9, layers.dump_kb), "us/KB");
  report->Set("core.parse_us", layers.parse_us.Quantile(0.5), "us",
              layers.parse_us.count());
  report->Set("query.plan_cache_hit_ratio",
              static_cast<double>(layers.plan_hits) /
                  std::max<uint64_t>(1, layers.plans),
              "ratio", layers.plans);
  report->Set("rdf.render_us_per_row",
              layers.render_us / std::max(1.0, layers.render_rows), "us");
  report->Set("core.card_us", layers.card_us.Quantile(0.5), "us",
              layers.card_us.count());

  // Transport: health round trips on the server that answers reads.
  {
    KbClient client;
    Samples health;
    if (client.Connect(tier->read_port()).ok()) {
      for (int i = 0; i < 300; ++i) {
        Clock::time_point a = Clock::now();
        if (client.Health().ok()) health.Add(Us(Clock::now() - a));
      }
    }
    report->Set("server.health_us", health.Quantile(0.5), "us",
                health.count());
  }

  if (ingest) {
    {
      std::lock_guard<std::mutex> lock(tier->append_mu);
      report->Set("storage.log_append_us", tier->append_us.Quantile(0.5),
                  "us", tier->append_us.count());
    }
    // The replayed writes go into a scratch KB booted from the same
    // snapshot, so the tier's KBs stay as the run left them.
    auto scratch = kb::core::KnowledgeBase::FromSnapshot(setup->base);
    Samples assert_us;
    for (const Sampled& s : writes) {
      for (const WireFact& f : setup->main.batches[s.key].facts) {
        kb::core::FactMeta meta;
        meta.confidence = f.confidence;
        Clock::time_point a = Clock::now();
        scratch->AssertFact(f.s, f.p, f.o, meta);
        assert_us.Add(Us(Clock::now() - a));
      }
    }
    report->Set("core.assert_us", assert_us.Quantile(0.5), "us",
                assert_us.count());
    // One hop: the same card through the router and straight to the
    // follower that serves it.
    Samples routed, direct;
    RoundTrips(tier->router->port(), tier->follower_server->port(),
               keys.cards.front().text, 300, &routed, &direct);
    report->Set("replication.hop_us",
                routed.Quantile(0.5) - direct.Quantile(0.5), "us",
                routed.count());
    // Visibility and publish cost of fresh batches on the quiet tier.
    std::unordered_set<uint64_t> written;
    Schedule extra =
        MakeSchedule(keys, 1, 20, 1.0, args.seed ^ 0x7777, &written);
    KbClient writer, watcher;
    Samples visible_ms, publish_us;
    if (writer.Connect(tier->router->port()).ok() &&
        watcher.Connect(tier->follower_server->port()).ok()) {
      for (const Batch& batch : extra.batches) {
        if (!writer.InsertFacts(batch.facts).ok()) continue;
        const Clock::time_point acked = Clock::now();
        const uint64_t epoch = writer.last_write_epoch();
        Clock::time_point a = Clock::now();
        tier->kb->store().Snapshot();
        publish_us.Add(Us(Clock::now() - a));
        for (int i = 0; i < 20000; ++i) {
          auto health = watcher.Health();
          if (health.ok() &&
              static_cast<uint64_t>((*health)["applied_epoch"].as_number()) >=
                  epoch) {
            visible_ms.Add(Ms(Clock::now() - acked));
            break;
          }
        }
      }
    }
    report->Set("replication.visible_ms", visible_ms.Quantile(0.5), "ms",
                visible_ms.count());
    report->Set("rdf.publish_us", publish_us.Quantile(0.5), "us",
                publish_us.count());
  }
  tracer.WriteTo(args.spans_path,
                 tracer.spans().empty() ? Clock::now()
                                        : tracer.spans().front().start);
  printf("  spans: %zu recorded\n", tracer.spans().size());
  return 0;
}

}  // namespace

int RunServing(const Args& args, bool ingest, Report* report) {
  std::filesystem::create_directories(args.data_dir);
  const int readers = Readers(ingest);

  // Set-up, repeated; the last one serves the run.
  std::unique_ptr<Setup> setup;
  std::vector<double> total, generate, load, write, open, start;
  for (int round = 0; round < kSetups; ++round) {
    setup.reset();
    std::string error;
    setup = RunSetup(args, ingest, round, report, &error);
    if (setup == nullptr) {
      fprintf(stderr, "kbbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    total.push_back(setup->total_s);
    generate.push_back(setup->generate_s);
    load.push_back(setup->load_s);
    write.push_back(setup->snapshot_write_s);
    open.push_back(setup->snapshot_open_s);
    start.push_back(setup->tier_s);
    printf("  set-up %d: %.3f s (generate %.3f, load %.3f, snapshot write "
           "%.3f, open %.3f, tier %.3f; expected results and schedules "
           "%.3f, not counted)\n",
           round + 1, setup->total_s, setup->generate_s, setup->load_s,
           setup->snapshot_write_s, setup->snapshot_open_s, setup->tier_s,
           setup->prep_s);
  }
  const KeySets& keys = setup->keys;
  if (keys.scans.empty() || keys.points.empty() || keys.aggs.empty()) {
    fprintf(stderr, "kbbench: refusing an empty key set\n");
    return 1;
  }
  for (const std::vector<Key>* list : {&keys.points, &keys.scans, &keys.aggs}) {
    for (const Key& key : *list) {
      if (key.rows == 0) {
        fprintf(stderr, "kbbench: refusing a key with an empty result: %s\n",
                key.text.c_str());
        return 1;
      }
    }
  }
  size_t scan_min = SIZE_MAX, scan_max = 0, point_max = 0;
  for (const Key& k : keys.scans) {
    scan_min = std::min(scan_min, k.rows);
    scan_max = std::max(scan_max, k.rows);
  }
  for (const Key& k : keys.points) point_max = std::max(point_max, k.rows);
  printf("  world: %zu persons, %zu entities, %zu triples; keys: %zu cards/"
         "points (<= %zu rows), %zu scans (%zu-%zu rows, %zu left out), %zu "
         "dashboards\n",
         kPersons, keys.entities, keys.triples, keys.cards.size(), point_max,
         keys.scans.size(), scan_min, scan_max, keys.scans_out_of_range,
         keys.aggs.size());
  printf("  load: %d connections, %.0f reads/s, %.0f write batches/s of %zu "
         "facts, mix card/point/scan/agg %.0f/%.0f/%.0f/%.0f %%\n",
         readers + (ingest ? 1 : 0), ReadRate(ingest), WriteRate(ingest),
         kBatchFacts,
         kCardShare * 100, kPointShare * 100, kScanShare * 100,
         (1 - kCardShare - kPointShare - kScanShare) * 100);

  report->Set("setup_s", Median(total), "s", total.size());
  report->Set("corpus.generate_s", Median(generate), "s", generate.size());
  report->Set("core.load_s", Median(load), "s", load.size());
  report->Set("core.snapshot_write_s", Median(write), "s", write.size());
  report->Set("core.snapshot_open_s", Median(open), "s", open.size());
  report->Set("server.tier_start_s", Median(start), "s", start.size());
  report->Set("rss_mb", ResidentMb(), "MB");

  // The measured phase at the fixed rates.
  Tier* tier = setup->tier.get();
  const size_t triples_start = tier->kb->NumTriples();
  const double cpu_start = CpuSeconds();
  PhaseResult r = RunPhase(tier, keys, setup->main, false, readers);
  const double cpu_s = CpuSeconds() - cpu_start;
  report->CountAttempted(r.attempted + r.not_issued);
  report->CountFailed(r.failed + r.not_issued);
  if (r.not_issued > 0) {
    report->Fail("INVALID run: " + std::to_string(r.not_issued) +
                 " scheduled requests were never issued");
  }
  if (r.wrong > 0) {
    report->Fail(std::to_string(r.wrong) + " wrong replies, first: " +
                 r.first_wrong);
  }
  if (ingest) {
    if (!tier->WaitForFollower(10)) report->Fail("follower did not catch up");
    const size_t missing = MissingInserts(tier, r.acked);
    if (missing > 0) {
      report->Fail(std::to_string(missing) +
                   " acknowledged inserts missing on leader or follower");
    }
  }
  const size_t triples_end = tier->kb->NumTriples();
  printf("  triples: %zu at start, %zu at end\n", triples_start, triples_end);
  ReportClasses(r, report);
  report->Set("p50_ms", r.all.Quantile(0.5), "ms", r.all.count());
  report->Set("p99_ms", r.all.Quantile(0.99), "ms", r.all.count());
  report->Set("cpu_us_per_request",
              cpu_s * 1e6 / std::max<uint64_t>(1, r.all.count()), "us",
              r.all.count());
  report->Set("error_ratio",
              static_cast<double>(r.failed) / std::max<uint64_t>(1, r.attempted),
              "ratio", r.attempted);
  report->Set("loadgen.late_p99_ms", r.late.Quantile(0.99), "ms",
              r.late.count());
  report->Set("server.shed_ratio",
              static_cast<double>(r.shed) / std::max<uint64_t>(1, r.attempted),
              "ratio", r.attempted);
  for (int c = kLatPoint; c <= kLatAgg; ++c) {
    report->Set(std::string("server.cache_hit_ratio.") + kLatName[c],
                static_cast<double>(r.cached[c]) /
                    std::max<uint64_t>(1, r.replies[c]),
                "ratio", r.replies[c]);
  }
  report->Set("rdf.delta_triples",
              static_cast<double>(triples_end - triples_start), "count");

  if (!args.trace) {
    int probes = 0;
    const double max_rps = MaxRps(args, ingest, setup.get(), report, &probes);
    report->Set("max_rps", max_rps, "req/s", static_cast<size_t>(probes));
    return 0;
  }

  return TraceRun(args, ingest, setup.get(), r.all.Quantile(0.5), report);
}

}  // namespace perfbench
