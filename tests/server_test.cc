// Serving-layer tests: protocol framing, endpoint semantics, the
// result cache's epoch invalidation, admission control, deadlines,
// range checks on numeric request fields, the request core
// (EventServer) under a gated handler, and a malformed-input fuzz
// pass. The concurrency tests drive one server from many client
// threads and are meant to run under TSan/ASan (the `serving` CI job),
// where the sanitizer is the oracle.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "server/event_loop.h"
#include "server/json.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "server/protocol.h"
#include "util/metrics_registry.h"

namespace kb {
namespace server {
namespace {

/// A small deterministic KB: three people at two companies, typed and
/// labeled, plus founding years.
core::KnowledgeBase MakeKb() {
  core::KnowledgeBase kb;
  kb.AssertSubclass("company", "organization");
  kb.AssertSubclass("person", "agent");
  for (const char* company : {"Acme_Corp", "Globex"}) {
    kb.AssertType(company, "company");
  }
  kb.AssertLabel("Acme_Corp", "Acme Corp", "en");
  kb.AssertYearFact("Acme_Corp", "foundedIn", 1947, {});
  core::FactMeta meta;
  meta.confidence = 0.9;
  kb.AssertType("Ada_Smith", "person");
  kb.AssertFact("Ada_Smith", "worksFor", "Acme_Corp", meta);
  kb.AssertType("Ben_Jones", "person");
  kb.AssertFact("Ben_Jones", "worksFor", "Acme_Corp", meta);
  kb.AssertType("Cleo_Ray", "person");
  kb.AssertFact("Cleo_Ray", "worksFor", "Globex", meta);
  return kb;
}

std::string WorksForQuery(const std::string& company) {
  return "SELECT ?p WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> <" +
         rdf::EntityIri(company) + "> . }";
}

/// Server + KB bundle with ephemeral port.
struct TestServer {
  explicit TestServer(KbServer::Options options = {})
      : kb(MakeKb()), server(&kb, options) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status;
  }
  ~TestServer() { server.Stop(); }

  KbClient Connect() {
    KbClient client;
    Status status = client.Connect(server.port());
    EXPECT_TRUE(status.ok()) << status;
    return client;
  }

  core::KnowledgeBase kb;
  KbServer server;
};

/// Raw connected socket for speaking deliberately broken protocol.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// ------------------------------------------------------------ endpoints

TEST(KbServerTest, HealthReportsKbShape) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->GetBool("healthy"));
  EXPECT_EQ(health->GetNumber("triples"), ts.kb.NumTriples());
  EXPECT_GT(health->GetNumber("epoch"), 0);
}

TEST(KbServerTest, QueryReturnsBoundRows) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto result = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->cached);
  ASSERT_EQ(result->columns, std::vector<std::string>{"p"});
  ASSERT_EQ(result->rows.size(), 2u);
  std::vector<std::string> people;
  for (const auto& row : result->rows) people.push_back(row[0]);
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Ada_Smith"),
            people.end());
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Ben_Jones"),
            people.end());
}

TEST(KbServerTest, RepeatedQueryHitsCacheWithIdenticalRows) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto cold = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cached);
  auto warm = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached);
  // The spliced cached envelope must decode to the same result.
  EXPECT_EQ(warm->columns, cold->columns);
  EXPECT_EQ(warm->rows, cold->rows);
}

TEST(KbServerTest, NoCacheFlagBypassesCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Query(WorksForQuery("Acme_Corp")).ok());
  auto again = client.Query(WorksForQuery("Acme_Corp"), -1, -1,
                            /*no_cache=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cached);
}

TEST(KbServerTest, EntityCardRendersFacts) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto card = client.EntityCard("Acme_Corp");
  ASSERT_TRUE(card.ok()) << card.status();
  EXPECT_EQ(card->GetString("canonical"), "Acme_Corp");
  EXPECT_EQ(card->GetString("display_name"), "Acme Corp");
  EXPECT_FALSE((*card)["facts"].items().empty());
  auto missing = client.EntityCard("Nobody_Here");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(KbServerTest, MetricsEndpointExposesRegistrySnapshot) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Health().ok());
  auto text = client.MetricsText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("server.requests"), std::string::npos);
}

// ------------------------------------------- write path + invalidation

TEST(KbServerTest, ReadAfterWriteSeesNewFactDespiteCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  // Warm the cache with the pre-write result.
  auto cold = client.Query(WorksForQuery("Globex"));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->rows.size(), 1u);
  ASSERT_TRUE(client.Query(WorksForQuery("Globex"))->cached);

  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  auto inserted = client.InsertFacts({fact});
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(*inserted, 1);

  // The write bumped the epoch, so the cached pre-write entry must not
  // be served: the very next read sees the new fact.
  auto fresh = client.Query(WorksForQuery("Globex"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cached);
  ASSERT_EQ(fresh->rows.size(), 2u);
  std::vector<std::string> people;
  for (const auto& row : fresh->rows) people.push_back(row[0]);
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Dee_Flynn"),
            people.end());
  // And the post-write result is cacheable under the new epoch.
  EXPECT_TRUE(client.Query(WorksForQuery("Globex"))->cached);
}

TEST(KbServerTest, InsertFactsSkipsMalformedEntries) {
  TestServer ts;
  KbClient client = ts.Connect();
  Json request = Json::Object();
  request.Set("op", Json::Str("insert_facts"));
  Json facts = Json::Array();
  Json good = Json::Object();
  good.Set("s", Json::Str("Eve_Gray"));
  good.Set("p", Json::Str("worksFor"));
  good.Set("o", Json::Str("Acme_Corp"));
  facts.Append(std::move(good));
  Json bad = Json::Object();
  bad.Set("s", Json::Str("NoPredicate"));
  facts.Append(std::move(bad));
  facts.Append(Json::Str("not even an object"));
  request.Set("facts", std::move(facts));
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->GetNumber("inserted"), 1);
  EXPECT_EQ(response->GetNumber("skipped"), 2);
}

// --------------------------------------------------- deadlines + caps

TEST(KbServerTest, ExpiredDeadlineReturnsPartialFreeError) {
  TestServer ts;
  KbClient client = ts.Connect();
  // deadline_ms = 0 expires before the first row is pulled, so this is
  // deterministic however fast the query is.
  auto result = client.Query(WorksForQuery("Acme_Corp"), /*deadline_ms=*/0);
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  // The error is partial-free: a retry without deadline sees full rows.
  auto retry = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->rows.size(), 2u);
}

TEST(KbServerTest, DeadlineErrorIsNeverCached) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Query(WorksForQuery("Acme_Corp"), 0).status()
                  .IsDeadlineExceeded());
  auto after = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cached);  // the failed attempt cached nothing
  EXPECT_EQ(after->rows.size(), 2u);
}

TEST(KbServerTest, MaxRowsTruncatesWithoutPoisoningCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto capped = client.Query(WorksForQuery("Acme_Corp"), -1, /*max_rows=*/1);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->truncated);
  EXPECT_EQ(capped->rows.size(), 1u);
  // A different row cap is a different cache key, and truncated
  // results are never cached, so the full query still sees all rows.
  auto full = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_EQ(full->rows.size(), 2u);
}

// ------------------------------------------ out-of-range number fields

/// A request whose one numeric field is out of range.
struct RangeCase {
  std::string field;
  Json request;
};

std::vector<RangeCase> RangeCases() {
  auto query = [](const char* field, double value) {
    Json request = Json::Object();
    request.Set("op", Json::Str("query"));
    request.Set("sparql", Json::Str(WorksForQuery("Acme_Corp")));
    request.Set(field, Json::Number(value));
    return RangeCase{field, request};
  };
  auto pagerank = [](const char* field, double value) {
    Json request = Json::Object();
    request.Set("op", Json::Str("analytics"));
    request.Set("job", Json::Str("pagerank"));
    request.Set(field, Json::Number(value));
    return RangeCase{field, request};
  };
  auto insert = [](const char* field, Json fact) {
    Json facts = Json::Array();
    facts.Append(std::move(fact));
    Json request = Json::Object();
    request.Set("op", Json::Str("insert_facts"));
    request.Set("facts", std::move(facts));
    return RangeCase{field, request};
  };
  Json card = Json::Object();
  card.Set("op", Json::Str("entity_card"));
  card.Set("entity", Json::Str("Acme_Corp"));
  card.Set("max_facts", Json::Number(1e300));
  Json year_fact = Json::Object();
  year_fact.Set("s", Json::Str("Zed_Null"));
  year_fact.Set("p", Json::Str("foundedIn"));
  year_fact.Set("year", Json::Number(1e12));
  year_fact.Set("support", Json::Number(-1));
  Json support_fact = Json::Object();
  support_fact.Set("s", Json::Str("Zed_Null"));
  support_fact.Set("p", Json::Str("worksFor"));
  support_fact.Set("o", Json::Str("Globex"));
  support_fact.Set("support", Json::Number(-1));
  return {
      query("min_epoch", 1e300),
      query("deadline_ms", 1e300),
      query("max_rows", 1e300),
      RangeCase{"max_facts", card},
      pagerank("top_k", 1e300),
      pagerank("iterations", 1e300),
      insert("year", year_fact),
      insert("support", support_fact),
  };
}

void PrintTo(const RangeCase& range_case, std::ostream* os) {
  *os << range_case.request.Dump();
}

class KbServerRangeTest : public ::testing::TestWithParam<RangeCase> {};

TEST_P(KbServerRangeTest, OutOfRangeNumberIsABadRequest) {
  TestServer ts;
  KbClient client = ts.Connect();
  const uint64_t epoch = ts.kb.epoch();
  auto response = client.Call(GetParam().request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
  const std::string expected = "bad_request: " + GetParam().field;
  EXPECT_NE(response.status().message().find(expected), std::string::npos)
      << response.status();
  EXPECT_EQ(ts.kb.epoch(), epoch) << "a rejected request changed the KB";
  EXPECT_TRUE(client.Health().ok());  // the connection survives
}

std::string RangeCaseName(const ::testing::TestParamInfo<RangeCase>& info) {
  return info.param.field;
}

INSTANTIATE_TEST_SUITE_P(Fields, KbServerRangeTest,
                         ::testing::ValuesIn(RangeCases()), RangeCaseName);

TEST(KbServerTest, NegativeNumbersKeepTheirMeaning) {
  KbServer::Options options;
  options.default_max_rows = 1;
  TestServer ts(options);
  KbClient client = ts.Connect();
  Json request = Json::Object();
  request.Set("op", Json::Str("query"));
  request.Set("sparql", Json::Str(WorksForQuery("Acme_Corp")));
  request.Set("no_cache", Json::Bool(true));
  // A negative max_rows asks for the server default (1 here).
  request.Set("max_rows", Json::Number(-1));
  auto capped = client.Call(request);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->GetNumber("row_count"), 1);
  // A negative deadline_ms means none, however large its magnitude.
  request.Set("max_rows", Json::Number(0));  // 0: unlimited
  request.Set("deadline_ms", Json::Number(-1e300));
  auto full = client.Call(request);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->GetNumber("row_count"), 2);

  // A negative max_facts asks for the card's default.
  auto card = client.EntityCard("Acme_Corp");
  ASSERT_TRUE(card.ok()) << card.status();
  Json card_request = Json::Object();
  card_request.Set("op", Json::Str("entity_card"));
  card_request.Set("entity", Json::Str("Acme_Corp"));
  card_request.Set("max_facts", Json::Number(-1e300));
  auto negative_card = client.Call(card_request);
  ASSERT_TRUE(negative_card.ok()) << negative_card.status();
  EXPECT_EQ((*negative_card)["facts"].items().size(),
            (*card)["facts"].items().size());

  // A negative top_k asks for the default top list; a negative
  // iterations runs none.
  auto pagerank = client.Analytics("pagerank", 0, false, /*no_cache=*/true);
  ASSERT_TRUE(pagerank.ok()) << pagerank.status();
  Json pagerank_request = Json::Object();
  pagerank_request.Set("op", Json::Str("analytics"));
  pagerank_request.Set("job", Json::Str("pagerank"));
  pagerank_request.Set("no_cache", Json::Bool(true));
  pagerank_request.Set("top_k", Json::Number(-1e300));
  pagerank_request.Set("iterations", Json::Number(-1e300));
  auto negative_pagerank = client.Call(pagerank_request);
  ASSERT_TRUE(negative_pagerank.ok()) << negative_pagerank.status();
  EXPECT_EQ((*negative_pagerank)["top"].items().size(),
            (*pagerank)["top"].items().size());
  EXPECT_EQ(negative_pagerank->GetNumber("iterations"), 0);
}

// ---------------------------------------------------- admission control

TEST(KbServerTest, QueueFullConnectionsAreShedWithRetryHint) {
  KbServer::Options options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 7;
  TestServer ts(options);

  // One worker plus a queue of one derives a connection cap of two.
  // A full round trip proves the first connection is admitted.
  KbClient busy = ts.Connect();
  ASSERT_TRUE(busy.Health().ok());
  // The second admitted connection fills the cap.
  KbClient queued;
  ASSERT_TRUE(queued.Connect(ts.server.port()).ok());
  // Give an I/O thread a moment to accept it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Now the cap is reached: further connections must be rejected
  // promptly with the overload envelope, not left hanging.
  uint64_t rejected_before =
      MetricsRegistry::Default().Snapshot().counter("server.rejected");
  KbClient shed;
  ASSERT_TRUE(shed.Connect(ts.server.port()).ok());
  auto result = shed.Health();
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  EXPECT_EQ(shed.retry_after_ms(), 7);
  EXPECT_FALSE(shed.connected());  // shed connections are closed
  EXPECT_GT(MetricsRegistry::Default().Snapshot().counter("server.rejected"),
            rejected_before);

  // The admitted clients still work.
  EXPECT_TRUE(busy.Health().ok());
}

// -------------------------------------------------------- malformed input

TEST(KbServerFuzzTest, OversizedLengthPrefixIsRejectedNotTrusted) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  // Claim a 4 GiB frame; the server must refuse to allocate it.
  unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, header, 4, 0), 4);
  std::string response;
  Status status = ReadFrame(fd, &response);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(response.find("bad_frame"), std::string::npos);
  ::close(fd);
  // Server survives.
  EXPECT_TRUE(ts.Connect().Health().ok());
}

TEST(KbServerFuzzTest, TruncatedJsonGetsErrorAndConnectionSurvives) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"health\",").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("bad_request"), std::string::npos);
  // Framing was intact, so the connection stays usable.
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"health\"}").ok());
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"healthy\":true"), std::string::npos);
  ::close(fd);
}

TEST(KbServerFuzzTest, UnknownEndpointIsAnErrorNotACrash) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"drop_all_tables\"}").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("unknown_endpoint"), std::string::npos);
  ::close(fd);
}

TEST(KbServerFuzzTest, GarbageAndTornFramesNeverKillTheServer) {
  TestServer ts;
  const std::vector<std::string> raw_payloads = {
      std::string("\x00\x00\x00\x05nope", 9),     // frame, garbage JSON
      std::string("\x00\x00\x00\x10{\"op\":", 11),  // torn frame, then close
      std::string("\x00\x00\x00\x00", 4),          // zero-length frame
      std::string("junkjunkjunkjunk"),              // huge bogus prefix
      std::string("\x7f", 1),                      // torn header
  };
  for (const std::string& raw : raw_payloads) {
    int fd = RawConnect(ts.server.port());
    ASSERT_EQ(::send(fd, raw.data(), raw.size(), 0),
              static_cast<ssize_t>(raw.size()));
    ::close(fd);  // hang up however the server was mid-parse
  }
  // Deep JSON nesting must hit the parser's depth limit, not the stack.
  std::string deep(2000, '[');
  deep += std::string(2000, ']');
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, deep).ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("bad_request"), std::string::npos);
  ::close(fd);
  EXPECT_TRUE(ts.Connect().Health().ok());
}

// ------------------------------------------------------------ concurrency

TEST(KbServerConcurrencyTest, EightClientThreadsMixedWorkload) {
  KbServer::Options options;
  options.num_workers = 8;
  options.queue_depth = 64;
  TestServer ts(options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> unavailable{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KbClient client;
      if (!client.Connect(ts.server.port()).ok()) return;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Status status;
        switch ((t + i) % 4) {
          case 0:
            status = client.Query(WorksForQuery("Acme_Corp")).status();
            break;
          case 1:
            status = client.EntityCard("Acme_Corp").status();
            break;
          case 2: {
            WireFact fact;
            fact.s = "Writer_" + std::to_string(t);
            fact.p = "worksFor";
            fact.o = (i % 2) == 0 ? "Acme_Corp" : "Globex";
            fact.support = 1;
            status = client.InsertFacts({fact}).status();
            break;
          }
          default:
            status = client.Health().status();
        }
        if (status.ok()) {
          ok_count.fetch_add(1);
        } else if (status.IsUnavailable()) {
          // Admission control may shed under this burst; back off and
          // reconnect as the protocol intends.
          unavailable.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(client.retry_after_ms()));
          if (!client.Connect(ts.server.port()).ok()) return;
        } else {
          ADD_FAILURE() << "unexpected status: " << status;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok_count.load(), kThreads * kRequestsPerThread / 2);
  // Every writer thread's facts are queryable afterwards.
  KbClient client = ts.Connect();
  auto result = client.Query(WorksForQuery("Acme_Corp"), -1, -1,
                             /*no_cache=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rows.size(), 2u);
}

TEST(KbServerConcurrencyTest, StopWhileClientsAreConnectedIsClean) {
  auto ts = std::make_unique<TestServer>();
  std::vector<KbClient> clients(4);
  for (auto& client : clients) {
    ASSERT_TRUE(client.Connect(ts->server.port()).ok());
    ASSERT_TRUE(client.Health().ok());
  }
  // Destroys the server while clients hold live connections; Stop()
  // must close them all and join every thread.
  ts.reset();
  for (auto& client : clients) {
    EXPECT_FALSE(client.Health().ok());  // connection was shut down
  }
}


// --------------------------------------------------- client-side retry

TEST(KbClientRetryTest, RetryAbsorbsOverloadShedsHonoringHint) {
  // A raw fake server: shed the first two connections with an
  // overloaded envelope carrying a retry_after_ms hint, then serve a
  // real health response — fully deterministic overload.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  constexpr int kHintMs = 40;
  std::thread fake([listen_fd] {
    for (int conn = 0; conn < 3; ++conn) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::string payload;
      if (!ReadFrame(fd, &payload).ok()) {
        ::close(fd);
        continue;
      }
      Json response = Json::Object();
      if (conn < 2) {
        response.Set("status", Json::Str("overloaded"));
        response.Set("error", Json::Str("overloaded"));
        response.Set("retry_after_ms", Json::Number(kHintMs));
        WriteFrame(fd, response.Dump());
        ::close(fd);  // sheds drop the connection, like the real server
      } else {
        response.Set("status", Json::Str("ok"));
        response.Set("healthy", Json::Bool(true));
        WriteFrame(fd, response.Dump());
        ::close(fd);
      }
    }
  });

  ClientOptions options;
  options.retry_unavailable = true;
  options.retry.max_attempts = 4;
  options.retry.base_backoff_ms = 1;  // the hint must dominate
  KbClient client(options);
  ASSERT_TRUE(client.Connect(port).ok());
  auto start = std::chrono::steady_clock::now();
  auto health = client.Health();
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(health.ok()) << health.status();
  // Two sheds, each with a kHintMs hint the sleep must not undercut.
  EXPECT_GE(elapsed.count(), 2.0 * kHintMs);

  fake.join();
  ::close(listen_fd);
}

TEST(KbClientRetryTest, WithoutOptInShedsSurfaceImmediately) {
  KbServer::Options options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 9;
  TestServer ts(options);
  KbClient busy = ts.Connect();
  ASSERT_TRUE(busy.Health().ok());
  KbClient queued;
  ASSERT_TRUE(queued.Connect(ts.server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  KbClient plain;  // default options: no retry
  ASSERT_TRUE(plain.Connect(ts.server.port()).ok());
  auto result = plain.Health();
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  EXPECT_EQ(plain.retry_after_ms(), 9);
}

// ------------------------------------------------------- graceful drain

TEST(KbServerDrainTest, DrainStopsAcceptingAndFinishesInFlight) {
  auto ts = std::make_unique<TestServer>();
  const int port = ts->server.port();
  KbClient client = ts->Connect();
  ASSERT_TRUE(client.Health().ok());
  client.Close();  // no connections left: drain should be instant

  auto start = std::chrono::steady_clock::now();
  ts->server.Drain(/*timeout_ms=*/2000);
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 1000.0) << "drain of an idle server dawdled";

  // Fully stopped: new connections are refused outright.
  KbClient late;
  EXPECT_FALSE(late.Connect(port).ok());
}

TEST(KbServerDrainTest, DrainTimeoutBoundsIdleConnections) {
  auto ts = std::make_unique<TestServer>();
  // An idle persistent connection holds no in-flight request; drain
  // waits for it only up to the timeout, then force-stops.
  KbClient idle = ts->Connect();
  ASSERT_TRUE(idle.Health().ok());
  // The Health() response was flushed before it returned, so nothing
  // is in flight here and drain has no response to close the
  // connection after; the pause lets the server go quiet first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto start = std::chrono::steady_clock::now();
  ts->server.Drain(/*timeout_ms=*/100);
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 90.0);
  EXPECT_LT(elapsed.count(), 2000.0);
  EXPECT_FALSE(idle.Health().ok());  // connection was shut down
}

// ------------------------------------------------ event core / pipelining

/// Wire framing for raw-socket tests: 4-byte big-endian length prefix.
std::string Framed(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out;
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out += payload;
  return out;
}

TEST(KbServerPipelineTest, ByteDribbledFramesParseAcrossArbitrarySplits) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  // Two pipelined requests delivered one byte at a time: the server's
  // incremental parser must reassemble frames across every possible
  // read boundary, including headers torn mid-length.
  std::string stream =
      Framed("{\"op\":\"health\"}") + Framed("{\"op\":\"metrics\"}");
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(::send(fd, stream.data() + i, 1, 0), 1);
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"healthy\":true"), std::string::npos);
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("server.requests"), std::string::npos);
  ::close(fd);
}

TEST(KbServerPipelineTest, PipelinedFramesAnswerStrictlyInOrder) {
  KbServer::Options options;
  options.num_workers = 4;  // workers race; the flush order must not
  options.queue_depth = 64;  // hold the whole burst without shedding
  TestServer ts(options);
  const auto before = MetricsRegistry::Default().Snapshot();
  int fd = RawConnect(ts.server.port());
  // Each request's op name is its schedule position, and the error
  // response echoes it back — so response order proves sequencing.
  constexpr int kFrames = 32;
  std::string stream;
  for (int i = 0; i < kFrames; ++i) {
    stream += Framed("{\"op\":\"probe_" + std::to_string(i) + "\"}");
  }
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  for (int i = 0; i < kFrames; ++i) {
    std::string response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok()) << "frame " << i;
    EXPECT_NE(response.find("no such op: probe_" + std::to_string(i)),
              std::string::npos)
        << "out-of-order response at " << i << ": " << response;
  }
  const auto after = MetricsRegistry::Default().Snapshot();
  EXPECT_GT(after.counter("server.pipelined_frames"),
            before.counter("server.pipelined_frames"));
  EXPECT_GT(after.counter("server.epoll_wakeups"),
            before.counter("server.epoll_wakeups"));
  EXPECT_GE(after.gauge("server.open_connections"), 1);
  ::close(fd);
}

TEST(KbServerEventCoreTest, RequestShedWhenQueueFullClosesAfterHint) {
  KbServer::Options options;
  options.queue_depth = 0;  // every request sheds at admission
  options.retry_after_ms = 7;
  TestServer ts(options);
  int fd = RawConnect(ts.server.port());
  // Pipeline three requests: the first one's shed response carries the
  // hint and closes the connection, dropping the two behind it.
  std::string stream;
  for (int i = 0; i < 3; ++i) stream += Framed("{\"op\":\"health\"}");
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(response.find("\"retry_after_ms\":7"), std::string::npos);
  Status eof = ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsAborted()) << eof;  // clean close, no more frames
  ::close(fd);
}

TEST(KbServerEventCoreTest, ConnectionCapShedsExcessAccepts) {
  KbServer::Options options;
  options.max_connections = 2;
  options.retry_after_ms = 9;
  TestServer ts(options);
  KbClient a = ts.Connect();
  ASSERT_TRUE(a.Health().ok());
  KbClient b = ts.Connect();
  ASSERT_TRUE(b.Health().ok());

  KbClient c;
  ASSERT_TRUE(c.Connect(ts.server.port()).ok());  // TCP-level accept
  auto shed = c.Health();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_EQ(c.retry_after_ms(), 9);

  // Capacity frees once an admitted connection goes away.
  a.Close();
  bool readmitted = false;
  for (int i = 0; i < 200 && !readmitted; ++i) {
    KbClient d;
    readmitted = d.Connect(ts.server.port()).ok() && d.Health().ok();
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(readmitted);
}

TEST(KbServerEventCoreTest, IdleConnectionsAreReapedAndKeepAliveRecovers) {
  KbServer::Options options;
  options.idle_timeout_ms = 60;
  TestServer ts(options);
  const uint64_t reaped_before =
      MetricsRegistry::Default().Snapshot().counter("server.idle_closed");

  // Without the opt-in, the reap surfaces as a typed ConnectionClosed —
  // not IOError — so callers can tell "reconnect" from "torn read".
  KbClient bare;
  ASSERT_TRUE(bare.Connect(ts.server.port()).ok());
  ASSERT_TRUE(bare.Health().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto closed = bare.Health();
  ASSERT_FALSE(closed.ok());
  EXPECT_TRUE(closed.status().IsConnectionClosed()) << closed.status();
  EXPECT_GT(MetricsRegistry::Default().Snapshot().counter(
                "server.idle_closed"),
            reaped_before);

  // With reconnect_on_close the same sequence just works.
  ClientOptions keep_alive;
  keep_alive.reconnect_on_close = true;
  KbClient client(keep_alive);
  ASSERT_TRUE(client.Connect(ts.server.port()).ok());
  ASSERT_TRUE(client.Health().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(client.Health().ok());
}

// ------------------------------------------------------ the request core

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// RawConnect with a 10 s receive timeout, so a response or a close
/// that never comes fails the test instead of hanging it.
int TimedConnect(int port) {
  int fd = RawConnect(port);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// An EventServer whose handler parks every request at a gate until
/// the test opens it, so admission decisions are deterministic. The
/// handler echoes its payload, or throws for the payload "throw".
struct GatedCore {
  explicit GatedCore(const EventServerOptions& options)
      : server(options, Instruments(),
               std::bind_front(&GatedCore::Handle, this)) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status;
  }
  ~GatedCore() {
    Open();  // never strand a worker at the gate
    server.Stop();
  }

  EventServerMetrics Instruments() {
    EventServerMetrics m;
    m.rejected = &rejected;
    m.errors = &errors;
    m.queue_depth = &queue_depth;
    return m;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  std::string Handle(const std::string& payload) {
    entered.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return open; });
    }
    if (payload == "throw") throw std::runtime_error("handler blew up");
    return "echo:" + payload;
  }

  Counter rejected;
  Counter errors;
  Gauge queue_depth;
  std::atomic<int> entered{0};
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;  ///< guarded by mu
  EventServer server;
};

TEST(EventServerTest, QueueFullShedsWithHintAfterTheInOrderFlush) {
  EventServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 7;
  GatedCore core(options);
  int fd = TimedConnect(core.server.port());
  const std::string first = Framed("1");
  ASSERT_EQ(::send(fd, first.data(), first.size(), 0),
            static_cast<ssize_t>(first.size()));
  ASSERT_TRUE(WaitFor([&] { return core.entered.load() == 1; }));
  // Frame 1 holds the only worker, frame 2 takes the only queue slot,
  // frame 3 finds the queue full.
  const std::string rest = Framed("2") + Framed("3");
  ASSERT_EQ(::send(fd, rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  ASSERT_TRUE(WaitFor([&] { return core.rejected.value() == 1; }));
  EXPECT_EQ(core.queue_depth.value(), 1);

  // The shed answer waits its turn behind the two admitted frames.
  core.Open();
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_EQ(response, "echo:1");
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_EQ(response, "echo:2");
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(response.find("\"retry_after_ms\":7"), std::string::npos);
  Status eof = ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsAborted()) << eof;  // closed right after the hint
  EXPECT_EQ(core.errors.value(), 0u);
  ::close(fd);
}

TEST(EventServerTest, ThrowingHandlerAnswersInternal) {
  GatedCore core(EventServerOptions{});
  core.Open();
  int fd = TimedConnect(core.server.port());
  ASSERT_TRUE(WriteFrame(fd, "throw").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"error\":\"internal\""), std::string::npos);
  EXPECT_NE(response.find("handler blew up"), std::string::npos);
  EXPECT_EQ(core.errors.value(), 1u);
  // Only that request failed; the connection and the worker live on.
  ASSERT_TRUE(WriteFrame(fd, "next").ok());
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_EQ(response, "echo:next");
  ::close(fd);
}

TEST(EventServerTest, DrainClosesAConnectionRightAfterItsNextResponse) {
  EventServerOptions options;
  options.num_workers = 1;
  options.max_connections = 64;  // only the drain may shed here
  GatedCore core(options);
  int fd = TimedConnect(core.server.port());
  ASSERT_TRUE(WriteFrame(fd, "in-flight").ok());
  ASSERT_TRUE(WaitFor([&] { return core.entered.load() == 1; }));

  auto start = std::chrono::steady_clock::now();
  std::thread drainer([&] { core.server.Drain(/*timeout_ms=*/5000); });
  // Once draining, a fresh accept is shed with the overload envelope.
  bool shedding = WaitFor([&] {
    int probe = RawConnect(core.server.port());
    pollfd pfd{probe, POLLIN, 0};
    std::string response;
    bool shed = false;
    if (::poll(&pfd, 1, 20) == 1 && ReadFrame(probe, &response).ok()) {
      shed = response.find("overloaded") != std::string::npos;
    }
    ::close(probe);
    return shed;
  });
  EXPECT_TRUE(shedding);

  core.Open();
  std::string response;
  EXPECT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_EQ(response, "echo:in-flight");
  Status eof = ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsAborted()) << eof;  // closed right after the response
  ::close(fd);
  drainer.join();
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 4000.0)
      << "drain waited out its timeout instead of the last connection";
}

// ------------------------------------------------------------ analytics

TEST(KbServerAnalyticsTest, PageRankAndClassStatsRunOverTheWire) {
  TestServer ts;
  KbClient client = ts.Connect();

  auto pagerank = client.Analytics("pagerank");
  ASSERT_TRUE(pagerank.ok()) << pagerank.status();
  EXPECT_FALSE(pagerank->GetBool("cached"));
  // worksFor contributes the only entity->entity edges (type/subclass/
  // label are excluded, foundedIn's literal object is filtered).
  EXPECT_EQ(pagerank->GetNumber("edges"), 3);
  EXPECT_GT(pagerank->GetNumber("nodes"), 0);
  ASSERT_GT((*pagerank)["top"].items().size(), 0u);
  // Acme has two in-links, every other node at most one.
  EXPECT_EQ((*pagerank)["top"].items()[0].GetString("entity"),
            "kb:Acme_Corp");

  auto stats = client.Analytics("class_stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->GetNumber("entities"), 5);  // 3 people + 2 companies
  // person, company, and their superclasses agent, organization.
  EXPECT_EQ(stats->GetNumber("classes"), 4);
  bool agent_rolled_up = false;
  for (const Json& entry : (*stats)["top"].items()) {
    if (entry.GetString("class") == "kbc:agent") {
      agent_rolled_up = entry.GetNumber("count") == 3;
    }
  }
  EXPECT_TRUE(agent_rolled_up);

  auto bad = client.Analytics("centrality");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(KbServerAnalyticsTest, ResultIsCachedUntilAWriteLands) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Analytics("pagerank").ok());
  auto warm = client.Analytics("pagerank");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->GetBool("cached"));
  // Different job shape: separate entry, not a collision.
  auto other_k = client.Analytics("pagerank", /*top_k=*/3);
  ASSERT_TRUE(other_k.ok());
  EXPECT_FALSE(other_k->GetBool("cached"));
  // no_cache bypasses.
  auto bypass = client.Analytics("pagerank", 0, false, /*no_cache=*/true);
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass->GetBool("cached"));

  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  ASSERT_TRUE(client.InsertFacts({fact}).ok());

  // Read-after-write: the insert bumped the epoch, so the pre-write
  // analytics entry must not be served — and the fresh run sees the
  // new edge.
  auto fresh = client.Analytics("pagerank");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->GetBool("cached"));
  EXPECT_EQ(fresh->GetNumber("edges"), 4);
}

TEST(KbServerAnalyticsTest, InsertBackMakesScoresQueryable) {
  TestServer ts;
  KbClient client = ts.Connect();
  uint64_t epoch_before = ts.kb.epoch();
  auto run = client.Analytics("pagerank", /*top_k=*/2, /*insert=*/true);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->GetNumber("inserted"), 2);
  EXPECT_GT(ts.kb.epoch(), epoch_before);

  // The materialized scores are ordinary facts: SPARQL finds them.
  auto rows = client.Query("SELECT ?e WHERE { ?e <" +
                           rdf::PropertyIri("pagerankScore") + "> ?s . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 2u);

  // An inserting run mutates the KB, so it must never be served from
  // the cache even when repeated back-to-back.
  auto again = client.Analytics("pagerank", 2, true);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->GetBool("cached"));

  // read_only followers reject the mutation.
  KbServer::Options follower_options;
  follower_options.read_only = true;
  TestServer follower(follower_options);
  KbClient fclient = follower.Connect();
  auto denied = fclient.Analytics("pagerank", 2, true);
  EXPECT_TRUE(denied.status().IsUnavailable());
  EXPECT_TRUE(fclient.Analytics("pagerank").ok());
}

TEST(KbServerAnalyticsTest, AggregateQueriesFlowThroughCacheAndEpochs) {
  TestServer ts;
  KbClient client = ts.Connect();
  const std::string agg_sparql =
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <" +
      rdf::PropertyIri("worksFor") + "> ?c . } GROUP BY ?c";

  auto cold = client.Query(agg_sparql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->columns, (std::vector<std::string>{"c", "n"}));
  ASSERT_EQ(cold->rows.size(), 2u);
  std::map<std::string, std::string> counts;
  for (const auto& row : cold->rows) counts[row[0]] = row[1];
  EXPECT_EQ(counts["kb:Acme_Corp"], "2");
  EXPECT_EQ(counts["kb:Globex"], "1");
  EXPECT_TRUE(client.Query(agg_sparql)->cached);

  // Insert invalidates the cached aggregate; the next read recounts.
  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  ASSERT_TRUE(client.InsertFacts({fact}).ok());
  auto fresh = client.Query(agg_sparql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cached);
  counts.clear();
  for (const auto& row : fresh->rows) counts[row[0]] = row[1];
  EXPECT_EQ(counts["kb:Globex"], "2");
}

TEST(KbServerAnalyticsTest, AggregateShapesGetDistinctCacheEntries) {
  // Regression: a plain query, its aggregate, and two top-k variants
  // share a WHERE clause — none may collide in the result cache.
  TestServer ts;
  KbClient client = ts.Connect();
  const std::string where =
      " WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> ?c . }";
  const std::string plain = "SELECT ?c" + where;
  const std::string agg =
      "SELECT ?c (COUNT(?p) AS ?n)" + where + " GROUP BY ?c";
  const std::string top1 = agg + " ORDER BY DESC(?n) LIMIT 1";
  const std::string top2 = agg + " ORDER BY DESC(?n) LIMIT 2";

  ASSERT_TRUE(client.Query(plain).ok());
  auto agg_cold = client.Query(agg);
  ASSERT_TRUE(agg_cold.ok());
  EXPECT_FALSE(agg_cold->cached);  // plain's entry must not be served
  EXPECT_EQ(agg_cold->rows.size(), 2u);

  auto top1_cold = client.Query(top1);
  ASSERT_TRUE(top1_cold.ok());
  EXPECT_FALSE(top1_cold->cached);  // differs from the un-k'd aggregate
  ASSERT_EQ(top1_cold->rows.size(), 1u);
  EXPECT_EQ(top1_cold->rows[0][0], "kb:Acme_Corp");

  auto top2_cold = client.Query(top2);
  ASSERT_TRUE(top2_cold.ok());
  EXPECT_FALSE(top2_cold->cached);  // k is part of the key
  EXPECT_EQ(top2_cold->rows.size(), 2u);

  // Each shape is individually cached under its own key.
  EXPECT_TRUE(client.Query(plain)->cached);
  EXPECT_TRUE(client.Query(agg)->cached);
  EXPECT_TRUE(client.Query(top1)->cached);
  EXPECT_TRUE(client.Query(top2)->cached);
}

// ----------------------------------------------------------- checkpoint

TEST(KbServerCheckpointTest, CheckpointUnderConcurrentReadsIsSafe) {
  // The serve_main background checkpointer in miniature: queries and
  // inserts in flight while WithWriteLock + KbVolume::Checkpoint
  // move-assigns the KB. The shared lock held across the whole read
  // path is what makes this safe; TSan is the oracle for the rest.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "kbforge_server_ckpt")
                        .string();
  std::filesystem::remove_all(dir);
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok()) << volume.status();

  TestServer ts;
  ASSERT_TRUE((*volume)->SaveDelta(ts.kb).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      KbClient client = ts.Connect();
      int n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        bool no_cache = (++n + i) % 2 == 0;
        auto result =
            client.Query(WorksForQuery("Acme_Corp"), -1, -1, no_cache);
        if (!result.ok() || result->rows.size() < 2) {
          failures.fetch_add(1);
        }
      }
    });
  }

  KbClient writer = ts.Connect();
  uint64_t last_generation = 0;
  for (int round = 0; round < 3; ++round) {
    WireFact fact;
    fact.s = "Churner_" + std::to_string(round);
    fact.p = "worksFor";
    fact.o = "Acme_Corp";
    ASSERT_TRUE(writer.InsertFacts({fact}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ts.server.WithWriteLock([&] {
      auto generation = (*volume)->Checkpoint(&ts.kb);
      ASSERT_TRUE(generation.ok()) << generation.status();
      EXPECT_GT(*generation, last_generation);
      last_generation = *generation;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The checkpointed volume reboots to the post-insert state.
  auto loaded = (*volume)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation, last_generation);
  EXPECT_EQ(loaded->kb->NumTriples(), ts.kb.NumTriples());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace kb
