// Concurrency hammer tests: these exist to be run under
// KBFORGE_SANITIZE=tsan/asan builds, where the sanitizer (not just the
// assertions) is the oracle. Each test drives a shared component from
// at least eight threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/harvester.h"
#include "core/knowledge_base.h"
#include "rdf/namespaces.h"
#include "storage/fault_injection_env.h"
#include "storage/kv_store.h"
#include "storage/sharded_kv_store.h"
#include "util/metrics_registry.h"
#include "util/thread_pool.h"

namespace kb {
namespace {

constexpr size_t kThreads = 8;

std::string TempDir(const std::string& name) {
  auto path = std::filesystem::temp_directory_path() / ("kbforge_" + name);
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

// ------------------------------------------------------------- Harvest

class ConcurrentHarvestFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::WorldOptions wopts;
    wopts.seed = 301;
    wopts.num_persons = 60;
    wopts.num_cities = 15;
    wopts.num_companies = 20;
    corpus::CorpusOptions copts;
    copts.seed = 302;
    copts.news_docs = 80;
    copts.web_docs = 15;
    corpus_ = new corpus::Corpus(corpus::BuildCorpus(wopts, copts));
  }
  static void TearDownTestSuite() { delete corpus_; }
  static corpus::Corpus* corpus_;
};

corpus::Corpus* ConcurrentHarvestFixture::corpus_ = nullptr;

TEST_F(ConcurrentHarvestFixture, EightThreadHarvestMatchesSingleThread) {
  core::HarvestOptions serial;
  serial.threads = 1;
  core::HarvestResult one = core::Harvester(serial).Harvest(*corpus_);

  core::HarvestOptions parallel;
  parallel.threads = kThreads;
  core::HarvestResult eight = core::Harvester(parallel).Harvest(*corpus_);

  // The map phase shards documents; the merge order is canonicalized,
  // so the output must be bit-identical regardless of thread count.
  EXPECT_EQ(eight.stats.documents, one.stats.documents);
  EXPECT_EQ(eight.stats.sentences, one.stats.sentences);
  EXPECT_EQ(eight.stats.candidate_facts, one.stats.candidate_facts);
  EXPECT_EQ(eight.stats.accepted_facts, one.stats.accepted_facts);
  EXPECT_EQ(eight.kb.NumTriples(), one.kb.NumTriples());
  EXPECT_EQ(eight.kb.NumEntities(), one.kb.NumEntities());
  EXPECT_GT(eight.stats.accepted_facts, 0u);
}

TEST_F(ConcurrentHarvestFixture, ConcurrentHarvestsDoNotInterfere) {
  // Several full pipelines at once: all share the global metrics
  // registry and the extractors' static tables.
  std::vector<core::HarvestResult> results(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([this, t, &results] {
      core::HarvestOptions options;
      options.threads = 2;
      results[t] = core::Harvester(options).Harvest(*corpus_);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[t].stats.accepted_facts,
              results[0].stats.accepted_facts);
    EXPECT_EQ(results[t].kb.NumTriples(), results[0].kb.NumTriples());
  }
}

// ------------------------------------------------------------- KVStore

TEST(ConcurrencyTest, KvStoreConcurrentReadsWritesScansFlushes) {
  std::string dir = TempDir("concurrent_kv");
  storage::StoreOptions options;
  options.memtable_flush_bytes = 16 << 10;  // force frequent flushes
  options.l0_compaction_trigger = 3;
  auto store_or = storage::KVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<storage::KVStore> store = std::move(store_or).value();

  constexpr int kKeysPerThread = 400;
  std::atomic<size_t> get_hits{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        std::string key =
            "k" + std::to_string(t) + "_" + std::to_string(i);
        std::string value = "v" + std::to_string(t * 100000 + i);
        ASSERT_TRUE(store->Put(Slice(key), Slice(value)).ok());
        // Read back own write (other threads' flushes/compactions may
        // run concurrently).
        std::string got;
        if (store->Get(Slice(key), &got).ok()) {
          ASSERT_EQ(got, value);
          get_hits.fetch_add(1);
        }
        if (i % 97 == 0) {
          ASSERT_TRUE(store->Flush().ok());
        }
        if (i % 163 == 0) {
          size_t seen = 0;
          store->Scan(Slice("k"), Slice(),
                      [&seen](const Slice&, const Slice&) {
                        ++seen;
                        return seen < 50;  // bounded walk
                      });
        }
        if (i % 211 == 0 && t == 0) {
          ASSERT_TRUE(store->CompactAll().ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Own-writes must always be visible.
  EXPECT_EQ(get_hits.load(), kThreads * kKeysPerThread);

  // Every key survives the concurrent churn.
  for (size_t t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      std::string key = "k" + std::to_string(t) + "_" + std::to_string(i);
      std::string got;
      ASSERT_TRUE(store->Get(Slice(key), &got).ok()) << key;
    }
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, KvStoreConcurrentDeletesStayConsistent) {
  std::string dir = TempDir("concurrent_kv_del");
  storage::StoreOptions options;
  options.memtable_flush_bytes = 8 << 10;
  auto store_or = storage::KVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<storage::KVStore> store = std::move(store_or).value();

  // Pre-populate, then half the threads delete even keys while the
  // other half read odd keys.
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(store->Put(Slice(key), Slice("value")).ok());
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        for (int i = static_cast<int>(t); i < kKeys; i += 2 * kThreads) {
          ASSERT_TRUE(store->Delete(
              Slice("key" + std::to_string(2 * (i / 2)))).ok());
        }
      } else {
        std::string got;
        for (int i = 1; i < kKeys; i += 2) {
          ASSERT_TRUE(
              store->Get(Slice("key" + std::to_string(i)), &got).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Odd keys all survive.
  std::string got;
  for (int i = 1; i < kKeys; i += 2) {
    ASSERT_TRUE(store->Get(Slice("key" + std::to_string(i)), &got).ok());
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, ReadersProgressWhileCompactionIsInFlight) {
  std::string dir = TempDir("concurrent_kv_bg");
  storage::FaultInjectionEnv env(storage::Env::Default());
  storage::StoreOptions options;
  options.env = &env;
  options.sync_wal = false;
  options.memtable_flush_bytes = 4 << 10;
  options.l0_compaction_trigger = 3;
  auto store_or = storage::KVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<storage::KVStore> store = std::move(store_or).value();

  // Preload a fast (undelayed) working set for the readers.
  constexpr int kPreload = 200;
  const std::string value(64, 'v');
  for (int i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(store->Put(Slice("r" + std::to_string(i)), Slice(value)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  // From here on every table/WAL file write stalls 50ms, so background
  // flushes and compactions stay in flight for a long, visible window.
  storage::FaultInjectionEnv::Options slow;
  slow.write_delay_micros = 50000;
  env.Reset(slow);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads - 1; ++t) {
    readers.emplace_back([&, t] {
      std::string got;
      uint64_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string key = "r" + std::to_string(i++ % kPreload);
        ASSERT_TRUE(store->Get(Slice(key), &got).ok()) << key;
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: pump enough data through the small memtable to schedule
  // several slow background flushes and a compaction, then wait for
  // them to finish.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store->Put(Slice("w" + std::to_string(i)), Slice(value)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->CompactAll().ok());
  stop.store(true);
  for (auto& t : readers) t.join();

  storage::StoreStats stats = store->stats();
  EXPECT_GE(stats.flushes, 2u);
  EXPECT_GE(stats.compactions, 1u);
  // Background table IO totalled hundreds of milliseconds of injected
  // delay. Readers blocked behind it would have managed a handful of
  // reads; unblocked readers do thousands.
  EXPECT_GT(reads_done.load(), 500u);
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, ScanVisitorsReenterGetUnderWrites) {
  std::string dir = TempDir("concurrent_kv_reenter");
  storage::StoreOptions options;
  options.sync_wal = false;
  options.memtable_flush_bytes = 16 << 10;
  options.l0_compaction_trigger = 3;
  auto store_or = storage::KVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<storage::KVStore> store = std::move(store_or).value();
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store->Put(Slice("s" + std::to_string(i)),
                           Slice("v" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        // Scanner whose visitor calls straight back into the store.
        for (int round = 0; round < 10; ++round) {
          size_t seen = 0;
          Status s = store->Scan(
              Slice("s"), Slice(), [&](const Slice& key, const Slice&) {
                std::string got;
                Status g = store->Get(key, &got);
                // The key may have been rewritten since the snapshot
                // was pinned, but reentry itself must always be safe.
                EXPECT_TRUE(g.ok() || g.IsNotFound());
                return ++seen < 100;
              });
          ASSERT_TRUE(s.ok());
        }
      } else {
        for (int i = 0; i < 500; ++i) {
          std::string key = "s" + std::to_string(i % kKeys);
          ASSERT_TRUE(
              store->Put(Slice(key), Slice("t" + std::to_string(t))).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  store.reset();
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- ShardedKVStore

TEST(ConcurrencyTest, ShardedStoreMixedLoadHammer) {
  std::string dir = TempDir("concurrent_sharded");
  storage::ShardedStoreOptions options;
  options.num_shards = 4;
  options.background_threads = 2;
  options.store.sync_wal = false;
  options.store.memtable_flush_bytes = 8 << 10;
  options.store.l0_compaction_trigger = 3;
  auto store_or = storage::ShardedKVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<storage::ShardedKVStore> store = std::move(store_or).value();

  constexpr int kOpsPerThread = 400;
  std::atomic<size_t> own_write_hits{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k" + std::to_string(t) + "_" + std::to_string(i);
        std::string value = "v" + std::to_string(t * 100000 + i);
        ASSERT_TRUE(store->Put(Slice(key), Slice(value)).ok());
        std::string got;
        ASSERT_TRUE(store->Get(Slice(key), &got).ok());
        ASSERT_EQ(got, value);
        own_write_hits.fetch_add(1);
        if (i % 113 == 0) {
          size_t seen = 0;
          ASSERT_TRUE(store
                          ->Scan(Slice("k"), Slice(),
                                 [&seen](const Slice&, const Slice&) {
                                   return ++seen < 64;
                                 })
                          .ok());
        }
        if (i % 157 == 0 && t == 0) {
          ASSERT_TRUE(store->Flush().ok());
        }
        if (i % 211 == 0 && t == 1) {
          ASSERT_TRUE(store->CompactAll().ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(own_write_hits.load(), kThreads * kOpsPerThread);
  // Full merged scan sees every key exactly once, in order.
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  ->Scan(Slice(), Slice(),
                         [&](const Slice& k, const Slice&) {
                           keys.push_back(k.ToString());
                           return true;
                         })
                  .ok());
  EXPECT_EQ(keys.size(), kThreads * kOpsPerThread);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  store.reset();
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- TripleStore

TEST(ConcurrencyTest, TripleStoreConcurrentScansWhileAppending) {
  // Multi-reader hammer for the old lazy-index race: Scan used to
  // merge pending triples into mutable index vectors on first read, so
  // two concurrent readers raced on the rebuild. Reads now pin an
  // immutable snapshot; TSan is the oracle here.
  rdf::TripleStore store;
  std::vector<rdf::TermId> subjects, predicates;
  {
    for (int i = 0; i < 16; ++i) {
      subjects.push_back(
          store.dict().Intern(rdf::Term::Iri("s" + std::to_string(i))));
    }
    for (int i = 0; i < 4; ++i) {
      predicates.push_back(
          store.dict().Intern(rdf::Term::Iri("p" + std::to_string(i))));
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> scans_done{0};
  std::vector<std::thread> threads;
  // One writer keeps appending…
  threads.emplace_back([&] {
    for (int i = 0; i < 4000; ++i) {
      store.Add({subjects[i % subjects.size()],
                 predicates[i % predicates.size()],
                 subjects[(i * 7) % subjects.size()]});
    }
    stop.store(true);
  });
  // …while the other threads scan every pattern shape concurrently.
  // Each reader does a floor of iterations even if the writer finishes
  // before it gets scheduled, so the readers always overlap each other
  // (and almost always the writer too).
  for (size_t t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t iter = 0; iter < 16 || !stop.load(); ++iter) {
        rdf::TriplePattern pattern;
        if (t % 3 == 0) pattern.s = subjects[t % subjects.size()];
        if (t % 3 == 1) pattern.p = predicates[t % predicates.size()];
        if (t % 3 == 2) {
          pattern.s = subjects[t % subjects.size()];
          pattern.o = subjects[(t * 5) % subjects.size()];
        }
        size_t n = 0;
        store.Scan(pattern, [&n](const rdf::Triple&) {
          ++n;
          return true;
        });
        // The store only grows, so a later count can never undercut an
        // earlier scan of the same pattern.
        ASSERT_GE(store.EstimateCount(pattern), n);
        scans_done.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(scans_done.load(), 0u);
}

TEST(ConcurrencyTest, TripleStoreSnapshotReadersSeeFrozenState) {
  rdf::TripleStore store;
  auto s = store.dict().Intern(rdf::Term::Iri("s"));
  auto p = store.dict().Intern(rdf::Term::Iri("p"));
  for (rdf::TermId o = 1; o <= 100; ++o) {
    store.Add({s, p, o + 1000});
  }
  auto snapshot = store.Snapshot();
  const size_t frozen_size = snapshot->size();

  std::vector<std::thread> threads;
  // Writer keeps growing the store; readers iterate the snapshot and
  // must see exactly the frozen triples every time.
  threads.emplace_back([&] {
    for (rdf::TermId o = 0; o < 2000; ++o) {
      store.Add({s, p, o + 10000});
      if (o % 500 == 0) (void)store.Snapshot();  // concurrent re-merge
    }
  });
  for (size_t t = 1; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        size_t n = 0;
        for (auto it = snapshot->NewScan(rdf::TriplePattern()); it->Valid();
             it->Next()) {
          ++n;
        }
        ASSERT_EQ(n, frozen_size);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(store.size(), frozen_size);
}

// ------------------------------------------------------- KnowledgeBase

TEST(ConcurrencyTest, KnowledgeBaseConcurrentAssertsAndQueries) {
  core::KnowledgeBase kb;
  std::atomic<size_t> asserted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::FactMeta meta;
      meta.confidence = 0.5 + 0.05 * static_cast<double>(t);
      for (int i = 0; i < 200; ++i) {
        std::string subject = "E" + std::to_string(t) + "_" +
                              std::to_string(i);
        if (kb.AssertFact(subject, "rel", "Target", meta)) {
          asserted.fetch_add(1);
        }
        // Contended fact: every thread asserts the same statement, so
        // meta merge runs under contention.
        kb.AssertFact("Shared", "rel", "Target", meta);
        kb.AssertType(subject, "thing");
        if (i % 50 == 0) {
          auto rows = kb.Query("SELECT ?s WHERE { ?s <" +
                               rdf::PropertyIri("rel") + "> <" +
                               rdf::EntityIri("Target") + "> . }");
          ASSERT_TRUE(rows.ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(asserted.load(), kThreads * 200u);

  auto rows = kb.Query("SELECT ?s WHERE { ?s <" + rdf::PropertyIri("rel") +
                       "> <" + rdf::EntityIri("Target") + "> . }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), kThreads * 200u + 1);  // +1 for "Shared"

  // The contended fact merged all supports and kept the max confidence.
  rdf::Triple contended(kb.EntityTerm("Shared"), kb.PropertyTerm("rel"),
                        kb.EntityTerm("Target"));
  const core::FactMeta* meta = kb.MetaOf(contended);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->support, kThreads * 200u);
  EXPECT_DOUBLE_EQ(meta->confidence,
                   0.5 + 0.05 * static_cast<double>(kThreads - 1));
}

// ------------------------------------------------------------- Metrics

TEST(ConcurrencyTest, MetricsRegistryHammer) {
  MetricsRegistry registry;
  ThreadPool pool(kThreads);
  constexpr int kOps = 2000;
  pool.ParallelFor(kThreads, [&registry](size_t t) {
    for (int i = 0; i < kOps; ++i) {
      registry.counter("hammer.count").Increment();
      registry.gauge("hammer.gauge").Set(static_cast<int64_t>(i));
      registry.histogram("hammer.hist").Observe(0.5 * (t + 1));
      if (i % 100 == 0) {
        // Snapshots race against updates; they must be safe (values
        // are torn only across instruments, never within a counter).
        MetricsSnapshot snap = registry.Snapshot();
        (void)snap.ToText();
      }
    }
  });
  pool.Wait();
  EXPECT_EQ(registry.counter("hammer.count").value(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(registry.histogram("hammer.hist").count(),
            static_cast<uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace kb
