#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "storage/block.h"
#include "storage/env.h"
#include "storage/kv_store.h"
#include "storage/memtable.h"
#include "storage/sharded_kv_store.h"
#include "storage/sstable.h"
#include "storage/triple_codec.h"
#include "storage/wal.h"
#include "util/random.h"

namespace kb {
namespace storage {
namespace {

std::string TempDir(const std::string& name) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("kbforge_" + name)).string();
  std::filesystem::remove_all(path);
  return path;
}

// ---------------------------------------------------------------- Block

TEST(BlockTest, RoundTripInOrder) {
  BlockBuilder builder(4);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    entries[key] = "value" + std::to_string(i);
  }
  for (const auto& [k, v] : entries) builder.Add(Slice(k), Slice(v));
  std::string block = builder.Finish();

  BlockIterator it((Slice(block)));
  auto expected = entries.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(it.key().ToString(), expected->first);
    EXPECT_EQ(it.value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_FALSE(it.corrupted());
}

TEST(BlockTest, SeekFindsLowerBound) {
  BlockBuilder builder(3);
  for (int i = 0; i < 50; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    builder.Add(Slice(key), Slice("v"));
  }
  std::string block = builder.Finish();
  BlockIterator it((Slice(block)));
  it.Seek(Slice("k0013"));  // absent; next is k0014
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k0014");
  it.Seek(Slice("k0048"));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k0048");
  it.Seek(Slice("k9999"));
  EXPECT_FALSE(it.Valid());
}

TEST(BlockTest, CorruptFooterDetected) {
  BlockIterator it(Slice("ab"));
  EXPECT_TRUE(it.corrupted());
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
}

TEST(BlockTest, PrefixCompressionSavesSpace) {
  BlockBuilder compressed(16);
  BlockBuilder uncompressed(1);  // restart at every key = no sharing
  for (int i = 0; i < 1000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "common/long/prefix/%06d", i);
    compressed.Add(Slice(key), Slice("v"));
    uncompressed.Add(Slice(key), Slice("v"));
  }
  EXPECT_LT(compressed.Finish().size(), uncompressed.Finish().size());
}

// ---------------------------------------------------------------- SSTable

TEST(SSTableTest, BuildAndGet) {
  TableBuilder builder;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 5000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value" + std::to_string(i * 7);
  }
  for (const auto& [k, v] : entries) builder.Add(Slice(k), Slice(v));
  auto table = TableReader::Open(builder.Finish());
  ASSERT_TRUE(table.ok());
  EXPECT_GT((*table)->num_blocks(), 1u);

  std::string value;
  ASSERT_TRUE((*table)->Get(Slice("key000123"), &value).ok());
  EXPECT_EQ(value, entries["key000123"]);
  EXPECT_TRUE((*table)->Get(Slice("key999999"), &value).IsNotFound());
  EXPECT_TRUE((*table)->Get(Slice("aaa"), &value).IsNotFound());
  EXPECT_TRUE((*table)->Get(Slice("zzz"), &value).IsNotFound());
}

TEST(SSTableTest, IteratorCoversEverything) {
  TableBuilder builder;
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    builder.Add(Slice(key), Slice(std::to_string(i)));
  }
  auto table = TableReader::Open(builder.Finish());
  ASSERT_TRUE(table.ok());
  auto it = (*table)->NewIterator();
  int count = 0;
  std::string prev;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key().ToString());
    prev = it.key().ToString();
    ++count;
  }
  EXPECT_EQ(count, kN);
}

TEST(SSTableTest, IteratorSeekAcrossBlocks) {
  TableBuilder builder;
  for (int i = 0; i < 2000; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    builder.Add(Slice(key), Slice("v"));
  }
  auto table = TableReader::Open(builder.Finish());
  ASSERT_TRUE(table.ok());
  auto it = (*table)->NewIterator();
  it.Seek(Slice("key000999"));  // odd: absent
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "key001000");
}

TEST(SSTableTest, CorruptContentsRejected) {
  EXPECT_FALSE(TableReader::Open("too short").ok());
  TableBuilder builder;
  builder.Add(Slice("k"), Slice("v"));
  std::string contents = builder.Finish();
  contents[contents.size() - 1] ^= 0x5a;  // clobber magic
  EXPECT_FALSE(TableReader::Open(contents).ok());
}

TEST(SSTableTest, BloomFilterScreensAbsentKeys) {
  // TableBuilder requires sorted keys (asserted in Debug builds).
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("present" + std::string(1, 'a' + i % 26) +
                   std::to_string(i));
  }
  std::sort(keys.begin(), keys.end());
  TableBuilder builder;
  for (const std::string& key : keys) builder.Add(Slice(key), Slice("v"));
  auto table_or = TableReader::Open(builder.Finish());
  ASSERT_TRUE(table_or.ok());
  const auto& table = *table_or;
  int passed = 0;
  for (int i = 0; i < 1000; ++i) {
    if (table->MayContain(Slice("absent" + std::to_string(i)))) ++passed;
  }
  EXPECT_LT(passed, 100);  // ~1% expected
}

// ---------------------------------------------------------------- MemTable

TEST(MemTableTest, PutGetOverwrite) {
  MemTable mem;
  mem.Put(Slice("a"), Slice("1"));
  mem.Put(Slice("b"), Slice("2"));
  mem.Put(Slice("a"), Slice("updated"));
  std::string value;
  EntryType type;
  ASSERT_TRUE(mem.Get(Slice("a"), &value, &type));
  EXPECT_EQ(value, "updated");
  EXPECT_EQ(type, EntryType::kPut);
  EXPECT_FALSE(mem.Get(Slice("zz"), &value, &type));
}

TEST(MemTableTest, OverwriteWithLongerValue) {
  MemTable mem;
  mem.Put(Slice("k"), Slice("ab"));
  mem.Put(Slice("k"), Slice("a much longer value than before"));
  std::string value;
  EntryType type;
  ASSERT_TRUE(mem.Get(Slice("k"), &value, &type));
  EXPECT_EQ(value, "a much longer value than before");
}

TEST(MemTableTest, DeleteLeavesTombstone) {
  MemTable mem;
  mem.Put(Slice("k"), Slice("v"));
  mem.Delete(Slice("k"));
  std::string value;
  EntryType type;
  ASSERT_TRUE(mem.Get(Slice("k"), &value, &type));
  EXPECT_EQ(type, EntryType::kDelete);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable mem;
  Rng rng(3);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(500));
    std::string value = "v" + std::to_string(i);
    mem.Put(Slice(key), Slice(value));
    model[key] = value;
  }
  auto it = mem.NewIterator();
  auto expected = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it.key().ToString(), expected->first);
    EXPECT_EQ(it.value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

TEST(MemTableTest, SeekPositionsAtLowerBound) {
  MemTable mem;
  mem.Put(Slice("b"), Slice("1"));
  mem.Put(Slice("d"), Slice("2"));
  auto it = mem.NewIterator();
  it.Seek(Slice("c"));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "d");
  it.Seek(Slice("e"));
  EXPECT_FALSE(it.Valid());
}

// ---------------------------------------------------------------- WAL

TEST(WalTest, AppendAndReplay) {
  std::string dir = TempDir("wal");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/test.log";
  {
    WalWriter writer;
    ASSERT_TRUE(WalWriter::Open(path, &writer).ok());
    ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("k1"), Slice("v1")).ok());
    ASSERT_TRUE(writer.Append(EntryType::kDelete, Slice("k2"), Slice()).ok());
    writer.Close();
  }
  std::vector<std::tuple<EntryType, std::string, std::string>> seen;
  ASSERT_TRUE(ReplayWal(path, [&seen](EntryType t, const Slice& k,
                                      const Slice& v) {
                seen.emplace_back(t, k.ToString(), v.ToString());
              }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(std::get<1>(seen[0]), "k1");
  EXPECT_EQ(std::get<0>(seen[1]), EntryType::kDelete);
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  std::string dir = TempDir("wal_torn");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/test.log";
  {
    WalWriter writer;
    ASSERT_TRUE(WalWriter::Open(path, &writer).ok());
    ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("k1"), Slice("v1")).ok());
    ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("k2"), Slice("v2")).ok());
    writer.Close();
  }
  // Tear the last record.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, contents->substr(0, contents->size() - 3)).ok());
  int count = 0;
  ASSERT_TRUE(ReplayWal(path, [&count](EntryType, const Slice&,
                                       const Slice&) { ++count; }).ok());
  EXPECT_EQ(count, 1);  // only the intact record
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  std::string dir = TempDir("wal_crc");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/test.log";
  {
    WalWriter writer;
    ASSERT_TRUE(WalWriter::Open(path, &writer).ok());
    ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("k1"), Slice("v1")).ok());
  }
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string mutated = *contents;
  mutated[mutated.size() - 1] ^= 0xff;  // flip a payload byte
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
  int count = 0;
  ASSERT_TRUE(ReplayWal(path, [&count](EntryType, const Slice&,
                                       const Slice&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

// ---------------------------------------------------------------- KVStore

TEST(KVStoreTest, BasicCrud) {
  std::string dir = TempDir("kv_basic");
  StoreOptions options;
  auto store_or = KVStore::Open(options, dir);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put(Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(store->Put(Slice("beta"), Slice("2")).ok());
  std::string value;
  ASSERT_TRUE(store->Get(Slice("alpha"), &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(store->Delete(Slice("alpha")).ok());
  EXPECT_TRUE(store->Get(Slice("alpha"), &value).IsNotFound());
  ASSERT_TRUE(store->Get(Slice("beta"), &value).ok());
}

TEST(KVStoreTest, FlushAndReadBack) {
  std::string dir = TempDir("kv_flush");
  StoreOptions options;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)
                    ->Put(Slice("key" + std::to_string(i)),
                          Slice("value" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_GE((*store)->num_tables(), 1u);
  std::string value;
  ASSERT_TRUE((*store)->Get(Slice("key500"), &value).ok());
  EXPECT_EQ(value, "value500");
}

TEST(KVStoreTest, RecoversFromWalAfterReopen) {
  std::string dir = TempDir("kv_recover");
  StoreOptions options;
  {
    auto store = KVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(Slice("persisted"), Slice("yes")).ok());
    ASSERT_TRUE((*store)->Put(Slice("gone"), Slice("x")).ok());
    ASSERT_TRUE((*store)->Delete(Slice("gone")).ok());
    // No flush: data lives only in WAL + memtable.
  }
  auto reopened = KVStore::Open(options, dir);
  ASSERT_TRUE(reopened.ok());
  std::string value;
  ASSERT_TRUE((*reopened)->Get(Slice("persisted"), &value).ok());
  EXPECT_EQ(value, "yes");
  EXPECT_TRUE((*reopened)->Get(Slice("gone"), &value).IsNotFound());
}

TEST(KVStoreTest, RecoversTablesAfterReopen) {
  std::string dir = TempDir("kv_tables");
  StoreOptions options;
  {
    auto store = KVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*store)->Put(Slice("k" + std::to_string(i)), Slice("v")).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put(Slice("late"), Slice("wal-only")).ok());
  }
  auto reopened = KVStore::Open(options, dir);
  ASSERT_TRUE(reopened.ok());
  std::string value;
  ASSERT_TRUE((*reopened)->Get(Slice("k42"), &value).ok());
  ASSERT_TRUE((*reopened)->Get(Slice("late"), &value).ok());
  EXPECT_EQ(value, "wal-only");
}

TEST(KVStoreTest, NewerVersionsShadowOlderAcrossTables) {
  std::string dir = TempDir("kv_shadow");
  StoreOptions options;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(Slice("k"), Slice("old")).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put(Slice("k"), Slice("new")).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  std::string value;
  ASSERT_TRUE((*store)->Get(Slice("k"), &value).ok());
  EXPECT_EQ(value, "new");
}

TEST(KVStoreTest, CompactionMergesAndDropsTombstones) {
  std::string dir = TempDir("kv_compact");
  StoreOptions options;
  options.l0_compaction_trigger = 100;  // manual compaction only
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)
                      ->Put(Slice("k" + std::to_string(i)),
                            Slice("r" + std::to_string(round)))
                      .ok());
    }
    ASSERT_TRUE((*store)->Delete(Slice("k" + std::to_string(round))).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_EQ((*store)->num_tables(), 1u);
  std::string value;
  ASSERT_TRUE((*store)->Get(Slice("k10"), &value).ok());
  EXPECT_EQ(value, "r2");
  EXPECT_TRUE((*store)->Get(Slice("k2"), &value).IsNotFound());
}

TEST(KVStoreTest, ScanMergesAllSourcesNewestWins) {
  std::string dir = TempDir("kv_scan");
  StoreOptions options;
  options.l0_compaction_trigger = 100;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(Slice("a"), Slice("old-a")).ok());
  ASSERT_TRUE((*store)->Put(Slice("b"), Slice("b")).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put(Slice("a"), Slice("new-a")).ok());
  ASSERT_TRUE((*store)->Put(Slice("c"), Slice("c")).ok());
  ASSERT_TRUE((*store)->Delete(Slice("b")).ok());

  std::vector<std::pair<std::string, std::string>> seen;
  (*store)->Scan(Slice(), Slice(), [&seen](const Slice& k, const Slice& v) {
    seen.emplace_back(k.ToString(), v.ToString());
    return true;
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "a");
  EXPECT_EQ(seen[0].second, "new-a");
  EXPECT_EQ(seen[1].first, "c");
}

TEST(KVStoreTest, ScanRespectsBounds) {
  std::string dir = TempDir("kv_bounds");
  StoreOptions options;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (char c = 'a'; c <= 'f'; ++c) {
    ASSERT_TRUE((*store)->Put(Slice(std::string(1, c)), Slice("v")).ok());
  }
  std::vector<std::string> seen;
  (*store)->Scan(Slice("b"), Slice("e"), [&seen](const Slice& k,
                                                 const Slice&) {
    seen.push_back(k.ToString());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c", "d"}));
}

// Property test: KVStore must agree with a std::map model under random
// interleavings of put/delete/flush/compact/reopen.
class KVStoreModelTest : public ::testing::TestWithParam<int> {};

TEST_P(KVStoreModelTest, AgreesWithMapModel) {
  std::string dir = TempDir("kv_model" + std::to_string(GetParam()));
  StoreOptions options;
  options.l0_compaction_trigger = 3;
  options.memtable_flush_bytes = 1 << 14;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> model;
  Rng rng(GetParam() * 1000 + 17);
  for (int op = 0; op < 3000; ++op) {
    int action = static_cast<int>(rng.Uniform(100));
    std::string key = "k" + std::to_string(rng.Uniform(200));
    if (action < 55) {
      std::string value = "v" + std::to_string(op);
      ASSERT_TRUE((*store)->Put(Slice(key), Slice(value)).ok());
      model[key] = value;
    } else if (action < 80) {
      ASSERT_TRUE((*store)->Delete(Slice(key)).ok());
      model.erase(key);
    } else if (action < 90) {
      std::string value;
      Status s = (*store)->Get(Slice(key), &value);
      if (model.count(key)) {
        ASSERT_TRUE(s.ok()) << key << ": " << s;
        EXPECT_EQ(value, model[key]);
      } else {
        EXPECT_TRUE(s.IsNotFound()) << key;
      }
    } else if (action < 95) {
      ASSERT_TRUE((*store)->Flush().ok());
    } else if (action < 98) {
      ASSERT_TRUE((*store)->CompactAll().ok());
    } else {
      // Reopen: everything must survive. Destroy the old instance
      // first so its background flushes drain before the new one
      // scans the directory.
      store->reset();
      store = KVStore::Open(options, dir);
      ASSERT_TRUE(store.ok());
    }
  }
  // Final full comparison via Scan.
  std::map<std::string, std::string> scanned;
  (*store)->Scan(Slice(), Slice(),
                 [&scanned](const Slice& k, const Slice& v) {
                   scanned[k.ToString()] = v.ToString();
                   return true;
                 });
  EXPECT_EQ(scanned, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KVStoreModelTest,
                         ::testing::Values(1, 2, 3));


TEST(KVStoreTest, CorruptSstableDetectedOnReopen) {
  std::string dir = TempDir("kv_corrupt_sst");
  StoreOptions options;
  {
    auto store = KVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*store)->Put(Slice("k" + std::to_string(i)), Slice("v")).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Flip a byte in the table footer region on disk.
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") sst = entry.path().string();
  }
  ASSERT_FALSE(sst.empty());
  auto contents = ReadFileToString(sst);
  ASSERT_TRUE(contents.ok());
  std::string mutated = *contents;
  mutated[mutated.size() - 1] ^= 0xff;
  ASSERT_TRUE(WriteStringToFile(sst, mutated).ok());
  auto reopened = KVStore::Open(options, dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST(KVStoreTest, WalOffLosesUnflushedDataOnReopen) {
  std::string dir = TempDir("kv_nowal");
  StoreOptions options;
  options.use_wal = false;
  {
    auto store = KVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(Slice("durable"), Slice("1")).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put(Slice("volatile"), Slice("2")).ok());
    // No flush: with WAL disabled this write must not survive.
  }
  auto reopened = KVStore::Open(options, dir);
  ASSERT_TRUE(reopened.ok());
  std::string value;
  EXPECT_TRUE((*reopened)->Get(Slice("durable"), &value).ok());
  EXPECT_TRUE((*reopened)->Get(Slice("volatile"), &value).IsNotFound());
}

TEST(KVStoreTest, StatsTrackBloomEffect) {
  std::string dir = TempDir("kv_stats");
  StoreOptions options;
  options.l0_compaction_trigger = 100;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)
                      ->Put(Slice("t" + std::to_string(t) + "_" +
                                  std::to_string(i)),
                            Slice("v"))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  (*store)->ResetStats();
  std::string value;
  for (int i = 0; i < 500; ++i) {
    (*store)->Get(Slice("absent" + std::to_string(i)), &value).ok();
  }
  const StoreStats& stats = (*store)->stats();
  EXPECT_EQ(stats.gets, 500u);
  // With 3 tables and ~1% fp rate, almost every probe is bloom-skipped.
  EXPECT_GT(stats.bloom_skips, stats.table_probes * 10);
}


// ---------------------------------------------------------------- Env

TEST(EnvTest, ReadMissingFileFails) {
  auto contents = ReadFileToString("/nonexistent/kbforge/file");
  EXPECT_FALSE(contents.ok());
  EXPECT_TRUE(contents.status().IsIOError());
}

TEST(EnvTest, WriteAndReadRoundTrip) {
  std::string dir = TempDir("env");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/file.bin";
  std::string payload("binary\0data", 11);
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());
  auto read_back = ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, payload);
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(EnvTest, ListDirSeesCreatedFiles) {
  std::string dir = TempDir("env_list");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/a.txt", "x").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/b.txt", "y").ok());
  auto names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
}

// ---------------------------------------------------------------- Codec

TEST(TripleCodecTest, RoundTripAllOrders) {
  rdf::Triple t(123456, 789, 42);
  for (TripleOrder order :
       {TripleOrder::kSpo, TripleOrder::kPos, TripleOrder::kOsp}) {
    std::string key = EncodeTripleKey(order, t);
    TripleOrder got_order;
    rdf::Triple got;
    ASSERT_TRUE(DecodeTripleKey(Slice(key), &got_order, &got));
    EXPECT_EQ(got_order, order);
    EXPECT_EQ(got, t);
  }
}

TEST(TripleCodecTest, KeyOrderMatchesTripleOrder) {
  rdf::Triple a(1, 5, 9), b(1, 6, 0), c(2, 0, 0);
  std::string ka = EncodeTripleKey(TripleOrder::kSpo, a);
  std::string kb = EncodeTripleKey(TripleOrder::kSpo, b);
  std::string kc = EncodeTripleKey(TripleOrder::kSpo, c);
  EXPECT_LT(ka, kb);
  EXPECT_LT(kb, kc);
}

TEST(TripleCodecTest, RejectsMalformedKeys) {
  TripleOrder order;
  rdf::Triple t;
  EXPECT_FALSE(DecodeTripleKey(Slice("short"), &order, &t));
  std::string key = EncodeTripleKey(TripleOrder::kSpo, rdf::Triple(1, 2, 3));
  key[0] = 'X';
  EXPECT_FALSE(DecodeTripleKey(Slice(key), &order, &t));
}

// ---------------------------------------------------------- Block cache

TEST(KVStoreCacheTest, RepeatedGetsHitTheBlockCache) {
  std::string dir = TempDir("kv_cache_hits");
  StoreOptions options;
  options.sync_wal = false;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  ASSERT_NE((*store)->block_cache(), nullptr);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        (*store)->Put(Slice("k" + std::to_string(i)), Slice("v")).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  std::string value;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Get(Slice("k" + std::to_string(i)), &value).ok());
    }
  }
  LruCacheStats stats = (*store)->block_cache()->stats();
  EXPECT_GT(stats.hits, 0u);
  // The whole working set fits: later rounds should be nearly all hits.
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(KVStoreCacheTest, ZeroCapacityDisablesCaching) {
  std::string dir = TempDir("kv_cache_off");
  StoreOptions options;
  options.sync_wal = false;
  options.block_cache_bytes = 0;  // the ablation baseline
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->block_cache(), nullptr);
  ASSERT_TRUE((*store)->Put(Slice("k"), Slice("v")).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  std::string value;
  ASSERT_TRUE((*store)->Get(Slice("k"), &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(KVStoreCacheTest, SharedCacheServesSeveralStores) {
  auto cache = std::make_shared<ShardedLruCache>(1 << 20, 4);
  StoreOptions options;
  options.sync_wal = false;
  options.block_cache = cache;
  std::string dir_a = TempDir("kv_cache_shared_a");
  std::string dir_b = TempDir("kv_cache_shared_b");
  auto a = KVStore::Open(options, dir_a);
  auto b = KVStore::Open(options, dir_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*a)->Put(Slice("k"), Slice("from-a")).ok());
  ASSERT_TRUE((*b)->Put(Slice("k"), Slice("from-b")).ok());
  ASSERT_TRUE((*a)->Flush().ok());
  ASSERT_TRUE((*b)->Flush().ok());
  // Same key, same block index, different tables: ids keep the cached
  // blocks apart.
  std::string value;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*a)->Get(Slice("k"), &value).ok());
    EXPECT_EQ(value, "from-a");
    ASSERT_TRUE((*b)->Get(Slice("k"), &value).ok());
    EXPECT_EQ(value, "from-b");
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

// ------------------------------------------------------- Reentrant scan

TEST(KVStoreTest, ScanVisitorMayReenterGet) {
  std::string dir = TempDir("kv_reentrant");
  StoreOptions options;
  options.sync_wal = false;
  auto store = KVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    std::string k = "k" + std::to_string(i);
    ASSERT_TRUE((*store)->Put(Slice(k), Slice("v" + std::to_string(i))).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  // The visitor runs with no store lock held, so calling back into the
  // store (even writes) must not deadlock.
  size_t visited = 0;
  Status s = (*store)->Scan(Slice(), Slice(),
                            [&](const Slice& key, const Slice& value) {
                              std::string got;
                              Status g = (*store)->Get(key, &got);
                              EXPECT_TRUE(g.ok());
                              EXPECT_EQ(got, value.ToString());
                              if (visited == 0) {
                                EXPECT_TRUE(
                                    (*store)->Put(Slice("zz-new"), Slice("w"))
                                        .ok());
                              }
                              ++visited;
                              return true;
                            });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(visited, 50u);  // snapshot: the mid-scan Put is not seen
  std::string got;
  EXPECT_TRUE((*store)->Get(Slice("zz-new"), &got).ok());
}

// -------------------------------------------------------- ShardedKVStore

TEST(ShardedKVStoreTest, RoundTripAcrossShards) {
  std::string dir = TempDir("sharded_roundtrip");
  ShardedStoreOptions options;
  options.num_shards = 4;
  options.store.sync_wal = false;
  auto store = ShardedKVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_shards(), 4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*store)
                    ->Put(Slice("key" + std::to_string(i)),
                          Slice("value" + std::to_string(i)))
                    .ok());
  }
  std::string value;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*store)->Get(Slice("key" + std::to_string(i)), &value).ok());
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  ASSERT_TRUE((*store)->Delete(Slice("key7")).ok());
  EXPECT_TRUE((*store)->Get(Slice("key7"), &value).IsNotFound());
}

TEST(ShardedKVStoreTest, ScanMergesShardsInKeyOrder) {
  std::string dir = TempDir("sharded_scan");
  ShardedStoreOptions options;
  options.num_shards = 8;
  options.store.sync_wal = false;
  auto store = ShardedKVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> model;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(100000));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE((*store)->Put(Slice(key), Slice(value)).ok());
    model[key] = value;
  }
  ASSERT_TRUE((*store)->Flush().ok());
  std::vector<std::string> keys;
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE((*store)
                  ->Scan(Slice(), Slice(),
                         [&](const Slice& k, const Slice& v) {
                           keys.push_back(k.ToString());
                           scanned[k.ToString()] = v.ToString();
                           return true;
                         })
                  .ok());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(scanned, model);
  // Bounded sub-range, early stop.
  size_t seen = 0;
  ASSERT_TRUE((*store)
                  ->Scan(Slice("k2"), Slice("k5"),
                         [&](const Slice& k, const Slice&) {
                           EXPECT_GE(k.ToString(), std::string("k2"));
                           EXPECT_LT(k.ToString(), std::string("k5"));
                           ++seen;
                           return seen < 10;
                         })
                  .ok());
  EXPECT_EQ(seen, 10u);
}

TEST(ShardedKVStoreTest, PersistedShardCountWinsOnReopen) {
  std::string dir = TempDir("sharded_marker");
  {
    ShardedStoreOptions options;
    options.num_shards = 4;
    options.store.sync_wal = false;
    auto store = ShardedKVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*store)->Put(Slice("k" + std::to_string(i)), Slice("v")).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Reopen asking for a different count: routing must follow the disk.
  ShardedStoreOptions options;
  options.num_shards = 16;
  options.store.sync_wal = false;
  auto reopened = ShardedKVStore::Open(options, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_shards(), 4);
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*reopened)->Get(Slice("k" + std::to_string(i)), &value).ok());
  }
}

TEST(ShardedKVStoreTest, RecoverMergesPerShardReports) {
  std::string dir = TempDir("sharded_recover");
  ShardedStoreOptions options;
  options.num_shards = 4;
  options.store.sync_wal = false;
  {
    auto store = ShardedKVStore::Open(options, dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*store)->Put(Slice("k" + std::to_string(i)), Slice("v")).ok());
    }
    // No flush: every record stays WAL-resident across shards.
  }
  RecoveryReport report;
  auto recovered = ShardedKVStore::Recover(options, dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.wal_records_replayed, 200u);
  EXPECT_EQ(report.tables_quarantined, 0u);
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        (*recovered)->Get(Slice("k" + std::to_string(i)), &value).ok());
  }
}

TEST(ShardedKVStoreTest, CompactAllCompactsEveryShard) {
  std::string dir = TempDir("sharded_compact");
  ShardedStoreOptions options;
  options.num_shards = 2;
  options.store.sync_wal = false;
  options.store.l0_compaction_trigger = 100;  // keep compaction manual
  auto store = ShardedKVStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)
                      ->Put(Slice("k" + std::to_string(i)),
                            Slice("r" + std::to_string(round)))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  EXPECT_GT((*store)->num_tables(), 2u);
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_LE((*store)->num_tables(), 2u);  // <= 1 table per shard
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Get(Slice("k" + std::to_string(i)), &value).ok());
    EXPECT_EQ(value, "r2");
  }
}

// ------------------------------------------------- WAL generations

TEST(WalGenerationTest, RetainedGenerationsFormPrefixClosedLog) {
  StoreOptions options;
  options.retain_wals = true;
  options.memtable_flush_bytes = 2 << 10;  // roll generations quickly
  auto store = KVStore::Open(options, TempDir("wal_gens"));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 300; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE((*store)->Put(key, std::string(32, 'v')).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  auto gens = (*store)->ListWalGenerations();
  ASSERT_TRUE(gens.ok());
  ASSERT_GT(gens->size(), 1u) << "flushes should have rolled the wal";
  // Numbers strictly increase, every retained file exists with the
  // reported size, and replaying the concatenation yields every key
  // exactly once in append order.
  std::vector<std::string> replayed;
  for (size_t i = 0; i < gens->size(); ++i) {
    if (i > 0) EXPECT_GT((*gens)[i].number, (*gens)[i - 1].number);
    auto contents = Env::Default()->ReadFileToString((*gens)[i].path);
    ASSERT_TRUE(contents.ok()) << (*gens)[i].path;
    EXPECT_EQ(contents->size(), (*gens)[i].size);
    uint64_t offset = 0;
    ASSERT_TRUE(ParseWalChunk(Slice(*contents), &offset,
                              [&](EntryType type, const Slice& key,
                                  const Slice&) {
                                if (type == EntryType::kPut) {
                                  replayed.push_back(key.ToString());
                                }
                              })
                    .ok());
    EXPECT_EQ(offset, contents->size()) << "torn tail in a closed wal";
  }
  ASSERT_EQ(replayed.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    EXPECT_EQ(replayed[static_cast<size_t>(i)], key);
  }
}

TEST(WalGenerationTest, WithoutRetainWalsFlushedGenerationsAreDeleted) {
  StoreOptions options;
  options.memtable_flush_bytes = 2 << 10;
  auto store = KVStore::Open(options, TempDir("wal_unretained"));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        (*store)->Put("key" + std::to_string(i), std::string(32, 'v')).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  auto gens = (*store)->ListWalGenerations();
  ASSERT_TRUE(gens.ok());
  // Only the live tail remains; flushed history is reclaimed.
  EXPECT_LE(gens->size(), 1u);
}

TEST(WalChunkTest, IncrementalParseStopsAtTornTailAndResumes) {
  std::string dir = TempDir("wal_chunk");
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir).ok());
  std::string path = dir + "/chunk.log";
  WalWriter writer;
  ASSERT_TRUE(WalWriter::Open(path, &writer).ok());
  ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("beta"), Slice("2")).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());

  // Feed the bytes in two arbitrary pieces: the parser must stop at
  // the torn boundary with corrupt=false, then finish once the rest
  // arrives, never re-delivering a record.
  const size_t cut = contents->size() / 2;
  std::vector<std::string> keys;
  auto collect = [&](EntryType, const Slice& key, const Slice&) {
    keys.push_back(key.ToString());
  };
  uint64_t offset = 0;
  bool corrupt = true;
  ASSERT_TRUE(ParseWalChunk(Slice(contents->data(), cut), &offset, collect,
                            nullptr, &corrupt)
                  .ok());
  EXPECT_FALSE(corrupt);
  EXPECT_LE(offset, cut);
  ASSERT_TRUE(ParseWalChunk(Slice(*contents), &offset, collect, nullptr,
                            &corrupt)
                  .ok());
  EXPECT_FALSE(corrupt);
  EXPECT_EQ(offset, contents->size());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "beta");
}

TEST(WalChunkTest, ByteCompleteRecordWithBadChecksumReportsCorrupt) {
  std::string dir = TempDir("wal_corrupt_chunk");
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir).ok());
  std::string path = dir + "/chunk.log";
  WalWriter writer;
  ASSERT_TRUE(WalWriter::Open(path, &writer).ok());
  ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("alpha"), Slice("1")).ok());
  ASSERT_TRUE(writer.Append(EntryType::kPut, Slice("beta"), Slice("2")).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string damaged = *contents;
  damaged.back() ^= 0x40;  // flip a bit inside the second record

  uint64_t offset = 0;
  uint64_t records = 0;
  bool corrupt = false;
  ASSERT_TRUE(
      ParseWalChunk(Slice(damaged), &offset, [](EntryType, const Slice&,
                                                const Slice&) {},
                    &records, &corrupt)
          .ok());
  // The intact first record parses; the damaged one is flagged as
  // corruption (more bytes will never fix it), not a torn tail.
  EXPECT_EQ(records, 1u);
  EXPECT_TRUE(corrupt);
  EXPECT_LT(offset, damaged.size());
}

}  // namespace
}  // namespace storage
}  // namespace kb
