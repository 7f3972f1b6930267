#ifndef KBFORGE_STORAGE_SHARDED_KV_STORE_H_
#define KBFORGE_STORAGE_SHARDED_KV_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/kv_store.h"
#include "util/thread_pool.h"

namespace kb {
namespace storage {

/// Tuning knobs for the sharded engine.
struct ShardedStoreOptions {
  /// Per-shard engine options. block_cache/block_cache_bytes and
  /// background_pool inside are ignored — the sharded store supplies
  /// its own shared cache and pool to every shard.
  StoreOptions store;
  /// Number of hash partitions (directories shard-000..shard-N-1).
  /// Fixed at creation: once a store exists on disk, the persisted
  /// count wins over this field on reopen.
  int num_shards = 8;
  /// Capacity of the block cache shared by all shards; 0 disables
  /// caching (the ablation baseline).
  size_t block_cache_bytes = 32 << 20;
  /// Workers running background flushes/compactions for all shards.
  int background_threads = 2;
};

/// A KVStore hash-partitioned across N independent shards, each with
/// its own mutex, memtable, WAL and table set, so concurrent writers
/// on different keys touch disjoint locks and logs. One block cache
/// and one background pool are shared across shards. Reads route by
/// the same hash; Scan k-way-merges the shards back into one ordered
/// stream (partitions are disjoint, so no cross-shard dedup is
/// needed). The shard count is persisted in a SHARDS marker file and
/// is authoritative on reopen — routing must match the layout that
/// wrote the data.
///
/// Thread-safe with the same per-shard guarantees as KVStore (group
/// commit, background flush/compaction, snapshot scans).
class ShardedKVStore {
 public:
  /// Opens (or creates) a sharded store rooted at directory `path`.
  /// Strict per-shard opens: any corrupt SSTable fails the open.
  static StatusOr<std::unique_ptr<ShardedKVStore>> Open(
      const ShardedStoreOptions& options, const std::string& path);

  /// Crash-recovery open: every shard runs KVStore::Recover and the
  /// per-shard reports are merged into `report` (optional).
  static StatusOr<std::unique_ptr<ShardedKVStore>> Recover(
      const ShardedStoreOptions& options, const std::string& path,
      RecoveryReport* report = nullptr);

  /// Blocks until all shards' background work has drained.
  ~ShardedKVStore();

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Status Get(const Slice& key, std::string* value);

  /// See KVStore::Scan: one globally key-ordered stream merged across
  /// shards, pulled in bounded batches so no shard lock is held while
  /// the visitor runs.
  Status Scan(const Slice& start, const Slice& end,
              const std::function<bool(const Slice&, const Slice&)>& fn);

  /// Durability barrier across every shard.
  Status Flush();

  /// Full merge in every shard (each ends at <= 1 table).
  Status CompactAll();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t num_tables() const;        ///< summed across shards
  StoreStats stats() const;         ///< summed across shards
  void ResetStats();
  /// The cache shared by all shards (null when disabled).
  const std::shared_ptr<ShardedLruCache>& block_cache() const {
    return cache_;
  }

  /// Direct access for tests/benches; `i` in [0, num_shards()).
  KVStore* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }

  /// Per-shard WAL manifest (see KVStore::ListWalGenerations) — the
  /// unit a WalShipper streams; each shard's generations form an
  /// independent prefix-closed log.
  StatusOr<std::vector<WalGenerationInfo>> WalGenerations(int shard_index) {
    return shards_[static_cast<size_t>(shard_index)]->ListWalGenerations();
  }

 private:
  ShardedKVStore() = default;

  static StatusOr<std::unique_ptr<ShardedKVStore>> OpenInternal(
      const ShardedStoreOptions& options, const std::string& path,
      bool repair, RecoveryReport* report);

  KVStore* ShardFor(const Slice& key);

  std::shared_ptr<ShardedLruCache> cache_;
  /// Declared before shards_ so shards (which drain their tasks in
  /// their destructors) go away first, then the pool joins.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<KVStore>> shards_;
};

}  // namespace storage
}  // namespace kb

#endif  // KBFORGE_STORAGE_SHARDED_KV_STORE_H_
