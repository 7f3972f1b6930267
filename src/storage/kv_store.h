#ifndef KBFORGE_STORAGE_KV_STORE_H_
#define KBFORGE_STORAGE_KV_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "util/lru_cache.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace kb {
namespace storage {

/// Tuning knobs for the mini-LSM engine.
struct StoreOptions {
  size_t memtable_flush_bytes = 1 << 20;  ///< flush threshold
  int l0_compaction_trigger = 4;          ///< #tables that triggers merge
  bool use_wal = true;                    ///< write-ahead logging on/off
  /// fsync the WAL on every write, so a Put/Delete that returned OK is
  /// durable across machine crashes. Concurrent writers group-commit:
  /// one leader appends and syncs the whole queued batch, so the fsync
  /// cost is amortized across them. Turn off for bulk loads that end
  /// with an explicit Flush (the SSTable write syncs).
  bool sync_wal = true;
  /// Filesystem seam; nullptr means Env::Default(). Tests inject a
  /// FaultInjectionEnv here. Must outlive the store.
  Env* env = nullptr;
  /// Retry policy for transient IO failures on the WAL append/sync and
  /// memtable-flush paths. max_attempts = 1 disables retries.
  RetryOptions retry;
  TableOptions table;                     ///< SSTable layout options
  /// Block-cache capacity for this store's tables; 0 disables caching
  /// (the ablation baseline). Ignored when block_cache is set.
  size_t block_cache_bytes = 8 << 20;
  /// Externally-owned cache shared across stores (ShardedKVStore hands
  /// one cache to all its shards). Overrides block_cache_bytes.
  std::shared_ptr<ShardedLruCache> block_cache;
  /// Pool running background flushes/compactions; nullptr gives the
  /// store its own single worker. Must outlive the store.
  ThreadPool* background_pool = nullptr;
  /// Keep flushed WAL generations on disk instead of deleting them.
  /// The numbered logs then form a complete, prefix-closed history of
  /// every write — the replication log a WalShipper streams to
  /// follower replicas, and what lets a lagging follower catch up from
  /// any old position without a snapshot. Replay on reopen re-applies
  /// the whole history (idempotent puts/deletes), so correctness is
  /// unchanged; the cost is open/recovery time and disk proportional
  /// to history length.
  bool retain_wals = false;
};

/// Read/write counters for benches and the Bloom ablation (E10).
struct StoreStats {
  uint64_t gets = 0;
  uint64_t bloom_skips = 0;      ///< table probes skipped by the filter
  uint64_t table_probes = 0;     ///< actual block searches performed
  uint64_t flushes = 0;
  uint64_t compactions = 0;
};

/// What KVStore::Recover found and repaired. All counts refer to the
/// opened directory, not process lifetime.
struct RecoveryReport {
  uint64_t wal_records_replayed = 0;  ///< intact records re-applied
  uint64_t wal_bytes_truncated = 0;   ///< torn/corrupt WAL tail removed
  uint64_t tables_loaded = 0;         ///< SSTables that passed checks
  uint64_t tables_quarantined = 0;    ///< corrupt SSTables set aside
  std::vector<std::string> quarantined_files;  ///< their new names

  /// Folds another (e.g. per-shard) report into this one.
  void Merge(const RecoveryReport& other);
};

/// One numbered WAL generation on disk, as exported to WAL shipping.
/// `size` is the file length at listing time; a concurrent appender
/// may have grown it since (readers parse only complete records, so a
/// stale size only delays data, never tears it).
struct WalGenerationInfo {
  uint64_t number = 0;
  uint64_t size = 0;
  std::string path;
};

/// A persistent ordered key/value store in the LSM architecture the
/// RocksDB wiki describes: WAL + skiplist memtable + immutable sorted
/// tables, with full merges once enough L0 tables accumulate. This is
/// the durable substrate under KBForge's knowledge bases, letting a
/// harvested KB survive restarts and scale past RAM-friendly loads.
///
/// Thread-safe, and built to stay readable under background IO:
///  - Writers queue and group-commit: one leader appends + fsyncs the
///    whole batch with the mutex released, so concurrent Puts share a
///    sync and never hold the lock across IO.
///  - Flushes and compactions run on a background pool. The mutex is
///    held only to swap the memtable to an immutable sibling or to
///    publish a new table list (a copy-on-write shared_ptr snapshot,
///    the same idiom as TripleStore::Snapshot), so Get/Scan never wait
///    for table IO.
///  - Scan pins a snapshot (memtable copies + the table-set version)
///    and iterates with the lock released, so the visitor may take as
///    long as it likes and may even reenter the store.
/// A failed background flush/compaction fail-stops subsequent writes
/// with the sticky error (reads keep serving); nothing acknowledged is
/// ever lost while the WAL files backing unflushed data remain.
class KVStore {
 public:
  /// Opens (or creates) a store in directory `path`, replaying any WAL.
  /// Strict: a corrupt SSTable fails the open with Corruption.
  static StatusOr<std::unique_ptr<KVStore>> Open(const StoreOptions& options,
                                                 const std::string& path);

  /// Crash-recovery open: replays the WAL files in order (truncating a
  /// torn tail), verifies every SSTable block checksum, and
  /// *quarantines* corrupt tables (renamed to <name>.quarantine)
  /// instead of aborting, so a store damaged by a crash or bit rot
  /// comes back up with every intact byte served and nothing corrupt
  /// returned to readers. `report` (optional) receives what was
  /// replayed/repaired.
  static StatusOr<std::unique_ptr<KVStore>> Recover(
      const StoreOptions& options, const std::string& path,
      RecoveryReport* report = nullptr);

  /// Blocks until all background work for this store has drained.
  ~KVStore();

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  /// Point lookup; NotFound if absent or deleted.
  Status Get(const Slice& key, std::string* value);

  /// Visits live entries with start <= key < end (empty end = no
  /// bound) in key order; newest version wins, tombstones are skipped.
  /// Return false from fn to stop. Returns Corruption if a table block
  /// fails its checksum mid-scan (entries already visited stand). The
  /// visitor runs with no store lock held and may reenter Get/Scan.
  Status Scan(const Slice& start, const Slice& end,
              const std::function<bool(const Slice&, const Slice&)>& fn);

  /// Forces the memtable into a new SSTable and waits for the write to
  /// complete (durability barrier).
  Status Flush();

  /// Merges all SSTables into one, dropping shadowed versions and
  /// tombstones. Runs on the calling thread; readers stay unblocked.
  Status CompactAll();

  size_t num_tables() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tables_->size();
  }
  StoreStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = StoreStats();
  }
  /// The block cache serving this store's tables (null when disabled).
  const std::shared_ptr<ShardedLruCache>& block_cache() const {
    return cache_;
  }

  /// The numbered WAL generations currently on disk, oldest first —
  /// the export surface for WAL shipping. With retain_wals this is the
  /// full prefix-closed write history; without it, only the logs still
  /// feeding the memtables. Quarantined logs are excluded.
  StatusOr<std::vector<WalGenerationInfo>> ListWalGenerations() const;

  const std::string& path() const { return path_; }
  Env* env() const { return env_; }

 private:
  /// One queued write; lives on its writer's stack for the duration of
  /// the blocking Put/Delete call.
  struct Writer {
    EntryType type;
    Slice key;
    Slice value;
    Status status;
    bool done = false;
  };
  struct TableEntry {
    std::shared_ptr<TableReader> table;
    uint64_t number;
  };
  /// Oldest first; readers search newest (back) to oldest (front).
  /// Published as shared_ptr-to-const: readers pin a version and drop
  /// the lock, writers publish a fresh vector (copy-on-write).
  using TableSet = std::vector<TableEntry>;

  KVStore(StoreOptions options, std::string path);

  static StatusOr<std::unique_ptr<KVStore>> OpenInternal(
      const StoreOptions& options, const std::string& path, bool repair,
      RecoveryReport* report);

  Status WriteInternal(EntryType type, const Slice& key, const Slice& value);
  Status LoadExistingTables(bool repair, RecoveryReport* report);
  Status ReplayWalsIntoMemtable(bool repair, RecoveryReport* report);
  std::string TableFileName(uint64_t number) const;
  std::string WalFileName(uint64_t number) const;

  /// Seals the current WAL, swaps mem_ into imm_ and schedules the
  /// background flush. Requires: lock held, imm_ == nullptr, no leader
  /// mid-IO (log_busy_ false).
  Status BeginFlushLocked(std::unique_lock<std::mutex>& lock);
  Status MaybeScheduleFlushLocked(std::unique_lock<std::mutex>& lock);
  void MaybeScheduleCompactionLocked();
  /// Background-task bodies (run on pool_).
  void BackgroundFlush();
  void BackgroundCompaction();
  /// Merges the pinned table set into one table and publishes it. Must
  /// be called with compaction_running_ claimed and the lock released.
  Status CompactOnce();

  StoreOptions options_;
  Env* env_;  ///< resolved from options_.env (never null)
  std::string path_;
  RetryPolicy retry_;
  std::shared_ptr<ShardedLruCache> cache_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable writers_cv_;  ///< writer queue + log_busy_
  std::condition_variable bg_cv_;       ///< background-task completion
  std::deque<Writer*> writers_;
  bool log_busy_ = false;  ///< a leader is doing WAL IO, lock released
  std::shared_ptr<MemTable> mem_;
  std::shared_ptr<MemTable> imm_;  ///< sealed memtable being flushed
  std::vector<std::string> mem_wal_paths_;  ///< logs feeding mem_
  std::vector<std::string> imm_wal_paths_;  ///< logs feeding imm_
  WalWriter wal_;
  bool wal_open_ = false;
  std::shared_ptr<const TableSet> tables_;
  uint64_t next_table_number_ = 1;
  uint64_t next_wal_number_ = 1;
  bool compaction_running_ = false;
  uint64_t pending_tasks_ = 0;  ///< scheduled-but-unfinished bg tasks
  Status bg_error_;  ///< sticky background failure; fail-stops writes
  StoreStats stats_;
};

/// The kv.cache_* counters (shared instruments for any block cache
/// serving KVStore tables).
ShardedLruCache::Instruments KvCacheInstruments();

}  // namespace storage
}  // namespace kb

#endif  // KBFORGE_STORAGE_KV_STORE_H_
