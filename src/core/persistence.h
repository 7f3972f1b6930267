#ifndef KBFORGE_CORE_PERSISTENCE_H_
#define KBFORGE_CORE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "core/knowledge_base.h"
#include "storage/sharded_kv_store.h"

namespace kb {
namespace core {

/// Durable storage for knowledge bases on the LSM engine. Layout in
/// one KVStore keyspace:
///   'D' <varint term-id>          -> N-Triples term text
///   'S' triple keys (SPO order)   -> fact metadata (or empty)
///   'X' <class-pair>              -> "" (taxonomy subclass edges)
///   'M' "next_term"               -> varint high-water term id
/// Triples are stored once, in SPO order: Load and ApplyInto rebuild
/// the in-memory indexes from that one copy. Stores written before the
/// 'P'/'O' copies were dropped still load; those keys are ignored. The
/// checkpointed harvest (core/harvest_checkpoint) stores its state
/// under the reserved prefixes 'F' (accepted facts by statement
/// identity) and 'C' (progress cursor) in the same keyspace.
///
/// Backed by a ShardedKVStore: keys hash-partition across independent
/// LSM shards (parallel harvest writers land on disjoint locks/WALs)
/// while Scan still yields one globally ordered stream, so the layout
/// above is unchanged from the single-store engine's point of view.
class KbStorage {
 public:
  /// Opens (or creates) the storage directory. The default options
  /// skip per-record WAL fsyncs: Save is a bulk load that ends in
  /// Flush, and the SSTable write itself syncs.
  static StatusOr<std::unique_ptr<KbStorage>> Open(const std::string& path);
  /// Convenience overload: per-shard engine options with the default
  /// shard layout.
  static StatusOr<std::unique_ptr<KbStorage>> Open(
      const std::string& path, const storage::StoreOptions& options);
  static StatusOr<std::unique_ptr<KbStorage>> Open(
      const std::string& path, const storage::ShardedStoreOptions& options);

  /// Crash-tolerant open: replays the WAL and quarantines corrupt
  /// SSTables instead of failing (see KVStore::Recover). Used by the
  /// harvest-checkpoint resume path, where a half-written checkpoint
  /// must not brick the whole harvest.
  static StatusOr<std::unique_ptr<KbStorage>> Recover(
      const std::string& path, storage::RecoveryReport* report = nullptr);

  /// Writes the whole KB. Existing content is logically replaced
  /// (same-key overwrites; stale keys from a previous, larger KB are
  /// not chased — use a fresh directory for snapshots).
  Status Save(const KnowledgeBase& kb);

  /// Writes only the KB's delta against its snapshot base: overlay
  /// dictionary terms, delta triples, and any triple whose metadata
  /// was touched (plus the terms those triples reference, so the delta
  /// stays self-describing — replayable onto an empty KB as well as
  /// onto the base it was written against). On a plain KB this
  /// degenerates to Save. The KbVolume delta-shipping path.
  Status SaveOverlay(const KnowledgeBase& kb);

  /// Reconstructs a KB from storage.
  StatusOr<std::unique_ptr<KnowledgeBase>> Load();

  /// Replays this storage's dictionary and SPO keyspace into an
  /// existing KB: terms are re-interned by text (ids remap), triples
  /// are added idempotently, stored metadata overwrites. Used by
  /// KbVolume to apply delta generations over a snapshot-booted KB;
  /// the caller rebuilds derived indexes afterwards.
  Status ApplyInto(KnowledgeBase* kb);

  /// Durability/compaction passthroughs.
  Status Flush() { return store_->Flush(); }
  Status Compact() { return store_->CompactAll(); }
  storage::ShardedKVStore* store() { return store_.get(); }

 private:
  explicit KbStorage(std::unique_ptr<storage::ShardedKVStore> store)
      : store_(std::move(store)) {}

  std::unique_ptr<storage::ShardedKVStore> store_;
};

}  // namespace core
}  // namespace kb

#endif  // KBFORGE_CORE_PERSISTENCE_H_
