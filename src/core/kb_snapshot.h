#ifndef KBFORGE_CORE_KB_SNAPSHOT_H_
#define KBFORGE_CORE_KB_SNAPSHOT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/knowledge_base.h"
#include "rdf/frame_store.h"
#include "storage/env.h"

namespace kb {
namespace core {

/// Options for attaching a snapshot file (checksum/structure checks
/// forwarded to FrameStore::Attach).
struct SnapshotOpenOptions {
  rdf::FrameStore::AttachOptions attach;
};

/// Serializes the KB's full merged view (snapshot base + delta) into
/// one FrameStore blob: dictionary terms in id order, the triples in
/// SPO order (TripleStore::SpoTriples, so each permutation is sorted
/// once), fact metadata packed into section 16 and the write
/// epoch/entity count in the header. The KB must be quiesced —
/// serialization reads store()/meta_map() outside the KB lock, like
/// KbStorage::Save.
StatusOr<std::string> SerializeKbSnapshot(const KnowledgeBase& kb);

/// SerializeKbSnapshot + atomic publish: bytes go to `path + ".tmp"`
/// (synced) and are renamed into place, so a crash mid-write leaves
/// either the old snapshot or a temp file that is never opened.
Status WriteKbSnapshot(storage::Env* env, const std::string& path,
                       const KnowledgeBase& kb);

/// Maps `path` through the Env seam and attaches a FrameStore to the
/// bytes (the mapping is owned by the returned store). Corrupt, torn
/// or truncated files are refused with Corruption/InvalidArgument —
/// never partially attached.
StatusOr<std::shared_ptr<const rdf::FrameStore>> OpenKbSnapshot(
    storage::Env* env, const std::string& path,
    const SnapshotOpenOptions& options);
inline StatusOr<std::shared_ptr<const rdf::FrameStore>> OpenKbSnapshot(
    storage::Env* env, const std::string& path) {
  return OpenKbSnapshot(env, path, SnapshotOpenOptions());
}

/// A KB home directory combining snapshot generations with LSM deltas:
///
///   <dir>/CURRENT                 "NNNNNN\n" — newest published gen
///   <dir>/snapshot-NNNNNN.kbsnap  FrameStore snapshot (gen >= 1)
///   <dir>/delta-NNNNNN/           KbStorage holding writes made while
///                                 generation N was current
///
/// Generation 0 is the implicit empty base: a volume that has never
/// checkpointed keeps its whole KB in delta-000000 and Load()
/// degenerates to the legacy WAL-replay path (the cold-start baseline
/// E17 measures against). Checkpoint() compacts base+delta into
/// snapshot generation N+1 and publishes it via temp-file + rename, so
/// the publish is atomic; old generations are kept, which is what
/// makes corruption fallback possible.
///
/// Load() walks generations newest-first: a snapshot that fails
/// checksum/structure verification (torn write, bit flip) is recorded
/// in LoadResult::refused and the next older generation is tried,
/// down to generation 0 (pure replay). Deltas with index >= the booted
/// generation are replayed in ascending order — they are
/// self-describing and idempotent, so replaying a delta that was
/// already compacted into the booted snapshot is harmless.
class KbVolume {
 public:
  struct LoadResult {
    std::unique_ptr<KnowledgeBase> kb;
    /// Generation actually booted from (0 = pure replay).
    uint64_t generation = 0;
    bool from_snapshot = false;
    /// Snapshot files refused as corrupt, with the refusal reason.
    std::vector<std::string> refused;
  };

  /// Opens (or creates) the volume directory. `env` may be null for
  /// Env::Default(); it must outlive the volume.
  static StatusOr<std::unique_ptr<KbVolume>> Open(storage::Env* env,
                                                  const std::string& dir);

  /// Boots a KB: newest valid snapshot + delta replay (see class doc).
  StatusOr<LoadResult> Load(const SnapshotOpenOptions& options);
  StatusOr<LoadResult> Load() { return Load(SnapshotOpenOptions()); }

  /// Persists the KB's current delta into this generation's delta
  /// store (KbStorage::SaveOverlay). The KB must be quiesced.
  Status SaveDelta(const KnowledgeBase& kb);

  /// Compacts the KB's base+delta into snapshot generation N+1,
  /// publishes it, and swaps `*kb` onto the new base (the delta is
  /// emptied; epoch and content are preserved, so result caches keyed
  /// by epoch stay valid). Returns the new generation number. On
  /// error the old generation stays current and `*kb` is untouched.
  StatusOr<uint64_t> Checkpoint(KnowledgeBase* kb);

  uint64_t current_generation() const { return current_gen_; }
  const std::string& dir() const { return dir_; }
  std::string SnapshotPath(uint64_t gen) const;
  std::string DeltaDir(uint64_t gen) const;

 private:
  KbVolume(storage::Env* env, std::string dir)
      : env_(env), dir_(std::move(dir)) {}

  Status PublishCurrent(uint64_t gen);
  Status ApplyDelta(uint64_t gen, KnowledgeBase* kb) const;

  storage::Env* env_;
  std::string dir_;
  uint64_t current_gen_ = 0;
};

/// Packed fact-metadata codec for FrameStore section 16: fixed-width
/// 40-byte records sorted by (s, p, o) — {s,p,o: u32, confidence
/// bits: u64, support: u32, extractor: u32, begin/end dates: i32 year
/// + u8 month + u8 day each} — so one triple's metadata is a binary
/// search away from the mapped bytes, no deserialization up front.
constexpr size_t kPackedMetaRecordSize = 40;

/// Packs the written entries of `metas` (from_base ones are skipped),
/// ordered by one SortRun pass and merged in one linear pass with the
/// records of `base` (a section this encoder wrote earlier): a triple in
/// both keeps its `metas` entry. A `base` whose size is not a whole
/// number of records is ignored, as DecodeAllPackedMeta ignores it.
std::string EncodePackedMeta(const FactMetaTable& metas,
                             std::string_view base = std::string_view());
bool LookupPackedMeta(std::string_view section, const rdf::Triple& t,
                      FactMeta* out);
void DecodeAllPackedMeta(std::string_view section,
                         std::map<rdf::Triple, FactMeta>* out);

}  // namespace core
}  // namespace kb

#endif  // KBFORGE_CORE_KB_SNAPSHOT_H_
