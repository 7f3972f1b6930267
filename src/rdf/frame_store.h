#ifndef KBFORGE_RDF_FRAME_STORE_H_
#define KBFORGE_RDF_FRAME_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"
#include "util/status.h"
#include "util/statusor.h"

namespace kb {
namespace rdf {

/// FrameStore is the compact, read-only KB representation (the
/// SLING-frame-store idea): every term string lives in one contiguous
/// arena addressed by offsets, term records are fixed-width, the term
/// index is an open-addressing hash of plain u32 ids, and triples are
/// fixed-width {sid,pid,oid} records in SPO/POS/OSP sorted runs. There
/// are no pointers anywhere in the payload, so the whole store is one
/// memory-mappable blob: Attach() binds directly to the mapped bytes
/// and serves scans/lookups without deserializing anything.
///
/// Snapshot layout (all integers little-endian, sections 8-aligned):
///
///   header   { magic, version, file_size, kb_epoch, num_terms,
///              num_triples, num_entities, section_count, header_crc }
///   table    section_count x { id, flags, offset, size, crc, pad }
///   sections
///     1 term records   num_terms x 20B {kind, value_off, value_len,
///                                       extra_off, extra_len}
///     2 string arena   raw bytes, offsets from term records
///     3 dict index     u64 n_slots, then n_slots x u32 id (0 = empty;
///                      linear probing on HashTermParts & (n_slots-1))
///     4/5/6 runs       num_triples x 12B {s,p,o}, sorted in
///                      SPO / POS / OSP collation respectively; read
///                      in place as rdf::Triple, so Attach() needs a
///                      little-endian host and 4-aligned run sections
///     >= 16            opaque to this layer (core stores fact
///                      metadata in one; see kb_snapshot.cc)
///
/// header_crc covers the header (with the crc field zeroed) plus the
/// section table; each table entry carries a CRC of its section bytes,
/// so a torn write or bit flip anywhere in the file is detected at
/// Attach() time and the snapshot is refused.
class FrameStore : public TripleSource,
                   public TermCatalog,
                   public std::enable_shared_from_this<FrameStore> {
 public:
  static constexpr uint32_t kMagic = 0x5346424bu;  // "KBFS" little-endian
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kHeaderSize = 56;
  static constexpr size_t kSectionEntrySize = 32;
  static constexpr size_t kTermRecordSize = 20;
  static constexpr size_t kTripleRecordSize = 12;

  // Section ids.
  static constexpr uint32_t kSectionTermRecords = 1;
  static constexpr uint32_t kSectionArena = 2;
  static constexpr uint32_t kSectionDictIndex = 3;
  static constexpr uint32_t kSectionSpo = 4;
  static constexpr uint32_t kSectionPos = 5;
  static constexpr uint32_t kSectionOsp = 6;
  /// Ids at or above this are opaque payload sections owned by higher
  /// layers; Attach() only checks their CRCs.
  static constexpr uint32_t kFirstOpaqueSection = 16;
  static constexpr uint32_t kSectionFactMeta = 16;

  struct AttachOptions {
    /// CRC every section against the table (one linear pass). Leave on
    /// unless the bytes were checked out-of-band.
    bool verify_checksums = true;
    /// Structural validation: offsets in range, each term id in the
    /// dict index exactly once, runs strictly sorted.
    /// O(num_terms + num_triples).
    bool verify_structure = true;
  };

  /// Binds a store to serialized snapshot bytes. `owner` keeps the
  /// bytes alive (e.g. a mapped region or a std::string) and is held
  /// for the store's lifetime; the rdf layer never does file I/O
  /// itself. Returns InvalidArgument/Corruption on any malformed or
  /// checksum-failing input, and InvalidArgument when the run sections
  /// are not 4-aligned in memory — a refused snapshot is never
  /// partially attached.
  static StatusOr<std::shared_ptr<FrameStore>> Attach(
      const char* data, size_t size, std::shared_ptr<void> owner,
      const AttachOptions& options);
  static StatusOr<std::shared_ptr<FrameStore>> Attach(
      const char* data, size_t size, std::shared_ptr<void> owner) {
    return Attach(data, size, std::move(owner), AttachOptions());
  }

  ~FrameStore() override = default;

  // ---- header stats ----
  uint64_t epoch() const { return epoch_; }
  uint64_t num_entities() const { return num_entities_; }
  size_t num_terms() const { return num_terms_; }
  size_t size() const { return num_triples_; }

  // ---- term access (offset-based, allocation-free) ----

  /// Decoded view of one term record; string_views point into the
  /// mapped arena. `extra` is the language tag or datatype IRI.
  struct TermView {
    TermKind kind = TermKind::kIri;
    bool has_language = false;
    bool has_datatype = false;
    std::string_view value;
    std::string_view extra;
  };

  /// View of the term record for id in [1, num_terms()].
  TermView term_view(TermId id) const;

  /// Materializes a heap Term (the slow path; the executor should stay
  /// on ids and only materialize at Project).
  Term MaterializeTerm(TermId id) const;

  /// N-Triples surface form, rendered straight from the arena.
  std::string RenderTerm(TermId id) const;

  /// Hash-index lookup; kInvalidTermId if absent.
  TermId LookupTerm(const TermKey& key) const;
  TermId LookupTerm(const Term& term) const {
    return LookupTerm(TermKey::Of(term));
  }

  // ---- TermCatalog ----
  size_t catalog_size() const override { return num_terms_; }
  Term CatalogTerm(TermId id) const override { return MaterializeTerm(id); }
  TermId CatalogLookup(const TermKey& key) const override {
    return LookupTerm(key);
  }

  // ---- triple access ----

  /// The mapped §4/5/6 runs, viewed in place; valid for the store's
  /// lifetime.
  const TripleRuns& runs() const { return runs_; }
  bool Contains(const Triple& t) const { return runs_.Contains(t); }

  // TripleSource: id-native scans over the mapped runs.
  std::unique_ptr<ScanIterator> NewScan(
      const TriplePattern& pattern) const override;
  size_t EstimateCount(const TriplePattern& pattern) const override {
    return runs_.Range(pattern).size();
  }

  /// Raw bytes of a payload section, or empty view + false if the
  /// snapshot has no such section.
  bool section(uint32_t id, std::string_view* out) const;

 private:
  FrameStore() = default;

  Status Bind(const char* data, size_t size, const AttachOptions& options);
  Status VerifyStructure() const;

  const char* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<void> owner_;

  uint64_t epoch_ = 0;
  uint64_t num_entities_ = 0;
  size_t num_terms_ = 0;
  size_t num_triples_ = 0;

  const char* term_records_ = nullptr;
  const char* arena_ = nullptr;
  size_t arena_size_ = 0;
  const char* dict_slots_ = nullptr;
  uint64_t dict_n_slots_ = 0;
  TripleRuns runs_;

  std::map<uint32_t, std::pair<const char*, size_t>> sections_;
};

/// Accumulates a KB and emits one serialized FrameStore snapshot.
/// Terms must be added in id order starting at 1 (matching the
/// Dictionary they come from) so ids survive the round trip.
class FrameStoreBuilder {
 public:
  FrameStoreBuilder() = default;

  /// Appends the next term; returns its id (1, 2, 3, ...).
  TermId AddTerm(const Term& term);

  /// Adds one triple; all three ids must already be added terms by
  /// Serialize() time. Duplicates are rejected at Serialize().
  void AddTriple(const Triple& t);
  /// Adds a run of triples at once (taken over whole when it is the
  /// first); a run already in SPO order skips Serialize()'s SPO sort.
  void AddTriples(std::vector<Triple> run);

  void SetEpoch(uint64_t epoch) { epoch_ = epoch; }
  void SetNumEntities(uint64_t n) { num_entities_ = n; }

  /// Attaches an opaque payload section (id >= kFirstOpaqueSection).
  void SetSection(uint32_t id, std::string bytes);

  size_t num_terms() const { return num_terms_; }
  size_t num_triples() const { return triples_.size(); }

  /// Sorts the runs, builds the hash index and emits the snapshot
  /// bytes. The builder is consumed. Fails on duplicate terms or
  /// triples and on out-of-range ids.
  StatusOr<std::string> Serialize();

 private:
  uint64_t epoch_ = 0;
  uint64_t num_entities_ = 0;
  size_t num_terms_ = 0;
  std::string term_records_;
  std::string arena_;
  std::vector<uint64_t> term_hashes_;  // parallel to term ids
  std::vector<Triple> triples_;
  std::map<uint32_t, std::string> extra_sections_;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_FRAME_STORE_H_
