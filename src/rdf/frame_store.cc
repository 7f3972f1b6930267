#include "rdf/frame_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace kb {
namespace rdf {

// A run record is read in place as a Triple and written as a Triple's
// bytes, so Triple must be the record: three little-endian u32s.
static_assert(std::endian::native == std::endian::little,
              "run records are little-endian Triples");
static_assert(std::is_trivially_copyable_v<Triple> &&
                  sizeof(Triple) == FrameStore::kTripleRecordSize &&
                  alignof(Triple) == 4 && offsetof(Triple, s) == 0 &&
                  offsetof(Triple, p) == 4 && offsetof(Triple, o) == 8,
              "a run record is {u32 s, u32 p, u32 o}");

namespace {

// Offsets into the fixed-size header.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffFileSize = 8;
constexpr size_t kOffEpoch = 16;
constexpr size_t kOffNumTerms = 24;
constexpr size_t kOffNumTriples = 32;
constexpr size_t kOffNumEntities = 40;
constexpr size_t kOffSectionCount = 48;
constexpr size_t kOffHeaderCrc = 52;

constexpr size_t kMaxSectionCount = 1024;

// Unaligned little-endian loads. memcpy keeps this strict-aliasing and
// UBSan clean and compiles to a single mov on x86-64.
uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

/// A sorted run's bytes: its Triples are its 12-byte records.
std::string PackRun(const std::vector<Triple>& run) {
  return std::string(reinterpret_cast<const char*>(run.data()),
                     run.size() * sizeof(Triple));
}

size_t AlignUp8(size_t n) { return (n + 7) & ~static_cast<size_t>(7); }

uint64_t RoundUpPow2(uint64_t n) {
  uint64_t v = 1;
  while (v < n) v <<= 1;
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameStoreBuilder

TermId FrameStoreBuilder::AddTerm(const Term& term) {
  const TermKey key = TermKey::Of(term);
  PutFixed32(&term_records_, key.code);
  PutFixed32(&term_records_, static_cast<uint32_t>(arena_.size()));
  PutFixed32(&term_records_, static_cast<uint32_t>(key.head.size()));
  arena_.append(key.head);
  PutFixed32(&term_records_, static_cast<uint32_t>(arena_.size()));
  PutFixed32(&term_records_, static_cast<uint32_t>(key.extra.size()));
  arena_.append(key.extra);
  term_hashes_.push_back(key.hash);
  return static_cast<TermId>(++num_terms_);
}

void FrameStoreBuilder::AddTriple(const Triple& t) { triples_.push_back(t); }

void FrameStoreBuilder::AddTriples(std::vector<Triple> run) {
  if (triples_.empty()) {
    triples_ = std::move(run);
  } else {
    triples_.insert(triples_.end(), run.begin(), run.end());
  }
}

void FrameStoreBuilder::SetSection(uint32_t id, std::string bytes) {
  KB_CHECK(id >= FrameStore::kFirstOpaqueSection)
      << "section id " << id << " is reserved for the frame store";
  extra_sections_[id] = std::move(bytes);
}

StatusOr<std::string> FrameStoreBuilder::Serialize() {
  if (num_terms_ > 0xfffffffeull) {
    return Status::InvalidArgument("too many terms for 32-bit ids");
  }
  for (const Triple& t : triples_) {
    for (TermId id : {t.s, t.p, t.o}) {
      if (id == kInvalidTermId || id > num_terms_) {
        return Status::InvalidArgument("triple references unknown term id " +
                                       std::to_string(id));
      }
    }
  }

  // The dict index: open addressing, linear probing, >= 2x load slack.
  uint64_t n_slots = RoundUpPow2(std::max<uint64_t>(2, 2 * num_terms_));
  std::vector<uint32_t> slots(n_slots, 0);
  for (TermId id = 1; id <= num_terms_; ++id) {
    uint64_t idx = term_hashes_[id - 1] & (n_slots - 1);
    while (slots[idx] != 0) {
      const char* a = term_records_.data() +
                      (static_cast<size_t>(slots[idx]) - 1) *
                          FrameStore::kTermRecordSize;
      const char* b = term_records_.data() +
                      (static_cast<size_t>(id) - 1) *
                          FrameStore::kTermRecordSize;
      auto bytes = [this](const char* rec, size_t field) {
        return std::string_view(arena_.data() + LoadU32(rec + 4 * field),
                                LoadU32(rec + 4 * (field + 1)));
      };
      if (LoadU32(a) == LoadU32(b) && bytes(a, 1) == bytes(b, 1) &&
          bytes(a, 3) == bytes(b, 3)) {
        return Status::InvalidArgument("duplicate term at id " +
                                       std::to_string(id));
      }
      idx = (idx + 1) & (n_slots - 1);
    }
    slots[idx] = id;
  }
  std::string dict_bytes;
  PutFixed64(&dict_bytes, n_slots);
  dict_bytes.resize(dict_bytes.size() + 4 * slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    StoreU32(dict_bytes.data() + 8 + 4 * i, slots[i]);
  }

  // The three sorted runs, each sorted in place from the previous one
  // (the builder is consumed). Triples are deduped in SPO; POS/OSP are
  // permutations of the same set, so one check suffices.
  SortRun(&triples_, ScanOrder::kSpo);
  for (size_t i = 1; i < triples_.size(); ++i) {
    if (triples_[i] == triples_[i - 1]) {
      return Status::InvalidArgument("duplicate triple in builder");
    }
  }
  const uint64_t num_triples = triples_.size();
  const std::string spo_bytes = PackRun(triples_);
  SortRun(&triples_, ScanOrder::kPos);
  const std::string pos_bytes = PackRun(triples_);
  SortRun(&triples_, ScanOrder::kOsp);
  const std::string osp_bytes = PackRun(triples_);
  std::vector<Triple>().swap(triples_);  // freed before the file is built

  std::vector<std::pair<uint32_t, const std::string*>> sections = {
      {FrameStore::kSectionTermRecords, &term_records_},
      {FrameStore::kSectionArena, &arena_},
      {FrameStore::kSectionDictIndex, &dict_bytes},
      {FrameStore::kSectionSpo, &spo_bytes},
      {FrameStore::kSectionPos, &pos_bytes},
      {FrameStore::kSectionOsp, &osp_bytes},
  };
  for (const auto& [id, bytes] : extra_sections_) {
    sections.emplace_back(id, &bytes);
  }

  // Each section starts at the next 8-aligned offset after the one
  // before it; the first follows the section table.
  const size_t table_end = FrameStore::kHeaderSize +
                           sections.size() * FrameStore::kSectionEntrySize;
  std::string table;
  std::vector<size_t> offsets;
  size_t file_size = table_end;
  for (const auto& [id, bytes] : sections) {
    const size_t offset = AlignUp8(file_size);
    offsets.push_back(offset);
    file_size = offset + bytes->size();
    PutFixed32(&table, id);
    PutFixed32(&table, 0);  // flags
    PutFixed64(&table, offset);
    PutFixed64(&table, bytes->size());
    PutFixed32(&table, Crc32(bytes->data(), bytes->size()));
    PutFixed32(&table, 0);  // pad
  }

  std::string out;
  out.reserve(file_size);
  PutFixed32(&out, FrameStore::kMagic);
  PutFixed32(&out, FrameStore::kVersion);
  PutFixed64(&out, file_size);
  PutFixed64(&out, epoch_);
  PutFixed64(&out, num_terms_);
  PutFixed64(&out, num_triples);
  PutFixed64(&out, num_entities_);
  PutFixed32(&out, static_cast<uint32_t>(sections.size()));
  PutFixed32(&out, 0);  // header_crc, patched below
  KB_CHECK(out.size() == FrameStore::kHeaderSize);
  out += table;
  StoreU32(out.data() + kOffHeaderCrc, Crc32(out.data(), out.size()));
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(offsets[i], '\0');
    out += *sections[i].second;
  }
  return out;
}

// ---------------------------------------------------------------------------
// FrameStore

StatusOr<std::shared_ptr<FrameStore>> FrameStore::Attach(
    const char* data, size_t size, std::shared_ptr<void> owner,
    const AttachOptions& options) {
  auto store = std::shared_ptr<FrameStore>(new FrameStore());
  store->owner_ = std::move(owner);
  Status status = store->Bind(data, size, options);
  if (!status.ok()) return status;
  return store;
}

Status FrameStore::Bind(const char* data, size_t size,
                        const AttachOptions& options) {
  data_ = data;
  size_ = size;
  if (size < kHeaderSize) return Status::Corruption("snapshot too small");
  if (LoadU32(data + kOffMagic) != kMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  if (LoadU32(data + kOffVersion) != kVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " +
        std::to_string(LoadU32(data + kOffVersion)));
  }
  if (LoadU64(data + kOffFileSize) != size) {
    return Status::Corruption("snapshot truncated: header says " +
                              std::to_string(LoadU64(data + kOffFileSize)) +
                              " bytes, have " + std::to_string(size));
  }
  uint32_t section_count = LoadU32(data + kOffSectionCount);
  if (section_count < 6 || section_count > kMaxSectionCount) {
    return Status::Corruption("implausible section count " +
                              std::to_string(section_count));
  }
  size_t table_end = kHeaderSize + section_count * kSectionEntrySize;
  if (table_end > size) return Status::Corruption("section table truncated");

  // The header CRC covers header + table with the crc field zeroed.
  std::string prefix(data, table_end);
  uint32_t stored_crc = LoadU32(data + kOffHeaderCrc);
  prefix[kOffHeaderCrc] = prefix[kOffHeaderCrc + 1] =
      prefix[kOffHeaderCrc + 2] = prefix[kOffHeaderCrc + 3] = '\0';
  if (Crc32(prefix.data(), prefix.size()) != stored_crc) {
    return Status::Corruption("snapshot header checksum mismatch");
  }

  epoch_ = LoadU64(data + kOffEpoch);
  num_terms_ = static_cast<size_t>(LoadU64(data + kOffNumTerms));
  num_triples_ = static_cast<size_t>(LoadU64(data + kOffNumTriples));
  num_entities_ = LoadU64(data + kOffNumEntities);

  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = data + kHeaderSize + i * kSectionEntrySize;
    uint32_t id = LoadU32(entry);
    uint64_t offset = LoadU64(entry + 8);
    uint64_t sec_size = LoadU64(entry + 16);
    uint32_t crc = LoadU32(entry + 24);
    if (offset < table_end || offset > size || sec_size > size - offset) {
      return Status::Corruption("section " + std::to_string(id) +
                                " out of bounds");
    }
    if (sections_.count(id) > 0) {
      return Status::Corruption("duplicate section " + std::to_string(id));
    }
    if (options.verify_checksums &&
        Crc32(data + offset, sec_size) != crc) {
      return Status::Corruption("section " + std::to_string(id) +
                                " checksum mismatch");
    }
    sections_[id] = {data + offset, static_cast<size_t>(sec_size)};
  }

  auto required = [this](uint32_t id,
                         std::pair<const char*, size_t>* out) -> Status {
    auto it = sections_.find(id);
    if (it == sections_.end()) {
      return Status::Corruption("missing section " + std::to_string(id));
    }
    *out = it->second;
    return Status::OK();
  };
  std::pair<const char*, size_t> sec;
  Status status = required(kSectionTermRecords, &sec);
  if (!status.ok()) return status;
  if (sec.second != num_terms_ * kTermRecordSize) {
    return Status::Corruption("term record section size mismatch");
  }
  term_records_ = sec.first;

  status = required(kSectionArena, &sec);
  if (!status.ok()) return status;
  arena_ = sec.first;
  arena_size_ = sec.second;

  status = required(kSectionDictIndex, &sec);
  if (!status.ok()) return status;
  if (sec.second < 8) return Status::Corruption("dict index truncated");
  dict_n_slots_ = LoadU64(sec.first);
  if (dict_n_slots_ == 0 || (dict_n_slots_ & (dict_n_slots_ - 1)) != 0 ||
      sec.second != 8 + dict_n_slots_ * 4) {
    return Status::Corruption("dict index malformed");
  }
  dict_slots_ = sec.first + 8;

  std::span<const Triple>* runs[3] = {&runs_.spo, &runs_.pos, &runs_.osp};
  const uint32_t run_ids[3] = {kSectionSpo, kSectionPos, kSectionOsp};
  for (int i = 0; i < 3; ++i) {
    status = required(run_ids[i], &sec);
    if (!status.ok()) return status;
    if (sec.second != num_triples_ * kTripleRecordSize) {
      return Status::Corruption("triple run section size mismatch");
    }
    // Sections are 8-aligned in the file, so this fails only when the
    // bytes themselves sit at an address that is not.
    if (reinterpret_cast<uintptr_t>(sec.first) % alignof(Triple) != 0) {
      return Status::InvalidArgument(
          "triple run section is not 4-aligned in memory");
    }
    *runs[i] = {reinterpret_cast<const Triple*>(sec.first), num_triples_};
  }

  if (options.verify_structure) return VerifyStructure();
  return Status::OK();
}

Status FrameStore::VerifyStructure() const {
  // Every term id in exactly one slot: a missing id is unreachable by
  // LookupTerm, so interning its term again would mint a second id.
  std::vector<bool> listed(num_terms_ + 1, false);
  size_t live_slots = 0;
  for (uint64_t i = 0; i < dict_n_slots_; ++i) {
    uint32_t id = LoadU32(dict_slots_ + i * 4);
    if (id > num_terms_) {
      return Status::Corruption("dict slot references bad term id");
    }
    if (id == 0) continue;
    if (listed[id]) {
      return Status::Corruption("dict index lists term id " +
                                std::to_string(id) + " twice");
    }
    listed[id] = true;
    ++live_slots;
  }
  if (live_slots != num_terms_) {
    return Status::Corruption("dict index does not cover the term set");
  }
  for (size_t i = 0; i < num_terms_; ++i) {
    const char* rec = term_records_ + i * kTermRecordSize;
    uint32_t code = LoadU32(rec);
    uint64_t value_end =
        static_cast<uint64_t>(LoadU32(rec + 4)) + LoadU32(rec + 8);
    uint64_t extra_end =
        static_cast<uint64_t>(LoadU32(rec + 12)) + LoadU32(rec + 16);
    if (code > kMaxTermCode || value_end > arena_size_ ||
        extra_end > arena_size_) {
      return Status::Corruption("term record " + std::to_string(i + 1) +
                                " malformed");
    }
  }
  for (ScanOrder order :
       {ScanOrder::kSpo, ScanOrder::kPos, ScanOrder::kOsp}) {
    const std::span<const Triple> run = runs_.run(order);
    for (size_t i = 0; i < run.size(); ++i) {
      const Triple& t = run[i];
      for (TermId id : {t.s, t.p, t.o}) {
        if (id == kInvalidTermId || id > num_terms_) {
          return Status::Corruption("triple references bad term id");
        }
      }
      if (i > 0 && !LessInOrder(order, run[i - 1], t)) {
        return Status::Corruption("triple run out of order");
      }
    }
  }
  return Status::OK();
}

FrameStore::TermView FrameStore::term_view(TermId id) const {
  KB_CHECK(id != kInvalidTermId && id <= num_terms_)
      << "bad frame term id " << id;
  const char* rec =
      term_records_ + (static_cast<size_t>(id) - 1) * kTermRecordSize;
  uint32_t code = LoadU32(rec);
  TermView view;
  view.kind = code == kCodeIri
                  ? TermKind::kIri
                  : (code == kCodeBlank ? TermKind::kBlank
                                        : TermKind::kLiteral);
  view.has_language = code == kCodeLangLiteral;
  view.has_datatype = code == kCodeTypedLiteral;
  view.value = std::string_view(arena_ + LoadU32(rec + 4), LoadU32(rec + 8));
  view.extra =
      std::string_view(arena_ + LoadU32(rec + 12), LoadU32(rec + 16));
  return view;
}

Term FrameStore::MaterializeTerm(TermId id) const {
  TermView view = term_view(id);
  switch (view.kind) {
    case TermKind::kIri:
      return Term::Iri(std::string(view.value));
    case TermKind::kBlank:
      return Term::Blank(std::string(view.value));
    case TermKind::kLiteral:
      if (view.has_language) {
        return Term::LangLiteral(std::string(view.value),
                                 std::string(view.extra));
      }
      if (view.has_datatype) {
        return Term::TypedLiteral(std::string(view.value),
                                  std::string(view.extra));
      }
      return Term::Literal(std::string(view.value));
  }
  return Term();
}

std::string FrameStore::RenderTerm(TermId id) const {
  TermView view = term_view(id);
  std::string out;
  out.reserve(view.value.size() + view.extra.size() + 8);
  switch (view.kind) {
    case TermKind::kIri:
      out.push_back('<');
      out.append(view.value);
      out.push_back('>');
      break;
    case TermKind::kBlank:
      out.append("_:");
      out.append(view.value);
      break;
    case TermKind::kLiteral:
      out.push_back('"');
      out.append(EscapeNTriples(view.value));
      out.push_back('"');
      if (view.has_language) {
        out.push_back('@');
        out.append(view.extra);
      } else if (view.has_datatype) {
        out.append("^^<");
        out.append(view.extra);
        out.push_back('>');
      }
      break;
  }
  return out;
}

TermId FrameStore::LookupTerm(const TermKey& key) const {
  uint64_t idx = key.hash & (dict_n_slots_ - 1);
  for (uint64_t probes = 0; probes < dict_n_slots_; ++probes) {
    uint32_t id = LoadU32(dict_slots_ + idx * 4);
    if (id == 0) return kInvalidTermId;
    const char* rec =
        term_records_ + (static_cast<size_t>(id) - 1) * kTermRecordSize;
    if (key.Matches(static_cast<uint8_t>(LoadU32(rec)),
                    std::string_view(arena_ + LoadU32(rec + 4),
                                     LoadU32(rec + 8)),
                    std::string_view(arena_ + LoadU32(rec + 12),
                                     LoadU32(rec + 16)))) {
      return id;
    }
    idx = (idx + 1) & (dict_n_slots_ - 1);
  }
  return kInvalidTermId;
}

std::unique_ptr<ScanIterator> FrameStore::NewScan(
    const TriplePattern& pattern) const {
  return std::make_unique<RunScanIterator>(
      shared_from_this(), runs_.Range(pattern), ChooseScanOrder(pattern));
}

bool FrameStore::section(uint32_t id, std::string_view* out) const {
  auto it = sections_.find(id);
  if (it == sections_.end()) return false;
  *out = std::string_view(it->second.first, it->second.second);
  return true;
}

}  // namespace rdf
}  // namespace kb
