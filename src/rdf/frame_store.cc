#include "rdf/frame_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace kb {
namespace rdf {

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

/// Packs a sorted run as 12-byte {s,p,o} records.
std::string PackRun(const std::vector<Triple>& run) {
  std::string bytes(run.size() * FrameStore::kTripleRecordSize, '\0');
  char* p = bytes.data();
  for (const Triple& t : run) {
    StoreU32(p, t.s);
    StoreU32(p + 4, t.p);
    StoreU32(p + 8, t.o);
    p += FrameStore::kTripleRecordSize;
  }
  return bytes;
}

size_t AlignUp8(size_t n) { return (n + 7) & ~static_cast<size_t>(7); }

uint64_t RoundUpPow2(uint64_t n) {
  uint64_t v = 1;
  while (v < n) v <<= 1;
  return v;
}

/// Scan over one packed run; binary-searched to the pattern's bound
/// prefix like StoreSnapshot's MemScanIterator, but index-based over
/// the mapped records instead of pointer-based over a vector.
class FrameScanIterator : public ScanIterator {
 public:
  FrameScanIterator(std::shared_ptr<const FrameStore> store, ScanOrder order,
                    const TriplePattern& pattern)
      : store_(std::move(store)), order_(order), pattern_(pattern) {
    Triple as_triple(pattern.s, pattern.p, pattern.o);
    TermId key[3];
    ComponentsInOrder(order, as_triple, key);
    int prefix = BoundPrefixLength(order, pattern);
    TermId lo[3] = {0, 0, 0};
    TermId hi[3] = {kAnyTerm, kAnyTerm, kAnyTerm};
    for (int i = 0; i < prefix; ++i) lo[i] = hi[i] = key[i];
    idx_ = store_->LowerBound(order,
                              TripleFromOrder(order, lo[0], lo[1], lo[2]));
    // No valid triple carries a kAnyTerm component, so the hi key is a
    // strict upper bound of the prefix range.
    end_ = store_->UpperBound(order,
                              TripleFromOrder(order, hi[0], hi[1], hi[2]));
    SkipNonMatching();
  }

  bool Valid() const override { return idx_ < end_; }
  const Triple& Value() const override { return cur_; }

  void Next() override {
    ++idx_;
    SkipNonMatching();
  }

  void Seek(const Triple& target) override {
    size_t pos = store_->LowerBound(order_, target);
    if (pos > idx_) idx_ = pos;
    SkipNonMatching();
  }

  ScanOrder order() const override { return order_; }

 private:
  void SkipNonMatching() {
    while (idx_ < end_) {
      cur_ = store_->TripleAt(order_, idx_);
      if (pattern_.Matches(cur_)) return;
      ++idx_;
    }
  }

  std::shared_ptr<const FrameStore> store_;
  ScanOrder order_;
  TriplePattern pattern_;
  size_t idx_ = 0;
  size_t end_ = 0;
  Triple cur_;
};

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

  const uint32_t run_ids[3] = {kSectionSpo, kSectionPos, kSectionOsp};
  for (int i = 0; i < 3; ++i) {
    status = required(run_ids[i], &sec);
    if (!status.ok()) return status;
    if (sec.second != num_triples_ * kTripleRecordSize) {
      return Status::Corruption("triple run section size mismatch");
    }
    runs_[i] = sec.first;
  }

  if (options.verify_structure) return VerifyStructure();
  return Status::OK();
}

Status FrameStore::VerifyStructure() const {
  size_t live_slots = 0;
  for (uint64_t i = 0; i < dict_n_slots_; ++i) {
    uint32_t id = LoadU32(dict_slots_ + i * 4);
    if (id > num_terms_) {
      return Status::Corruption("dict slot references bad term id");
    }
    if (id != 0) ++live_slots;
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
    Triple prev;
    for (size_t i = 0; i < num_triples_; ++i) {
      Triple t = TripleAt(order, i);
      for (TermId id : {t.s, t.p, t.o}) {
        if (id == kInvalidTermId || id > num_terms_) {
          return Status::Corruption("triple references bad term id");
        }
      }
      if (i > 0 && !LessInOrder(order, prev, t)) {
        return Status::Corruption("triple run out of order");
      }
      prev = t;
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

Triple FrameStore::TripleAt(ScanOrder order, size_t idx) const {
  const char* rec =
      runs_[static_cast<int>(order)] + idx * kTripleRecordSize;
  return Triple(LoadU32(rec), LoadU32(rec + 4), LoadU32(rec + 8));
}

size_t FrameStore::LowerBound(ScanOrder order, const Triple& key) const {
  size_t lo = 0, hi = num_triples_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (LessInOrder(order, TripleAt(order, mid), key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t FrameStore::UpperBound(ScanOrder order, const Triple& key) const {
  size_t lo = 0, hi = num_triples_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (LessInOrder(order, key, TripleAt(order, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool FrameStore::Contains(const Triple& t) const {
  size_t idx = LowerBound(ScanOrder::kSpo, t);
  return idx < num_triples_ && TripleAt(ScanOrder::kSpo, idx) == t;
}

std::unique_ptr<ScanIterator> FrameStore::NewScan(
    const TriplePattern& pattern) const {
  ScanOrder order = ChooseScanOrder(pattern);
  return std::make_unique<FrameScanIterator>(shared_from_this(), order,
                                             pattern);
}

size_t FrameStore::EstimateCount(const TriplePattern& pattern) const {
  ScanOrder order = ChooseScanOrder(pattern);
  Triple as_triple(pattern.s, pattern.p, pattern.o);
  TermId key[3];
  ComponentsInOrder(order, as_triple, key);
  int prefix = BoundPrefixLength(order, pattern);
  TermId lo[3] = {0, 0, 0};
  TermId hi[3] = {kAnyTerm, kAnyTerm, kAnyTerm};
  for (int i = 0; i < prefix; ++i) lo[i] = hi[i] = key[i];
  size_t begin =
      LowerBound(order, TripleFromOrder(order, lo[0], lo[1], lo[2]));
  size_t end = UpperBound(order, TripleFromOrder(order, hi[0], hi[1], hi[2]));
  int bound = (pattern.s != kAnyTerm) + (pattern.p != kAnyTerm) +
              (pattern.o != kAnyTerm);
  if (prefix == bound) return end - begin;
  size_t n = 0;
  for (size_t i = begin; i < end; ++i) {
    if (pattern.Matches(TripleAt(order, i))) ++n;
  }
  return n;
}

std::vector<Triple> FrameStore::MatchFullScan(
    const TriplePattern& pattern) const {
  std::vector<Triple> out;
  for (size_t i = 0; i < num_triples_; ++i) {
    Triple t = TripleAt(ScanOrder::kSpo, i);
    if (pattern.Matches(t)) out.push_back(t);
  }
  return out;
}

bool FrameStore::section(uint32_t id, std::string_view* out) const {
  auto it = sections_.find(id);
  if (it == sections_.end()) return false;
  *out = std::string_view(it->second.first, it->second.second);
  return true;
}

}  // namespace rdf
}  // namespace kb
