#include "core/kb_snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/persistence.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace kb {
namespace core {

namespace {

constexpr char kCurrentName[] = "CURRENT";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".kbsnap";
constexpr char kDeltaPrefix[] = "delta-";

std::string GenName(const char* prefix, uint64_t gen, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", prefix,
                static_cast<unsigned long long>(gen), suffix);
  return buf;
}

bool ParseGenName(const std::string& name, const std::string& prefix,
                  const std::string& suffix, uint64_t* gen) {
  if (name.size() != prefix.size() + 6 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (!suffix.empty() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 6; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *gen = v;
  return true;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

rdf::Triple RecordTriple(const char* rec) {
  return rdf::Triple(LoadU32(rec), LoadU32(rec + 4), LoadU32(rec + 8));
}

void RecordMeta(const char* rec, FactMeta* out) {
  uint64_t bits;
  std::memcpy(&bits, rec + 12, sizeof(bits));
  std::memcpy(&out->confidence, &bits, sizeof(out->confidence));
  out->support = LoadU32(rec + 20);
  out->extractor = LoadU32(rec + 24);
  auto date = [](const char* p, Date* d) {
    d->year = static_cast<int32_t>(LoadU32(p));
    d->month = static_cast<int8_t>(p[4]);
    d->day = static_cast<int8_t>(p[5]);
  };
  date(rec + 28, &out->valid_time.begin);
  date(rec + 34, &out->valid_time.end);
}

}  // namespace

std::string EncodePackedMeta(const FactMetaTable& metas,
                             std::string_view base) {
  if (base.size() % kPackedMetaRecordSize != 0) base = std::string_view();
  // Entries that only mirror a base record add nothing to the merge.
  std::vector<rdf::Triple> keys;
  keys.reserve(metas.size());
  for (const FactMetaTable::Entry& entry : metas) {
    if (!entry.from_base) keys.push_back(entry.triple);
  }
  rdf::SortRun(&keys, rdf::ScanOrder::kSpo);
  std::string out;
  out.reserve(base.size() + keys.size() * kPackedMetaRecordSize);
  auto put = [&out, &metas](const rdf::Triple& t) {
    const FactMeta& meta = metas.Find(t)->meta;
    PutFixed32(&out, t.s);
    PutFixed32(&out, t.p);
    PutFixed32(&out, t.o);
    uint64_t bits = 0;
    std::memcpy(&bits, &meta.confidence, sizeof(bits));
    PutFixed64(&out, bits);
    PutFixed32(&out, meta.support);
    PutFixed32(&out, meta.extractor);
    auto put_date = [&out](const Date& d) {
      PutFixed32(&out, static_cast<uint32_t>(d.year));
      out.push_back(static_cast<char>(d.month));
      out.push_back(static_cast<char>(d.day));
    };
    put_date(meta.valid_time.begin);
    put_date(meta.valid_time.end);
  };
  // One merge pass over the keys in SPO order, the (s, p, o) order the
  // base records are in and LookupPackedMeta relies on. A base record is
  // copied as it is unless `metas` overrides it.
  auto it = keys.begin();
  for (size_t off = 0; off < base.size(); off += kPackedMetaRecordSize) {
    const char* rec = base.data() + off;
    const rdf::Triple t = RecordTriple(rec);
    for (; it != keys.end() && *it < t; ++it) put(*it);
    if (it != keys.end() && *it == t) {
      put(*it);
      ++it;
    } else {
      out.append(rec, kPackedMetaRecordSize);
    }
  }
  for (; it != keys.end(); ++it) put(*it);
  return out;
}

bool LookupPackedMeta(std::string_view section, const rdf::Triple& t,
                      FactMeta* out) {
  if (section.size() % kPackedMetaRecordSize != 0) return false;
  const size_t n = section.size() / kPackedMetaRecordSize;
  size_t lo = 0, hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (RecordTriple(section.data() + mid * kPackedMetaRecordSize) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == n) return false;
  const char* rec = section.data() + lo * kPackedMetaRecordSize;
  if (!(RecordTriple(rec) == t)) return false;
  RecordMeta(rec, out);
  return true;
}

void DecodeAllPackedMeta(std::string_view section,
                         std::map<rdf::Triple, FactMeta>* out) {
  if (section.size() % kPackedMetaRecordSize != 0) return;
  for (size_t off = 0; off + kPackedMetaRecordSize <= section.size();
       off += kPackedMetaRecordSize) {
    const char* rec = section.data() + off;
    FactMeta meta;
    RecordMeta(rec, &meta);
    (*out)[RecordTriple(rec)] = meta;
  }
}

StatusOr<std::string> SerializeKbSnapshot(const KnowledgeBase& kb) {
  const rdf::Dictionary& dict = kb.store().dict();
  rdf::FrameStoreBuilder builder;
  uint64_t entities = 0;
  for (rdf::TermId id = 1; id <= dict.size(); ++id) {
    const rdf::Term& term = dict.term(id);
    builder.AddTerm(term);
    if (term.is_iri() && StartsWith(term.value(), rdf::kEntityNs)) {
      ++entities;
    }
  }
  builder.AddTriples(kb.store().SpoTriples());
  // Metadata: the base snapshot's packed section (if any) overlaid
  // with the metadata written in memory, so merged support/confidence
  // from this generation's writes survives the compaction.
  std::string_view base_meta;
  if (kb.store().base() != nullptr) {
    kb.store().base()->section(rdf::FrameStore::kSectionFactMeta,
                               &base_meta);
  }
  std::string metas = EncodePackedMeta(kb.meta_map(), base_meta);
  if (!metas.empty()) {
    builder.SetSection(rdf::FrameStore::kSectionFactMeta, std::move(metas));
  }
  builder.SetEpoch(kb.epoch());
  builder.SetNumEntities(entities);
  return builder.Serialize();
}

Status WriteKbSnapshot(storage::Env* env, const std::string& path,
                       const KnowledgeBase& kb) {
  if (env == nullptr) env = storage::Env::Default();
  auto bytes = SerializeKbSnapshot(kb);
  if (!bytes.ok()) return bytes.status();
  const std::string tmp = path + ".tmp";
  KB_RETURN_IF_ERROR(env->WriteStringToFile(tmp, *bytes));  // synced
  return env->RenameFile(tmp, path);
}

StatusOr<std::shared_ptr<const rdf::FrameStore>> OpenKbSnapshot(
    storage::Env* env, const std::string& path,
    const SnapshotOpenOptions& options) {
  if (env == nullptr) env = storage::Env::Default();
  auto region = env->MapReadOnly(path);
  if (!region.ok()) return region.status();
  std::shared_ptr<storage::MappedRegion> owner(std::move(*region));
  const char* data = owner->data();
  const size_t size = owner->size();
  auto store = rdf::FrameStore::Attach(data, size, owner, options.attach);
  if (!store.ok()) return store.status();
  return std::shared_ptr<const rdf::FrameStore>(std::move(*store));
}

StatusOr<std::unique_ptr<KbVolume>> KbVolume::Open(storage::Env* env,
                                                   const std::string& dir) {
  if (env == nullptr) env = storage::Env::Default();
  KB_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<KbVolume> volume(new KbVolume(env, dir));
  // Current generation: CURRENT is authoritative; the directory
  // listing covers a crash between snapshot write and CURRENT update
  // (the orphan snapshot claims its number so it is never reused).
  uint64_t gen = 0;
  const std::string current_path = dir + "/" + kCurrentName;
  if (env->FileExists(current_path)) {
    auto text = env->ReadFileToString(current_path);
    if (!text.ok()) return text.status();
    uint64_t v = 0;
    bool any = false;
    for (char c : *text) {
      if (c < '0' || c > '9') break;
      v = v * 10 + static_cast<uint64_t>(c - '0');
      any = true;
    }
    if (!any) return Status::Corruption("bad CURRENT file: " + current_path);
    gen = v;
  }
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  for (const auto& name : *names) {
    uint64_t g = 0;
    if (ParseGenName(name, kSnapshotPrefix, kSnapshotSuffix, &g) ||
        ParseGenName(name, kDeltaPrefix, "", &g)) {
      gen = std::max(gen, g);
    }
  }
  volume->current_gen_ = gen;
  return volume;
}

std::string KbVolume::SnapshotPath(uint64_t gen) const {
  return dir_ + "/" + GenName(kSnapshotPrefix, gen, kSnapshotSuffix);
}

std::string KbVolume::DeltaDir(uint64_t gen) const {
  return dir_ + "/" + GenName(kDeltaPrefix, gen, "");
}

StatusOr<KbVolume::LoadResult> KbVolume::Load(
    const SnapshotOpenOptions& options) {
  auto names = env_->ListDir(dir_);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> snapshot_gens;
  std::vector<uint64_t> delta_gens;
  for (const auto& name : *names) {
    uint64_t g = 0;
    if (ParseGenName(name, kSnapshotPrefix, kSnapshotSuffix, &g)) {
      snapshot_gens.push_back(g);
    } else if (ParseGenName(name, kDeltaPrefix, "", &g)) {
      delta_gens.push_back(g);
    }
  }
  std::sort(snapshot_gens.begin(), snapshot_gens.end(),
            std::greater<uint64_t>());
  snapshot_gens.push_back(0);  // the implicit empty base: pure replay
  std::sort(delta_gens.begin(), delta_gens.end());

  LoadResult result;
  for (uint64_t g : snapshot_gens) {
    std::unique_ptr<KnowledgeBase> kb;
    if (g > 0) {
      auto snap = OpenKbSnapshot(env_, SnapshotPath(g), options);
      if (!snap.ok()) {
        result.refused.push_back(SnapshotPath(g) + ": " +
                                 snap.status().ToString());
        continue;
      }
      kb = KnowledgeBase::FromSnapshot(std::move(*snap));
    } else {
      kb = std::make_unique<KnowledgeBase>();
    }
    // Deltas written while generation >= g was current, oldest first:
    // later generations carry the further-merged metadata, so they
    // overwrite earlier replays. A snapshot KB derived its taxonomy as
    // it booted, so only a replay makes a rebuild necessary.
    bool replayed = g == 0;
    for (uint64_t dg : delta_gens) {
      if (dg < g) continue;
      KB_RETURN_IF_ERROR(ApplyDelta(dg, kb.get()));
      replayed = true;
    }
    if (replayed) kb->RebuildTaxonomy();
    result.kb = std::move(kb);
    result.generation = g;
    result.from_snapshot = g > 0;
    return result;
  }
  return Status::Corruption("kb volume has no usable generation: " + dir_);
}

Status KbVolume::ApplyDelta(uint64_t gen, KnowledgeBase* kb) const {
  const std::string path = DeltaDir(gen);
  if (!env_->FileExists(path)) return Status::OK();
  storage::ShardedStoreOptions options;
  options.store.sync_wal = false;
  options.store.env = env_;
  auto storage = KbStorage::Open(path, options);
  if (!storage.ok()) return storage.status();
  return (*storage)->ApplyInto(kb);
}

Status KbVolume::SaveDelta(const KnowledgeBase& kb) {
  storage::ShardedStoreOptions options;
  options.store.sync_wal = false;
  options.store.env = env_;
  auto storage = KbStorage::Open(DeltaDir(current_gen_), options);
  if (!storage.ok()) return storage.status();
  return (*storage)->SaveOverlay(kb);
}

StatusOr<uint64_t> KbVolume::Checkpoint(KnowledgeBase* kb) {
  const uint64_t gen = current_gen_ + 1;
  KB_RETURN_IF_ERROR(WriteKbSnapshot(env_, SnapshotPath(gen), *kb));
  // Re-open what was just written BEFORE publishing: a snapshot that
  // does not verify never becomes CURRENT.
  auto snap = OpenKbSnapshot(env_, SnapshotPath(gen));
  if (!snap.ok()) return snap.status();
  KB_RETURN_IF_ERROR(PublishCurrent(gen));
  *kb = std::move(*KnowledgeBase::FromSnapshot(std::move(*snap)));
  current_gen_ = gen;
  return gen;
}

Status KbVolume::PublishCurrent(uint64_t gen) {
  const std::string path = dir_ + "/" + kCurrentName;
  const std::string tmp = path + ".tmp";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06llu\n",
                static_cast<unsigned long long>(gen));
  KB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, buf));
  return env_->RenameFile(tmp, path);
}

}  // namespace core
}  // namespace kb
