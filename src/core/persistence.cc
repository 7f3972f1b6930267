#include "core/persistence.h"

#include <cstring>
#include <map>
#include <set>

#include "rdf/term.h"
#include "storage/triple_codec.h"
#include "util/varint.h"

namespace kb {
namespace core {

namespace {

constexpr char kDictPrefix = 'D';

std::string DictKey(rdf::TermId id) {
  std::string key(1, kDictPrefix);
  PutVarint32(&key, id);
  return key;
}

std::string EncodeMeta(const FactMeta& meta) {
  std::string out;
  uint64_t confidence_bits = 0;
  memcpy(&confidence_bits, &meta.confidence, sizeof(confidence_bits));
  PutFixed64(&out, confidence_bits);
  PutVarint32(&out, meta.support);
  PutVarint32(&out, meta.extractor);
  auto put_date = [&out](const Date& d) {
    PutVarint32(&out, static_cast<uint32_t>(d.year));
    PutVarint32(&out, static_cast<uint32_t>(d.month));
    PutVarint32(&out, static_cast<uint32_t>(d.day));
  };
  put_date(meta.valid_time.begin);
  put_date(meta.valid_time.end);
  return out;
}

bool DecodeMeta(Slice input, FactMeta* meta) {
  uint64_t bits = 0;
  if (!GetFixed64(&input, &bits)) return false;
  memcpy(&meta->confidence, &bits, sizeof(meta->confidence));
  uint32_t support = 0, extractor = 0;
  if (!GetVarint32(&input, &support) || !GetVarint32(&input, &extractor)) {
    return false;
  }
  meta->support = support;
  meta->extractor = extractor;
  auto get_date = [&input](Date* d) {
    uint32_t year = 0, month = 0, day = 0;
    if (!GetVarint32(&input, &year) || !GetVarint32(&input, &month) ||
        !GetVarint32(&input, &day)) {
      return false;
    }
    d->year = static_cast<int32_t>(year);
    d->month = static_cast<int8_t>(month);
    d->day = static_cast<int8_t>(day);
    return true;
  };
  return get_date(&meta->valid_time.begin) && get_date(&meta->valid_time.end);
}

}  // namespace

namespace {
storage::ShardedStoreOptions DefaultKbStoreOptions() {
  storage::ShardedStoreOptions options;
  // Save is a bulk load ending in Flush; per-Put fsyncs would only
  // slow it down without adding durability to the final state.
  options.store.sync_wal = false;
  return options;
}
}  // namespace

StatusOr<std::unique_ptr<KbStorage>> KbStorage::Open(
    const std::string& path) {
  return Open(path, DefaultKbStoreOptions());
}

StatusOr<std::unique_ptr<KbStorage>> KbStorage::Open(
    const std::string& path, const storage::StoreOptions& options) {
  storage::ShardedStoreOptions sharded;
  sharded.store = options;
  return Open(path, sharded);
}

StatusOr<std::unique_ptr<KbStorage>> KbStorage::Open(
    const std::string& path, const storage::ShardedStoreOptions& options) {
  auto store = storage::ShardedKVStore::Open(options, path);
  if (!store.ok()) return store.status();
  return std::unique_ptr<KbStorage>(new KbStorage(std::move(*store)));
}

StatusOr<std::unique_ptr<KbStorage>> KbStorage::Recover(
    const std::string& path, storage::RecoveryReport* report) {
  auto store =
      storage::ShardedKVStore::Recover(DefaultKbStoreOptions(), path, report);
  if (!store.ok()) return store.status();
  return std::unique_ptr<KbStorage>(new KbStorage(std::move(*store)));
}

Status KbStorage::Save(const KnowledgeBase& kb) {
  const rdf::TripleStore& triples = kb.store();
  // Dictionary.
  for (rdf::TermId id = 1; id <= triples.dict().size(); ++id) {
    KB_RETURN_IF_ERROR(
        store_->Put(DictKey(id), triples.dict().term(id).ToString()));
  }
  // Triples (SPO keys), each carrying its metadata.
  Status status = Status::OK();
  rdf::TriplePattern all;
  triples.Scan(all, [&](const rdf::Triple& t) {
    const FactMeta* meta = kb.MetaOf(t);
    std::string value = meta != nullptr ? EncodeMeta(*meta) : std::string();
    Status s = store_->Put(
        storage::EncodeTripleKey(storage::TripleOrder::kSpo, t), value);
    if (!s.ok()) {
      status = s;
      return false;
    }
    return true;
  });
  KB_RETURN_IF_ERROR(status);
  return store_->Flush();
}

Status KbStorage::SaveOverlay(const KnowledgeBase& kb) {
  const rdf::Dictionary& dict = kb.store().dict();
  // Triples to persist: the in-memory delta, plus base triples whose
  // metadata was written (meta_map entries not flagged from_base).
  std::set<rdf::Triple> triples;
  const std::shared_ptr<const rdf::StoreSnapshot> snapshot =
      kb.store().Snapshot();
  for (const rdf::Triple& t : snapshot->delta().spo) triples.insert(t);
  for (const FactMetaTable::Entry& entry : kb.meta_map()) {
    if (!entry.from_base) triples.insert(entry.triple);
  }
  // Terms: every overlay id, plus every id the persisted triples
  // reference (base ids are stable against the same snapshot, and the
  // text makes the delta replayable without any snapshot at all).
  std::set<rdf::TermId> ids;
  for (rdf::TermId id = dict.base_size() + 1; id <= dict.size(); ++id) {
    ids.insert(id);
  }
  for (const auto& t : triples) {
    ids.insert(t.s);
    ids.insert(t.p);
    ids.insert(t.o);
  }
  for (rdf::TermId id : ids) {
    KB_RETURN_IF_ERROR(store_->Put(DictKey(id), dict.term(id).ToString()));
  }
  for (const auto& t : triples) {
    const FactMeta* meta = kb.MetaOf(t);
    std::string value = meta != nullptr ? EncodeMeta(*meta) : std::string();
    KB_RETURN_IF_ERROR(store_->Put(
        storage::EncodeTripleKey(storage::TripleOrder::kSpo, t), value));
  }
  return store_->Flush();
}

StatusOr<std::unique_ptr<KnowledgeBase>> KbStorage::Load() {
  auto kb = std::make_unique<KnowledgeBase>();
  KB_RETURN_IF_ERROR(ApplyInto(kb.get()));
  kb->RebuildTaxonomy();
  return kb;
}

Status KbStorage::ApplyInto(KnowledgeBase* kb) {
  // 1. Dictionary: old id -> new id (interning preserves semantics even
  // if the receiving KB assigned its existing ids in another order).
  std::map<rdf::TermId, rdf::TermId> remap;
  Status status = Status::OK();
  std::string dict_end(1, kDictPrefix + 1);
  KB_RETURN_IF_ERROR(store_->Scan(
      Slice(std::string(1, kDictPrefix)), Slice(dict_end),
      [&](const Slice& key, const Slice& value) {
        Slice input = key;
        input.remove_prefix(1);
        uint32_t old_id = 0;
        if (!GetVarint32(&input, &old_id)) {
          status = Status::Corruption("bad dictionary key");
          return false;
        }
        auto term = rdf::Term::Parse(value.ToStringView());
        if (!term.ok()) {
          status = term.status();
          return false;
        }
        remap[old_id] = kb->store().dict().Intern(*term);
        return true;
      }));
  KB_RETURN_IF_ERROR(status);
  // 2. Triples + metadata from the SPO keyspace.
  std::string spo_begin(1, 'S');
  std::string spo_end(1, 'S' + 1);
  KB_RETURN_IF_ERROR(store_->Scan(
      Slice(spo_begin), Slice(spo_end),
      [&](const Slice& key, const Slice& value) {
        storage::TripleOrder order;
        rdf::Triple old_triple;
        if (!storage::DecodeTripleKey(key, &order, &old_triple)) {
          status = Status::Corruption("bad triple key");
          return false;
        }
        auto s = remap.find(old_triple.s);
        auto p = remap.find(old_triple.p);
        auto o = remap.find(old_triple.o);
        if (s == remap.end() || p == remap.end() || o == remap.end()) {
          status = Status::Corruption("triple references unknown term");
          return false;
        }
        rdf::Triple triple(s->second, p->second, o->second);
        if (value.empty()) {
          kb->AddTripleWithMeta(triple, nullptr);
        } else {
          FactMeta meta;
          if (!DecodeMeta(value, &meta)) {
            status = Status::Corruption("bad fact metadata");
            return false;
          }
          kb->AddTripleWithMeta(triple, &meta);
        }
        return true;
      }));
  KB_RETURN_IF_ERROR(status);
  return Status::OK();
}

}  // namespace core
}  // namespace kb
