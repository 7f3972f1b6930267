// Frame-store snapshot tests: builder/attach round trip, hybrid
// (base + delta) stores, corruption refusal, and the KbVolume
// generation lifecycle with its property test against a shadow KB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "rdf/frame_store.h"
#include "rdf/namespaces.h"
#include "rdf/triple_store.h"
#include "storage/env.h"
#include "util/date.h"
#include "util/hash.h"
#include "util/random.h"

namespace kb {
namespace {

using rdf::FrameStore;
using rdf::FrameStoreBuilder;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

std::string TempDir(const std::string& name) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("kbforge_frame_" + name))
          .string();
  std::filesystem::remove_all(path);
  return path;
}

/// Attaches a FrameStore to a string's bytes (the string outlives the
/// store via the shared owner).
StatusOr<std::shared_ptr<FrameStore>> AttachToString(
    std::string bytes, const FrameStore::AttachOptions& options = {}) {
  auto owner = std::make_shared<std::string>(std::move(bytes));
  return FrameStore::Attach(owner->data(), owner->size(), owner, options);
}

/// A small dictionary exercising every term kind.
std::vector<Term> SampleTerms() {
  return {
      Term::Iri(rdf::EntityIri("Steve_Jobs")),
      Term::Iri(rdf::EntityIri("Apple_Inc")),
      Term::Iri(rdf::PropertyIri("founded")),
      Term::Literal("plain \"quoted\"\nvalue"),
      Term::LangLiteral("Vienne", "fr"),
      Term::IntLiteral(1976),
      Term::TypedLiteral("3.14", "http://www.w3.org/2001/XMLSchema#double"),
      Term::Blank("b1"),
  };
}

TEST(FrameStoreTest, BuilderAttachRoundTrip) {
  FrameStoreBuilder builder;
  std::vector<Term> terms = SampleTerms();
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(builder.AddTerm(terms[i]), static_cast<TermId>(i + 1));
  }
  builder.AddTriple(Triple(1, 3, 2));
  builder.AddTriple(Triple(2, 3, 1));
  builder.AddTriple(Triple(1, 5, 6));
  builder.SetEpoch(42);
  builder.SetNumEntities(2);
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  auto store = AttachToString(*bytes);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->num_terms(), terms.size());
  EXPECT_EQ((*store)->size(), 3u);
  EXPECT_EQ((*store)->epoch(), 42u);
  EXPECT_EQ((*store)->num_entities(), 2u);

  for (size_t i = 0; i < terms.size(); ++i) {
    TermId id = static_cast<TermId>(i + 1);
    EXPECT_EQ((*store)->MaterializeTerm(id), terms[i]) << terms[i].ToString();
    EXPECT_EQ((*store)->RenderTerm(id), terms[i].ToString());
    EXPECT_EQ((*store)->LookupTerm(terms[i]), id);
  }
  EXPECT_EQ((*store)->LookupTerm(Term::Iri("http://nowhere/x")),
            rdf::kInvalidTermId);

  EXPECT_TRUE((*store)->Contains(Triple(1, 3, 2)));
  EXPECT_FALSE((*store)->Contains(Triple(2, 3, 2)));
}

TEST(FrameStoreTest, ScansMatchAllPatternShapes) {
  // Mirror a TripleStore and check every pattern shape agrees.
  rdf::TripleStore model;
  Rng rng(7);
  std::vector<TermId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(model.dict().InternIri(rdf::EntityIri("e" + std::to_string(i))));
  }
  std::set<Triple> triples;
  for (int i = 0; i < 200; ++i) {
    Triple t(ids[rng.Uniform(ids.size())], ids[rng.Uniform(ids.size())],
             ids[rng.Uniform(ids.size())]);
    model.Add(t);
    triples.insert(t);
  }
  FrameStoreBuilder builder;
  for (TermId id = 1; id <= model.dict().size(); ++id) {
    builder.AddTerm(model.dict().term(id));
  }
  for (const Triple& t : triples) builder.AddTriple(t);
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto store = AttachToString(*bytes);
  ASSERT_TRUE(store.ok()) << store.status();

  auto check = [&](const TriplePattern& pattern) {
    std::vector<Triple> expect = model.Match(pattern);
    std::sort(expect.begin(), expect.end());
    std::vector<Triple> got;
    for (auto it = (*store)->NewScan(pattern); it->Valid(); it->Next()) {
      got.push_back(it->Value());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
    EXPECT_EQ((*store)->EstimateCount(pattern), expect.size());
    EXPECT_EQ((*store)->runs().MatchFullScan(pattern).size(), expect.size());
  };
  TermId a = ids[3], b = ids[5];
  check(TriplePattern{});                        // (*,*,*)
  check(TriplePattern{a, rdf::kAnyTerm, rdf::kAnyTerm});
  check(TriplePattern{rdf::kAnyTerm, a, rdf::kAnyTerm});
  check(TriplePattern{rdf::kAnyTerm, rdf::kAnyTerm, a});
  check(TriplePattern{a, b, rdf::kAnyTerm});
  check(TriplePattern{rdf::kAnyTerm, a, b});
  check(TriplePattern{a, rdf::kAnyTerm, b});
  check(TriplePattern{a, a, a});
}

TEST(FrameStoreTest, SerializeIsIndependentOfInputOrder) {
  // One run below SortRun's radix cutoff and one well above it; the
  // ids span two radix digits.
  for (size_t n : {size_t{60}, 4 * rdf::kSortRunRadixMin}) {
    const TermId num_terms = 3000;
    Rng rng(n);
    std::set<Triple> unique;
    while (unique.size() < n) {
      unique.insert(Triple(static_cast<TermId>(1 + rng.Uniform(num_terms)),
                           static_cast<TermId>(1 + rng.Uniform(12)),
                           static_cast<TermId>(1 + rng.Uniform(num_terms))));
    }
    const std::vector<Triple> spo(unique.begin(), unique.end());
    std::vector<Triple> reversed(spo.rbegin(), spo.rend());
    std::vector<Triple> shuffled = spo;
    rng.Shuffle(&shuffled);
    auto serialize = [num_terms](const std::vector<Triple>& triples) {
      FrameStoreBuilder builder;
      for (TermId id = 1; id <= num_terms; ++id) {
        builder.AddTerm(Term::Iri(rdf::EntityIri("e" + std::to_string(id))));
      }
      for (const Triple& t : triples) builder.AddTriple(t);
      auto bytes = builder.Serialize();
      EXPECT_TRUE(bytes.ok()) << bytes.status();
      return bytes.ok() ? *bytes : std::string();
    };
    const std::string expect = serialize(spo);
    ASSERT_FALSE(expect.empty());
    EXPECT_TRUE(serialize(reversed) == expect) << "n=" << n;
    EXPECT_TRUE(serialize(shuffled) == expect) << "n=" << n;
    auto store = AttachToString(expect);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ((*store)->size(), n);
  }
}

TEST(FrameStoreTest, CorruptionIsRefused) {
  FrameStoreBuilder builder;
  for (const Term& t : SampleTerms()) builder.AddTerm(t);
  builder.AddTriple(Triple(1, 3, 2));
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(AttachToString(*bytes).ok());  // pristine attaches

  // Truncation (torn write): never attaches at any cut point.
  for (size_t cut : {size_t{0}, size_t{7}, size_t{55}, bytes->size() - 1}) {
    EXPECT_FALSE(AttachToString(bytes->substr(0, cut)).ok()) << cut;
  }
  // Single-bit flips across the file: header, section table, term
  // records, arena, runs — every one must be caught by a checksum.
  for (size_t off = 0; off < bytes->size(); off += 13) {
    std::string corrupt = *bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x10);
    EXPECT_FALSE(AttachToString(corrupt).ok()) << "offset " << off;
  }
}

/// Byte offset of section `id` in serialized snapshot bytes, read from
/// the section table (see the layout in frame_store.h).
size_t SectionOffset(const std::string& bytes, uint32_t id) {
  uint32_t count = 0;  // the header's section_count, at offset 48
  std::memcpy(&count, bytes.data() + 48, sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const char* entry = bytes.data() + FrameStore::kHeaderSize +
                        i * FrameStore::kSectionEntrySize;
    uint32_t entry_id = 0;
    std::memcpy(&entry_id, entry, sizeof(entry_id));
    if (entry_id != id) continue;
    uint64_t offset = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    return static_cast<size_t>(offset);
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

TEST(FrameStoreTest, DictIndexMustListEveryTermOnce) {
  FrameStoreBuilder builder;
  for (const Term& t : SampleTerms()) builder.AddTerm(t);
  builder.AddTriple(Triple(1, 3, 2));
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  // Overwrite term 2's slot with term 1: one live slot per term still,
  // but id 1 twice and id 2 nowhere, so LookupTerm could not find term
  // 2 and interning it again would mint a second id. Checksums are
  // off, as a crafted file's recomputed CRCs would pass them.
  std::string crafted = *bytes;
  const size_t dict = SectionOffset(crafted, FrameStore::kSectionDictIndex);
  uint64_t n_slots = 0;
  std::memcpy(&n_slots, crafted.data() + dict, sizeof(n_slots));
  size_t replaced = 0;
  for (uint64_t i = 0; i < n_slots; ++i) {
    char* slot = crafted.data() + dict + 8 + 4 * i;
    uint32_t id = 0;
    std::memcpy(&id, slot, sizeof(id));
    if (id != 2) continue;
    const uint32_t one = 1;
    std::memcpy(slot, &one, sizeof(one));
    ++replaced;
  }
  ASSERT_EQ(replaced, 1u);
  FrameStore::AttachOptions no_crc;
  no_crc.verify_checksums = false;
  EXPECT_TRUE(AttachToString(*bytes, no_crc).ok());
  auto store = AttachToString(std::move(crafted), no_crc);
  ASSERT_FALSE(store.ok()) << "a dict index missing term 2 attached";
  EXPECT_TRUE(store.status().IsCorruption()) << store.status();
}

TEST(FrameStoreTest, MisalignedRunSectionsAreRefused) {
  // Runs are read in place as 4-aligned Triples. A valid snapshot
  // copied to an address one past a multiple of 4 must be refused
  // before anything reads a run (the ASan+UBSan build checks that).
  FrameStoreBuilder builder;
  for (const Term& t : SampleTerms()) builder.AddTerm(t);
  builder.AddTriple(Triple(1, 3, 2));
  builder.AddTriple(Triple(2, 3, 1));
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto buffer = std::make_shared<std::vector<char>>(bytes->size() + 8);
  char* at = buffer->data();
  while (reinterpret_cast<uintptr_t>(at) % 4 != 1) ++at;
  std::memcpy(at, bytes->data(), bytes->size());
  auto store = FrameStore::Attach(at, bytes->size(), buffer);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument()) << store.status();
  // The same bytes at an aligned address attach and scan.
  at += 3;
  std::memcpy(at, bytes->data(), bytes->size());
  store = FrameStore::Attach(at, bytes->size(), buffer);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->EstimateCount(TriplePattern{}), 2u);
  EXPECT_TRUE((*store)->Contains(Triple(2, 3, 1)));
}

TEST(HybridStoreTest, DeltaStaysDisjointAndReadsMerge) {
  FrameStoreBuilder builder;
  builder.AddTerm(Term::Iri(rdf::EntityIri("A")));
  builder.AddTerm(Term::Iri(rdf::PropertyIri("p")));
  builder.AddTerm(Term::Iri(rdf::EntityIri("B")));
  builder.AddTriple(Triple(1, 2, 3));
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok());
  auto base = AttachToString(*bytes);
  ASSERT_TRUE(base.ok());

  rdf::TripleStore hybrid(*base);
  // Base terms resolve to their snapshot ids; new terms go above.
  EXPECT_EQ(hybrid.dict().InternIri(rdf::EntityIri("A")), 1u);
  EXPECT_EQ(hybrid.dict().base_size(), 3u);
  TermId c = hybrid.dict().InternIri(rdf::EntityIri("C"));
  EXPECT_EQ(c, 4u);
  EXPECT_EQ(hybrid.dict().term(c).value(), rdf::EntityIri("C"));
  EXPECT_EQ(hybrid.dict().term(1).value(), rdf::EntityIri("A"));

  // Re-adding a base triple is a no-op; new triples land in the delta.
  EXPECT_FALSE(hybrid.Add(Triple(1, 2, 3)));
  EXPECT_TRUE(hybrid.Add(Triple(1, 2, c)));
  EXPECT_TRUE(hybrid.Add(Triple(3, 2, c)));
  EXPECT_EQ(hybrid.size(), 3u);
  EXPECT_TRUE(hybrid.Contains(Triple(1, 2, 3)));
  EXPECT_TRUE(hybrid.Contains(Triple(1, 2, c)));

  // Merged scan covers both sides, in order, without duplicates.
  std::vector<Triple> all;
  for (auto it = hybrid.NewScan(TriplePattern{}); it->Valid(); it->Next()) {
    all.push_back(it->Value());
  }
  std::vector<Triple> expect = {Triple(1, 2, 3), Triple(1, 2, c),
                                Triple(3, 2, c)};
  EXPECT_EQ(all, expect);
  EXPECT_EQ(hybrid.EstimateCount(TriplePattern{1, 2, rdf::kAnyTerm}), 2u);
  EXPECT_EQ(hybrid.Match(TriplePattern{rdf::kAnyTerm, 2, c}).size(), 2u);
}

// --------------------------------------------------- KbVolume lifecycle

core::FactMeta MetaWith(double confidence, uint32_t support) {
  core::FactMeta meta;
  meta.confidence = confidence;
  meta.support = support;
  return meta;
}

std::multiset<std::string> Lines(const std::string& ntriples) {
  std::multiset<std::string> lines;
  std::istringstream in(ntriples);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.insert(line);
  }
  return lines;
}

TEST(KbVolumeTest, CheckpointPreservesContentEpochAndMeta) {
  std::string dir = TempDir("checkpoint");
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok()) << volume.status();

  core::KnowledgeBase kb;
  kb.AssertType("Steve_Jobs", "entrepreneur");
  kb.AssertFact("Steve_Jobs", "founded", "Apple_Inc", MetaWith(0.9, 2));
  kb.AssertLabel("Steve_Jobs", "Steve Jobs", "en");
  kb.AssertYearFact("Apple_Inc", "foundedYear", 1976, MetaWith(1.0, 1));
  const std::string before = kb.ExportNTriples();
  const uint64_t epoch_before = kb.epoch();
  const size_t entities_before = kb.NumEntities();

  auto gen = (*volume)->Checkpoint(&kb);
  ASSERT_TRUE(gen.ok()) << gen.status();
  EXPECT_EQ(*gen, 1u);
  // The swapped KB reads identically: content, epoch, entity count.
  EXPECT_EQ(Lines(kb.ExportNTriples()), Lines(before));
  EXPECT_EQ(kb.epoch(), epoch_before);
  EXPECT_EQ(kb.NumEntities(), entities_before);
  ASSERT_NE(kb.store().base(), nullptr);
  EXPECT_EQ(kb.store().Snapshot()->delta().size(), 0u) << "delta must be empty";

  // Packed metadata serves through MetaOf and merges on re-assert.
  Triple t(kb.EntityTerm("Steve_Jobs"), kb.PropertyTerm("founded"),
           kb.EntityTerm("Apple_Inc"));
  const core::FactMeta* meta = kb.MetaOf(t);
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->confidence, 0.9);
  EXPECT_EQ(meta->support, 2u);
  EXPECT_FALSE(kb.AssertFact("Steve_Jobs", "founded", "Apple_Inc",
                             MetaWith(0.5, 3)));
  meta = kb.MetaOf(t);
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->confidence, 0.9);  // max
  EXPECT_EQ(meta->support, 5u);             // summed

  // Taxonomy survives the swap.
  EXPECT_GE(kb.NumClasses(), 1u);
}

TEST(KbVolumeTest, CheckpointMergesMetaLikeAMapOverlay) {
  // Generation 1 carries a meta section; the writes after it re-assert
  // some of its facts and add new ones that sort before, between and
  // after its records. Generation 2's meta section must be the bytes
  // the decode-into-a-map-and-overlay path gives.
  std::string dir = TempDir("meta_merge");
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok()) << volume.status();
  Rng rng(5);
  auto assert_random = [&rng](core::KnowledgeBase* kb, int entities) {
    const std::string props[] = {"knows", "worksFor", "likes"};
    core::FactMeta meta =
        MetaWith(0.1 * static_cast<double>(1 + rng.Uniform(9)),
                 static_cast<uint32_t>(1 + rng.Uniform(4)));
    meta.extractor = static_cast<uint32_t>(rng.Uniform(8));
    meta.valid_time.begin.year = static_cast<int32_t>(1900 + rng.Uniform(100));
    kb->AssertFact("E" + std::to_string(rng.Uniform(entities)),
                   props[rng.Uniform(3)],
                   "E" + std::to_string(rng.Uniform(entities)), meta);
  };
  core::KnowledgeBase kb;
  for (int i = 0; i < 300; ++i) assert_random(&kb, 40);
  ASSERT_TRUE((*volume)->Checkpoint(&kb).ok());
  for (int i = 0; i < 300; ++i) assert_random(&kb, 60);
  kb.AssertYearFact("E1", "bornIn", 1970, MetaWith(1.0, 1));

  std::string_view base_meta;
  ASSERT_TRUE(kb.store().base()->section(FrameStore::kSectionFactMeta,
                                         &base_meta));
  std::map<Triple, core::FactMeta> overlay;
  core::DecodeAllPackedMeta(base_meta, &overlay);
  const size_t base_records = overlay.size();
  for (const auto& entry : kb.meta_map()) {
    ASSERT_FALSE(entry.from_base);
    overlay[entry.triple] = entry.meta;
  }
  ASSERT_GT(overlay.size(), base_records);
  ASSERT_LT(overlay.size(), base_records + kb.meta_map().size())
      << "some writes must re-assert generation-1 facts";
  core::FactMetaTable model;
  for (const auto& [t, meta] : overlay) {
    bool added = false;
    model.FindOrAdd(t, &added)->meta = meta;
  }
  const std::string expect = core::EncodePackedMeta(model);

  ASSERT_TRUE((*volume)->Checkpoint(&kb).ok());
  std::string_view got;
  ASSERT_TRUE(kb.store().base()->section(FrameStore::kSectionFactMeta, &got));
  EXPECT_TRUE(got == expect);
  EXPECT_EQ(got.size(), overlay.size() * core::kPackedMetaRecordSize);
}

TEST(KbVolumeTest, MovedFromSnapshotKbKeepsNoBaseView) {
  core::KnowledgeBase plain;
  plain.AssertFact("A", "knows", "B", MetaWith(0.8, 2));
  const Triple t(plain.EntityTerm("A"), plain.PropertyTerm("knows"),
                 plain.EntityTerm("B"));
  auto bytes = core::SerializeKbSnapshot(plain);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto base = AttachToString(std::move(*bytes));
  ASSERT_TRUE(base.ok()) << base.status();
  // The KB holds the only references to the mapped bytes.
  std::unique_ptr<core::KnowledgeBase> source =
      core::KnowledgeBase::FromSnapshot(std::move(*base));
  ASSERT_EQ(source->NumEntities(), 2u);
  auto moved = std::make_unique<core::KnowledgeBase>(std::move(*source));
  const core::FactMeta* meta = moved->MetaOf(t);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->support, 2u);
  EXPECT_EQ(moved->NumEntities(), 2u);
  moved.reset();  // frees the snapshot bytes
  EXPECT_EQ(source->MetaOf(t), nullptr);
  EXPECT_EQ(source->NumEntities(), 0u);
}

// ------------------------------------------------ pinned .kbsnap bytes

/// A small fixed KB with every term kind (entity, property and class
/// IRIs; plain, lang and typed literals; a blank node) and facts with
/// and without metadata.
void BuildPinnedKb(core::KnowledgeBase* kb) {
  kb->AssertSubclass("scientist", "person");
  kb->AssertType("Marie_Curie", "scientist");
  kb->AssertType("Paris", "city");
  kb->AssertLabel("Marie_Curie", "Marie Curie", "en");
  kb->AssertLabel("Marie_Curie", "Maria Sk\xc5\x82odowska", "pl");
  core::FactMeta lived = MetaWith(0.75, 3);
  lived.extractor = rdf::kExtractorInfobox;
  lived.valid_time.begin = Date{1891, 11, 3};
  lived.valid_time.end = Date{1934, 7, 4};
  kb->AssertFact("Marie_Curie", "livedIn", "Paris", lived);
  kb->AssertYearFact("Marie_Curie", "birthDate", 1867, MetaWith(1.0, 1));
  rdf::Dictionary& dict = kb->store().dict();
  const TermId curie = kb->EntityTerm("Marie_Curie");
  const TermId motto = dict.Intern(Term::Literal("nothing is to be \"feared\""));
  const TermId height = dict.Intern(
      Term::TypedLiteral("1.55", "http://www.w3.org/2001/XMLSchema#decimal"));
  const TermId award = dict.Intern(Term::Blank("award1"));
  core::FactMeta said = MetaWith(0.5, 2);
  said.extractor = rdf::kExtractorPattern;
  kb->AddTripleWithMeta(Triple(curie, kb->PropertyTerm("motto"), motto),
                        &said);
  kb->AddTripleWithMeta(Triple(curie, kb->PropertyTerm("heightM"), height),
                        nullptr);
  kb->AddTripleWithMeta(Triple(curie, kb->PropertyTerm("received"), award),
                        &said);
  kb->AddTripleWithMeta(Triple(award, kb->PropertyTerm("year"),
                               dict.Intern(Term::IntLiteral(1903))),
                        nullptr);
}

TEST(KbSnapshotFormatTest, SerializeAndCheckpointBytesArePinned) {
  // Size and CRC-32 of the bytes the .kbsnap writer produced for this
  // KB when the values were recorded. A change here is a file format
  // change: it must be deliberate, and FrameStore::kVersion must move.
  constexpr size_t kSerializedSize = 2216;
  constexpr uint32_t kSerializedCrc = 1264887951;
  constexpr size_t kCheckpointSize = 2592;
  constexpr uint32_t kCheckpointCrc = 515219600;

  core::KnowledgeBase kb;
  BuildPinnedKb(&kb);
  auto bytes = core::SerializeKbSnapshot(kb);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(bytes->size(), kSerializedSize);
  EXPECT_EQ(Crc32(*bytes), kSerializedCrc);

  // A checkpoint over a base with a fact-metadata section: generation
  // 2 merges the base's records with a re-asserted base fact and new
  // facts about a new entity.
  std::string dir = TempDir("pinned");
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok()) << volume.status();
  ASSERT_TRUE((*volume)->Checkpoint(&kb).ok());
  std::string_view base_meta;
  ASSERT_TRUE(kb.store().base()->section(FrameStore::kSectionFactMeta,
                                         &base_meta));
  kb.AssertFact("Marie_Curie", "livedIn", "Paris", MetaWith(0.9, 2));
  kb.AssertType("Pierre_Curie", "scientist");
  kb.AssertLabel("Pierre_Curie", "Pierre Curie", "fr");
  kb.AssertFact("Pierre_Curie", "livedIn", "Paris", MetaWith(0.8, 1));
  kb.AssertYearFact("Pierre_Curie", "birthDate", 1859, MetaWith(1.0, 1));
  ASSERT_TRUE((*volume)->Checkpoint(&kb).ok());
  auto checkpoint = storage::ReadFileToString((*volume)->SnapshotPath(2));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->size(), kCheckpointSize);
  EXPECT_EQ(Crc32(*checkpoint), kCheckpointCrc);
}

TEST(KbVolumeTest, LoadReplaysWritesFromEveryGeneration) {
  std::string dir = TempDir("generations");
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok());

  core::KnowledgeBase kb;
  kb.AssertFact("A", "knows", "B", MetaWith(0.8, 1));
  ASSERT_TRUE((*volume)->SaveDelta(kb).ok());
  auto gen = (*volume)->Checkpoint(&kb);
  ASSERT_TRUE(gen.ok()) << gen.status();
  kb.AssertFact("B", "knows", "C", MetaWith(0.7, 1));
  ASSERT_TRUE((*volume)->SaveDelta(kb).ok());
  const std::string full = kb.ExportNTriples();

  // A fresh volume handle loads snapshot gen 1 + delta gen 1.
  auto reopened = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->current_generation(), 1u);
  auto loaded = (*reopened)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->from_snapshot);
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_TRUE(loaded->refused.empty());
  EXPECT_EQ(Lines(loaded->kb->ExportNTriples()), Lines(full));
  const core::FactMeta* meta = loaded->kb->MetaOf(
      Triple(loaded->kb->EntityTerm("A"), loaded->kb->PropertyTerm("knows"),
             loaded->kb->EntityTerm("B")));
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->confidence, 0.8);
}

TEST(KbVolumeTest, CorruptSnapshotFallsBackToReplay) {
  std::string dir = TempDir("fallback");
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok());

  core::KnowledgeBase kb;
  kb.AssertFact("A", "knows", "B", MetaWith(0.8, 1));
  kb.AssertType("A", "person");
  ASSERT_TRUE((*volume)->SaveDelta(kb).ok());
  ASSERT_TRUE((*volume)->Checkpoint(&kb).ok());
  kb.AssertFact("B", "knows", "C", MetaWith(0.7, 1));
  ASSERT_TRUE((*volume)->SaveDelta(kb).ok());
  const std::string full = kb.ExportNTriples();

  // Flip one bit in the middle of the published snapshot.
  const std::string snap_path = (*volume)->SnapshotPath(1);
  auto bytes = storage::ReadFileToString(snap_path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x20;
  ASSERT_TRUE(storage::WriteStringToFile(snap_path, *bytes).ok());

  auto loaded = (*volume)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->from_snapshot);
  EXPECT_EQ(loaded->generation, 0u);
  ASSERT_EQ(loaded->refused.size(), 1u);
  EXPECT_NE(loaded->refused[0].find("snapshot-000001"), std::string::npos);
  // Replay of delta-000000 + delta-000001 reproduces the full KB.
  EXPECT_EQ(Lines(loaded->kb->ExportNTriples()), Lines(full));
  EXPECT_GE(loaded->kb->NumClasses(), 1u);
  EXPECT_EQ(loaded->kb->NumEntities(), kb.NumEntities());
}

// Property test: random insert / save / checkpoint / reload
// interleavings keep the volume KB multiset-identical to a shadow KB
// that never touches the snapshot machinery.
TEST(KbVolumeTest, RandomInterleavingsMatchShadowStore) {
  Rng rng(20260808);
  for (int round = 0; round < 3; ++round) {
    std::string dir = TempDir("prop" + std::to_string(round));
    auto volume = core::KbVolume::Open(nullptr, dir);
    ASSERT_TRUE(volume.ok());
    auto kb = std::make_unique<core::KnowledgeBase>();
    core::KnowledgeBase shadow;

    auto entity = [&](Rng& r) { return "E" + std::to_string(r.Uniform(12)); };
    auto property = [&](Rng& r) { return "p" + std::to_string(r.Uniform(4)); };
    bool dirty = false;  // unsaved writes since the last SaveDelta
    for (int step = 0; step < 120; ++step) {
      uint64_t action = rng.Uniform(100);
      if (action < 70) {
        std::string s = entity(rng), p = property(rng), o = entity(rng);
        core::FactMeta meta = MetaWith(0.5 + 0.5 * rng.UniformDouble(),
                                       1 + rng.Uniform(3));
        kb->AssertFact(s, p, o, meta);
        shadow.AssertFact(s, p, o, meta);
        dirty = true;
      } else if (action < 80) {
        std::string e = entity(rng), c = "C" + std::to_string(rng.Uniform(3));
        kb->AssertType(e, c);
        shadow.AssertType(e, c);
        dirty = true;
      } else if (action < 90) {
        ASSERT_TRUE((*volume)->SaveDelta(*kb).ok());
        dirty = false;
      } else if (action < 95) {
        auto gen = (*volume)->Checkpoint(kb.get());
        ASSERT_TRUE(gen.ok()) << gen.status();
        dirty = false;
      } else {
        // Reload from disk; whatever was not saved is legitimately
        // lost, so flush first to keep the shadow comparable.
        ASSERT_TRUE((*volume)->SaveDelta(*kb).ok());
        dirty = false;
        auto loaded = (*volume)->Load();
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        EXPECT_TRUE(loaded->refused.empty());
        kb = std::move(loaded->kb);
        ASSERT_EQ(Lines(kb->ExportNTriples()),
                  Lines(shadow.ExportNTriples()))
            << "round " << round << " step " << step;
      }
    }
    if (dirty) ASSERT_TRUE((*volume)->SaveDelta(*kb).ok());
    // Final reload must equal the shadow exactly.
    auto loaded = (*volume)->Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(Lines(loaded->kb->ExportNTriples()),
              Lines(shadow.ExportNTriples()));
    EXPECT_EQ(loaded->kb->NumTriples(), shadow.NumTriples());
  }
}

}  // namespace
}  // namespace kb
