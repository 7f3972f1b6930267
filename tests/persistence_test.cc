#include <gtest/gtest.h>

#include <filesystem>

#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "core/persistence.h"
#include "rdf/namespaces.h"
#include "storage/triple_codec.h"

namespace kb {
namespace core {
namespace {

std::string TempDir(const std::string& name) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("kbforge_persist_" + name))
                         .string();
  std::filesystem::remove_all(path);
  return path;
}

TEST(PersistenceTest, SmallKbRoundTrip) {
  std::string dir = TempDir("small");
  KnowledgeBase kb;
  FactMeta meta;
  meta.confidence = 0.875;
  meta.support = 3;
  meta.extractor = rdf::kExtractorPattern;
  meta.valid_time.begin = Date{1976, 4, 1};
  meta.valid_time.end = Date{1985, 0, 0};
  kb.AssertFact("Steve_Jobs", "founded", "Apple_Inc", meta);
  kb.AssertType("Steve_Jobs", "entrepreneur");
  kb.AssertSubclass("entrepreneur", "person");
  kb.AssertLabel("Steve_Jobs", "Steve Jobs", "en");
  kb.AssertYearFact("Apple_Inc", "foundedYear", 1976, FactMeta());

  {
    auto storage = KbStorage::Open(dir);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Save(kb).ok());
  }
  auto storage = KbStorage::Open(dir);
  ASSERT_TRUE(storage.ok());
  auto loaded = (*storage)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ((*loaded)->NumTriples(), kb.NumTriples());
  EXPECT_EQ((*loaded)->ExportNTriples(), kb.ExportNTriples());

  // Metadata survives, including the timespan.
  rdf::Triple t((*loaded)->EntityTerm("Steve_Jobs"),
                (*loaded)->PropertyTerm("founded"),
                (*loaded)->EntityTerm("Apple_Inc"));
  const FactMeta* restored = (*loaded)->MetaOf(t);
  ASSERT_NE(restored, nullptr);
  EXPECT_DOUBLE_EQ(restored->confidence, 0.875);
  EXPECT_EQ(restored->support, 3u);
  EXPECT_EQ(restored->extractor,
            static_cast<uint32_t>(rdf::kExtractorPattern));
  EXPECT_EQ(restored->valid_time.begin.ToString(), "1976-04-01");
  EXPECT_EQ(restored->valid_time.end.ToString(), "1985");

  // Derived indexes rebuilt: taxonomy subsumption works.
  taxonomy::ClassId sub = (*loaded)->taxonomy().Lookup("entrepreneur");
  taxonomy::ClassId super = (*loaded)->taxonomy().Lookup("person");
  ASSERT_NE(sub, taxonomy::kInvalidClassId);
  EXPECT_TRUE((*loaded)->taxonomy().IsSubclassOf(sub, super));
}

TEST(PersistenceTest, HarvestedKbSurvivesReopen) {
  std::string dir = TempDir("harvest");
  corpus::WorldOptions world_options;
  world_options.seed = 111;
  world_options.num_persons = 60;
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = 112;
  corpus_options.news_docs = 50;
  corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
  Harvester harvester;
  HarvestResult result = harvester.Harvest(corpus);

  {
    auto storage = KbStorage::Open(dir);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Save(result.kb).ok());
    ASSERT_TRUE((*storage)->Compact().ok());
  }
  auto storage = KbStorage::Open(dir);
  ASSERT_TRUE(storage.ok());
  auto loaded = (*storage)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumTriples(), result.kb.NumTriples());
  EXPECT_EQ((*loaded)->NumEntities(), result.kb.NumEntities());

  // Queries run identically against the reopened KB.
  std::string sparql = "SELECT ?p ?c WHERE { ?p <" +
                       rdf::PropertyIri("bornIn") + "> ?c . }";
  auto before = result.kb.Query(sparql);
  auto after = (*loaded)->Query(sparql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->size(), after->size());
  EXPECT_GT(after->size(), 10u);
}

TEST(PersistenceTest, LoadFromEmptyStoreGivesEmptyKb) {
  std::string dir = TempDir("empty");
  auto storage = KbStorage::Open(dir);
  ASSERT_TRUE(storage.ok());
  auto loaded = (*storage)->Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumTriples(), 0u);
}

/// A KB with fact metadata, a type, a subclass edge and a label.
std::unique_ptr<KnowledgeBase> SampleKb() {
  auto kb = std::make_unique<KnowledgeBase>();
  FactMeta meta;
  meta.confidence = 0.625;
  meta.support = 2;
  kb->AssertFact("Alice", "worksFor", "Acme", meta);
  kb->AssertFact("Bob", "worksFor", "Acme", FactMeta());
  kb->AssertFact("Acme", "locatedIn", "Springfield", FactMeta());
  kb->AssertType("Alice", "engineer");
  kb->AssertSubclass("engineer", "person");
  kb->AssertLabel("Alice", "Alice", "en");
  return kb;
}

size_t CountKeysWithPrefix(KbStorage* storage, char prefix) {
  size_t n = 0;
  std::string begin(1, prefix), end(1, static_cast<char>(prefix + 1));
  EXPECT_TRUE(storage->store()
                  ->Scan(Slice(begin), Slice(end),
                         [&n](const Slice&, const Slice&) {
                           ++n;
                           return true;
                         })
                  .ok());
  return n;
}

/// Adds the 'P' and 'O' copies of every triple that Save wrote before
/// triples were stored once, in SPO order: the older on-disk layout.
void AddLegacyPermutationKeys(const KnowledgeBase& kb, KbStorage* storage) {
  kb.store().Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    for (storage::TripleOrder order :
         {storage::TripleOrder::kPos, storage::TripleOrder::kOsp}) {
      EXPECT_TRUE(
          storage->store()->Put(storage::EncodeTripleKey(order, t), "").ok());
    }
    return true;
  });
  EXPECT_TRUE(storage->Flush().ok());
}

TEST(PersistenceTest, SaveWritesOnlySpoTripleKeys) {
  auto kb = SampleKb();
  for (bool overlay : {false, true}) {
    auto storage = KbStorage::Open(TempDir(overlay ? "spo_overlay" : "spo"));
    ASSERT_TRUE(storage.ok());
    // On a plain KB SaveOverlay writes the whole KB, like Save.
    ASSERT_TRUE(overlay ? (*storage)->SaveOverlay(*kb).ok()
                        : (*storage)->Save(*kb).ok());
    EXPECT_EQ(CountKeysWithPrefix(storage->get(), 'S'), kb->NumTriples());
    EXPECT_EQ(CountKeysWithPrefix(storage->get(), 'P'), 0u);
    EXPECT_EQ(CountKeysWithPrefix(storage->get(), 'O'), 0u);
  }
}

TEST(PersistenceTest, LegacyPermutationKeysStillLoad) {
  std::string dir = TempDir("legacy_load");
  auto kb = SampleKb();
  {
    auto storage = KbStorage::Open(dir);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Save(*kb).ok());
    AddLegacyPermutationKeys(*kb, storage->get());
    ASSERT_EQ(CountKeysWithPrefix(storage->get(), 'P'), kb->NumTriples());
  }
  auto storage = KbStorage::Open(dir);
  ASSERT_TRUE(storage.ok());
  auto loaded = (*storage)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumTriples(), kb->NumTriples());
  EXPECT_EQ((*loaded)->ExportNTriples(), kb->ExportNTriples());
  rdf::Triple t((*loaded)->EntityTerm("Alice"),
                (*loaded)->PropertyTerm("worksFor"),
                (*loaded)->EntityTerm("Acme"));
  const FactMeta* meta = (*loaded)->MetaOf(t);
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->confidence, 0.625);
  EXPECT_EQ(meta->support, 2u);
}

TEST(PersistenceTest, LegacyPermutationKeysReplayAsVolumeDelta) {
  std::string dir = TempDir("legacy_volume");
  auto kb = SampleKb();
  auto volume = KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE((*volume)->SaveDelta(*kb).ok());
  {
    auto delta = KbStorage::Open((*volume)->DeltaDir(0));
    ASSERT_TRUE(delta.ok());
    AddLegacyPermutationKeys(*kb, delta->get());
  }
  auto loaded = (*volume)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->from_snapshot);
  EXPECT_EQ(loaded->kb->NumTriples(), kb->NumTriples());
  EXPECT_EQ(loaded->kb->ExportNTriples(), kb->ExportNTriples());
  taxonomy::ClassId sub = loaded->kb->taxonomy().Lookup("engineer");
  taxonomy::ClassId super = loaded->kb->taxonomy().Lookup("person");
  ASSERT_NE(sub, taxonomy::kInvalidClassId);
  EXPECT_TRUE(loaded->kb->taxonomy().IsSubclassOf(sub, super));
}

TEST(PersistenceTest, CorruptMetadataDetected) {
  std::string dir = TempDir("corrupt");
  KnowledgeBase kb;
  FactMeta meta;
  meta.confidence = 0.5;
  kb.AssertFact("A", "rel", "B", meta);
  auto storage = KbStorage::Open(dir);
  ASSERT_TRUE(storage.ok());
  ASSERT_TRUE((*storage)->Save(kb).ok());
  // Clobber the metadata of the SPO entry.
  rdf::Triple t(kb.EntityTerm("A"), kb.PropertyTerm("rel"),
                kb.EntityTerm("B"));
  std::string key =
      storage::EncodeTripleKey(storage::TripleOrder::kSpo, t);
  ASSERT_TRUE((*storage)->store()->Put(key, "xx").ok());
  auto loaded = (*storage)->Load();
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

}  // namespace
}  // namespace core
}  // namespace kb
