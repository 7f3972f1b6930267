#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "corpus/generator.h"
#include "corpus/names.h"
#include "corpus/relations.h"
#include "corpus/world.h"
#include "util/string_util.h"

namespace kb {
namespace corpus {
namespace {

WorldOptions SmallWorld() {
  WorldOptions options;
  options.seed = 11;
  options.num_persons = 60;
  options.num_cities = 15;
  options.num_countries = 3;
  options.num_companies = 20;
  options.num_universities = 5;
  options.num_bands = 8;
  options.num_albums = 12;
  options.num_films = 10;
  return options;
}

// ---------------------------------------------------------------- Relations

TEST(RelationsTest, TableIsConsistent) {
  for (int i = 0; i < kNumRelations; ++i) {
    Relation r = static_cast<Relation>(i);
    const RelationInfo& info = GetRelationInfo(r);
    EXPECT_EQ(info.relation, r);
    EXPECT_FALSE(info.name.empty());
    EXPECT_EQ(RelationByName(info.name), r);
  }
  EXPECT_EQ(RelationByName("noSuchRelation"), Relation::kNumRelations);
}

// ---------------------------------------------------------------- World

TEST(WorldTest, DeterministicForSeed) {
  World a = World::Generate(SmallWorld());
  World b = World::Generate(SmallWorld());
  ASSERT_EQ(a.entities().size(), b.entities().size());
  ASSERT_EQ(a.facts().size(), b.facts().size());
  for (size_t i = 0; i < a.entities().size(); ++i) {
    EXPECT_EQ(a.entities()[i].canonical, b.entities()[i].canonical);
  }
}

TEST(WorldTest, EntityCountsMatchOptions) {
  WorldOptions options = SmallWorld();
  World world = World::Generate(options);
  EXPECT_EQ(world.ByKind(EntityKind::kPerson).size(), options.num_persons);
  EXPECT_EQ(world.ByKind(EntityKind::kCity).size(), options.num_cities);
  EXPECT_EQ(world.ByKind(EntityKind::kCountry).size(),
            options.num_countries);
  EXPECT_EQ(world.ByKind(EntityKind::kCompany).size(),
            options.num_companies);
}

TEST(WorldTest, CanonicalNamesAreUnique) {
  World world = World::Generate(SmallWorld());
  std::unordered_set<std::string> seen;
  for (const Entity& e : world.entities()) {
    EXPECT_TRUE(seen.insert(e.canonical).second) << e.canonical;
  }
}

/// The canonical-name rule probed from `_2` on every collision, as
/// World::Generate first did it (quadratic in a popular name's count):
/// the reference the resuming probe must reproduce.
std::string LinearProbeCanonical(const std::string& display,
                                 std::unordered_set<std::string>* used) {
  std::string base = ReplaceAll(display, " ", "_");
  std::string candidate = base;
  int suffix = 1;
  while (used->count(candidate) > 0) {
    candidate = base + "_" + std::to_string(++suffix);
  }
  used->insert(candidate);
  return candidate;
}

TEST(WorldTest, CanonicalNamesMatchLinearProbe) {
  // Thousands of persons over the fixed name pools, and cities that
  // mostly reuse an earlier name: most bases collide, many often.
  WorldOptions options = SmallWorld();
  options.num_persons = 6000;
  options.num_cities = 300;
  options.city_name_reuse = 0.8;
  World world = World::Generate(options);
  std::unordered_set<std::string> used;
  size_t suffixed = 0;
  for (const Entity& e : world.entities()) {
    const std::string expected = LinearProbeCanonical(e.full_name, &used);
    EXPECT_EQ(e.canonical, expected) << e.full_name;
    if (expected != ReplaceAll(e.full_name, " ", "_")) ++suffixed;
  }
  EXPECT_GT(suffixed, world.entities().size() / 4);
}

TEST(WorldTest, FactsRespectRelationSignatures) {
  World world = World::Generate(SmallWorld());
  for (const GoldFact& f : world.facts()) {
    const RelationInfo& info = GetRelationInfo(f.relation);
    EXPECT_EQ(world.entity(f.subject).kind, info.subject_kind)
        << info.name;
    if (!info.literal_object) {
      ASSERT_NE(f.object, UINT32_MAX) << info.name;
      EXPECT_EQ(world.entity(f.object).kind, info.object_kind)
          << info.name;
    }
  }
}

TEST(WorldTest, FunctionalRelationsHaveOneValuePerSubject) {
  World world = World::Generate(SmallWorld());
  std::set<std::pair<uint32_t, int>> seen;
  for (const GoldFact& f : world.facts()) {
    if (!GetRelationInfo(f.relation).functional) continue;
    auto key = std::make_pair(f.subject, static_cast<int>(f.relation));
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate functional fact " << GetRelationInfo(f.relation).name
        << " for subject " << world.entity(f.subject).canonical;
  }
}

TEST(WorldTest, EveryPersonHasBirthFacts) {
  World world = World::Generate(SmallWorld());
  for (uint32_t id : world.ByKind(EntityKind::kPerson)) {
    EXPECT_TRUE(world.entity(id).birth_date.valid());
    bool has_born_in = false;
    for (const GoldFact* f : world.FactsOf(id)) {
      if (f->relation == Relation::kBornIn) has_born_in = true;
    }
    EXPECT_TRUE(has_born_in) << world.entity(id).canonical;
  }
}

TEST(WorldTest, TemporalFactsHaveSpans) {
  World world = World::Generate(SmallWorld());
  int temporal = 0;
  for (const GoldFact& f : world.facts()) {
    if (f.relation == Relation::kMayorOf ||
        f.relation == Relation::kWorksFor) {
      EXPECT_TRUE(f.span.begin.valid());
      ++temporal;
    }
  }
  EXPECT_GT(temporal, 0);
}

TEST(WorldTest, SurnameAmbiguityExists) {
  World world = World::Generate(SmallWorld());
  std::map<std::string, int> surname_count;
  for (uint32_t id : world.ByKind(EntityKind::kPerson)) {
    const Entity& e = world.entity(id);
    ASSERT_FALSE(e.aliases.empty());
    surname_count[e.aliases[0]]++;
  }
  int shared = 0;
  for (const auto& [surname, count] : surname_count) {
    if (count > 1) ++shared;
  }
  EXPECT_GT(shared, 0) << "no ambiguous surnames generated";
}

TEST(WorldTest, MultilingualLabelsPresent) {
  World world = World::Generate(SmallWorld());
  for (const Entity& e : world.entities()) {
    EXPECT_EQ(e.labels.count("en"), 1u);
    EXPECT_EQ(e.labels.count("de"), 1u);
    EXPECT_EQ(e.labels.count("fr"), 1u);
    EXPECT_NE(e.labels.at("de"), "") << e.canonical;
  }
}

TEST(WorldTest, HasFactLookupAgreesWithList) {
  World world = World::Generate(SmallWorld());
  for (const GoldFact& f : world.facts()) {
    EXPECT_TRUE(
        world.HasFact(f.subject, f.relation, f.object, f.literal_year));
  }
  EXPECT_FALSE(world.HasFact(0, Relation::kBornIn, UINT32_MAX - 1));
}

TEST(WorldTest, GoldRulesArePlanted) {
  World world = World::Generate(SmallWorld());
  ASSERT_GE(world.gold_rules().size(), 2u);
  // R1: citizenOf follows bornIn+locatedIn for ~90% of persons.
  int match = 0, total = 0;
  for (uint32_t person : world.ByKind(EntityKind::kPerson)) {
    uint32_t born_city = UINT32_MAX, citizen_of = UINT32_MAX;
    for (const GoldFact* f : world.FactsOf(person)) {
      if (f->relation == Relation::kBornIn) born_city = f->object;
      if (f->relation == Relation::kCitizenOf) citizen_of = f->object;
    }
    ASSERT_NE(born_city, UINT32_MAX);
    ASSERT_NE(citizen_of, UINT32_MAX);
    ++total;
    if (world.entity(born_city).country == citizen_of) ++match;
  }
  EXPECT_GT(match, total * 7 / 10);
  EXPECT_LT(match, total);  // the exception exists
}

// ---------------------------------------------------------------- Names

TEST(NamesTest, LocalizeIsDeterministicAndDistinct) {
  std::string de = NameGenerator::Localize("Marcus Hallberg", "de");
  EXPECT_EQ(de, NameGenerator::Localize("Marcus Hallberg", "de"));
  EXPECT_NE(de, "Marcus Hallberg");
  EXPECT_EQ(NameGenerator::Localize("X", "en"), "X");
}

// ---------------------------------------------------------------- Docs

class CorpusFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions copts;
    copts.seed = 13;
    copts.news_docs = 50;
    copts.web_docs = 20;
    corpus_ = new Corpus(BuildCorpus(SmallWorld(), copts));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static Corpus* corpus_;
};

Corpus* CorpusFixture::corpus_ = nullptr;

TEST_F(CorpusFixture, OneArticlePerEntityPlusExtras) {
  const Corpus& c = *corpus_;
  EXPECT_EQ(c.docs.size(),
            c.world.entities().size() + c.options.news_docs +
                c.options.web_docs);
  for (size_t i = 0; i < c.world.entities().size(); ++i) {
    EXPECT_EQ(c.docs[i].kind, DocKind::kArticle);
    EXPECT_EQ(c.docs[i].subject, i);
  }
}

TEST_F(CorpusFixture, MentionOffsetsAreExact) {
  for (const Document& doc : corpus_->docs) {
    for (const Mention& m : doc.mentions) {
      ASSERT_LE(m.end, doc.text.size());
      std::string surface = doc.text.substr(m.begin, m.end - m.begin);
      const Entity& e = corpus_->world.entity(m.entity);
      bool matches = surface == e.full_name;
      for (const std::string& alias : e.aliases) {
        matches = matches || surface == alias;
      }
      EXPECT_TRUE(matches) << "surface '" << surface << "' for entity "
                           << e.canonical << " in doc " << doc.title;
    }
  }
}

TEST_F(CorpusFixture, ExpressedFactIdsAreValid) {
  for (const Document& doc : corpus_->docs) {
    for (uint32_t fact_id : doc.fact_ids) {
      ASSERT_LT(fact_id, corpus_->world.facts().size());
    }
  }
}

TEST_F(CorpusFixture, ArticlesCarryInfoboxAndCategories) {
  size_t with_infobox = 0, with_categories = 0;
  for (const Document& doc : corpus_->docs) {
    if (doc.kind != DocKind::kArticle) continue;
    if (!doc.infobox.empty()) ++with_infobox;
    if (!doc.categories.empty()) ++with_categories;
    EXPECT_NE(doc.text.find("{{Infobox"), std::string::npos);
  }
  EXPECT_GT(with_infobox, corpus_->world.entities().size() / 2);
  EXPECT_EQ(with_categories, corpus_->world.entities().size());
}

TEST_F(CorpusFixture, InfoboxSlotsAppearInMarkup) {
  for (const Document& doc : corpus_->docs) {
    for (const InfoboxSlot& slot : doc.infobox) {
      EXPECT_NE(doc.text.find("| " + slot.key + " = "), std::string::npos)
          << doc.title;
    }
  }
}

TEST_F(CorpusFixture, InterwikiLinksAppearInMarkup) {
  size_t total = 0;
  for (const Document& doc : corpus_->docs) {
    for (const auto& [lang, label] : doc.interwiki) {
      ++total;
      std::string link = "[[" + lang + ":";
      EXPECT_NE(doc.text.find(link), std::string::npos);
    }
  }
  EXPECT_GT(total, 0u);
}

TEST_F(CorpusFixture, NewsDocsProvideRedundancy) {
  // At least some facts are expressed in more than one document.
  std::map<uint32_t, int> coverage;
  for (const Document& doc : corpus_->docs) {
    for (uint32_t fact_id : doc.fact_ids) coverage[fact_id]++;
  }
  int redundant = 0;
  for (const auto& [fact, count] : coverage) {
    if (count > 1) ++redundant;
  }
  EXPECT_GT(redundant, 10);
}

TEST_F(CorpusFixture, DeterministicGeneration) {
  CorpusOptions copts;
  copts.seed = 13;
  copts.news_docs = 50;
  copts.web_docs = 20;
  Corpus again = BuildCorpus(SmallWorld(), copts);
  ASSERT_EQ(again.docs.size(), corpus_->docs.size());
  for (size_t i = 0; i < again.docs.size(); ++i) {
    EXPECT_EQ(again.docs[i].text, corpus_->docs[i].text) << i;
  }
}

}  // namespace
}  // namespace corpus
}  // namespace kb
