#include "world.h"

#include <algorithm>
#include <map>
#include <set>

#include "corpus/relations.h"
#include "rdf/namespaces.h"
#include "util/random.h"

namespace perfbench {

namespace {

using kb::corpus::EntityKind;
using kb::corpus::Relation;

std::string EntityRef(const std::string& canonical) {
  return "<" + kb::rdf::EntityIri(canonical) + ">";
}

std::string PropRef(std::string_view name) {
  return "<" + kb::rdf::PropertyIri(name) + ">";
}

/// Distinct subjects per object of one relation.
std::vector<std::vector<uint32_t>> SubjectsByObject(
    const kb::corpus::World& world, Relation relation) {
  std::vector<std::vector<uint32_t>> out(world.entities().size());
  for (const kb::corpus::GoldFact& f : world.facts()) {
    if (f.relation == relation) out[f.object].push_back(f.subject);
  }
  for (auto& subjects : out) {
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()),
                   subjects.end());
  }
  return out;
}

/// Top-10 GROUP BY dashboard over per-group counts.
Key Dashboard(std::string sparql, const std::map<uint32_t, int64_t>& counts,
              bool grows) {
  Key key;
  key.text = std::move(sparql);
  key.rows = std::min<size_t>(10, counts.size());
  for (const auto& [group, count] : counts) key.top = std::max(key.top, count);
  key.grows_with_writes = grows;
  return key;
}

std::vector<uint32_t> Shuffled(std::vector<uint32_t> ids, uint64_t seed) {
  kb::Rng rng(seed);
  rng.Shuffle(&ids);
  return ids;
}

}  // namespace

kb::corpus::WorldOptions ServingWorldOptions(uint64_t seed, size_t persons) {
  kb::corpus::WorldOptions options;
  options.seed = seed;
  options.num_persons = persons;
  // Scan results stay within 100-2,000 rows: ~250 births per city,
  // ~240 staff per company (0.65 jobs per person), ~200 alumni per
  // university (0.6 degrees per person).
  options.num_cities = persons / 250;
  options.num_countries = 8;
  options.num_companies = persons / 370;
  options.num_universities = persons / 300;
  options.num_bands = persons / 40;
  options.num_albums = persons / 20;
  options.num_films = persons / 25;
  return options;
}

void LoadKb(const kb::corpus::World& world, kb::core::KnowledgeBase* kb) {
  std::set<std::string> occupations;
  for (const kb::corpus::Entity& e : world.entities()) {
    kb->AssertType(e.canonical, std::string(EntityKindName(e.kind)));
    for (const std::string& occupation : e.occupations) {
      kb->AssertType(e.canonical, occupation);
      occupations.insert(occupation);
    }
    for (const auto& [lang, label] : e.labels) {
      kb->AssertLabel(e.canonical, label, lang);
    }
  }
  for (const std::string& occupation : occupations) {
    kb->AssertSubclass(occupation, "person");
  }
  for (const kb::corpus::GoldFact& f : world.facts()) {
    const kb::corpus::RelationInfo& info = GetRelationInfo(f.relation);
    kb::core::FactMeta meta;
    meta.valid_time = f.span;
    const std::string& subject = world.entity(f.subject).canonical;
    if (info.literal_object) {
      kb->AssertYearFact(subject, std::string(info.name), f.literal_year,
                         meta);
    } else {
      kb->AssertFact(subject, std::string(info.name),
                     world.entity(f.object).canonical, meta);
    }
  }
}

KeySets BuildKeySets(const kb::corpus::World& world, uint64_t seed) {
  KeySets sets;
  const size_t n = world.entities().size();
  sets.entities = n;
  sets.names.reserve(n);
  for (const kb::corpus::Entity& e : world.entities()) {
    sets.names.push_back(e.canonical);
  }

  // Expected `<e> ?p ?o` rows: the kind type, occupation types, labels
  // and distinct (relation, object) facts with e as subject.
  std::vector<std::vector<uint64_t>> facts_of(n);
  std::set<std::string> occupations;
  for (const kb::corpus::GoldFact& f : world.facts()) {
    const bool literal = GetRelationInfo(f.relation).literal_object;
    const uint64_t object =
        literal ? (uint64_t{1} << 40) | static_cast<uint32_t>(f.literal_year)
                : f.object;
    facts_of[f.subject].push_back(
        (static_cast<uint64_t>(f.relation) << 48) | object);
  }
  std::vector<uint32_t> all_ids;
  all_ids.reserve(n);
  std::vector<size_t> point_rows(n);
  for (const kb::corpus::Entity& e : world.entities()) {
    std::vector<uint64_t>& facts = facts_of[e.id];
    std::sort(facts.begin(), facts.end());
    facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
    point_rows[e.id] =
        1 + e.occupations.size() + e.labels.size() + facts.size();
    sets.triples += point_rows[e.id];
    occupations.insert(e.occupations.begin(), e.occupations.end());
    all_ids.push_back(e.id);
  }
  sets.triples += occupations.size();  // occupation subClassOf person

  for (uint32_t id : Shuffled(all_ids, seed ^ 0x5eed0001)) {
    const kb::corpus::Entity& e = world.entity(id);
    Key card;
    card.text = e.canonical;
    card.entity = id;
    card.display = e.labels.count("en") > 0 ? e.labels.at("en") : e.canonical;
    sets.cards.push_back(std::move(card));
    Key point;
    point.text = "SELECT ?p ?o WHERE { " + EntityRef(e.canonical) +
                 " ?p ?o . }";
    point.entity = id;
    point.rows = point_rows[id];
    point.grows_with_writes = e.kind == EntityKind::kPerson;
    sets.points.push_back(std::move(point));
  }

  // Scans: staff of a company, births in a city, alumni of a
  // university, each joined with two one-per-person facts (birth year
  // and birthplace or citizenship), so a row carries three terms and
  // the scan working set (~10 MB) exceeds the 8 MB result cache.
  const auto staff = SubjectsByObject(world, Relation::kWorksFor);
  const auto born = SubjectsByObject(world, Relation::kBornIn);
  const auto alumni = SubjectsByObject(world, Relation::kStudiedAt);
  std::vector<Key> scans;
  auto add_scan = [&](uint32_t object, size_t rows, std::string sparql,
                      bool grows) {
    if (rows < 100 || rows > 2000) {
      ++sets.scans_out_of_range;
      return;
    }
    Key key;
    key.text = std::move(sparql);
    key.entity = object;
    key.rows = rows;
    key.grows_with_writes = grows;
    scans.push_back(std::move(key));
  };
  const std::string works_for = PropRef("worksFor");
  const std::string year_and_birthplace = " ?p " + PropRef("birthDate") +
                                          " ?y . ?p " + PropRef("bornIn") +
                                          " ?c . }";
  for (uint32_t c : world.ByKind(EntityKind::kCompany)) {
    add_scan(c, staff[c].size(),
             "SELECT ?p ?y ?c WHERE { ?p " + works_for + " " +
                 EntityRef(sets.names[c]) + " ." + year_and_birthplace,
             true);
  }
  for (uint32_t city : world.ByKind(EntityKind::kCity)) {
    add_scan(city, born[city].size(),
             "SELECT ?p ?y ?k WHERE { ?p " + PropRef("bornIn") + " " +
                 EntityRef(sets.names[city]) + " . ?p " +
                 PropRef("birthDate") + " ?y . ?p " + PropRef("citizenOf") +
                 " ?k . }",
             false);
  }
  for (uint32_t u : world.ByKind(EntityKind::kUniversity)) {
    add_scan(u, alumni[u].size(),
             "SELECT ?p ?y ?c WHERE { ?p " + PropRef("studiedAt") + " " +
                 EntityRef(sets.names[u]) + " ." + year_and_birthplace,
             false);
  }
  std::vector<uint32_t> order(scans.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (uint32_t i : Shuffled(order, seed ^ 0x5eed0002)) {
    sets.scans.push_back(scans[i]);
  }

  // Dashboards: COUNT / GROUP BY top-10, one of them a two-pattern join.
  std::map<uint32_t, int64_t> employers, alumni_counts, births, citizens;
  for (uint32_t c = 0; c < n; ++c) {
    if (!staff[c].empty()) employers[c] = staff[c].size();
    if (!alumni[c].empty()) alumni_counts[c] = alumni[c].size();
  }
  std::vector<uint32_t> country_of(n, UINT32_MAX);
  for (const kb::corpus::GoldFact& f : world.facts()) {
    if (f.relation == Relation::kLocatedIn) country_of[f.subject] = f.object;
    if (f.relation == Relation::kCitizenOf) ++citizens[f.object];
  }
  for (uint32_t city = 0; city < n; ++city) {
    if (!born[city].empty() && country_of[city] != UINT32_MAX) {
      births[country_of[city]] += static_cast<int64_t>(born[city].size());
    }
  }
  const std::string tail = " ORDER BY DESC(?n) LIMIT 10";
  sets.aggs.push_back(Dashboard(
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p " + works_for +
          " ?c . } GROUP BY ?c" + tail,
      employers, true));
  sets.aggs.push_back(Dashboard(
      "SELECT ?k (COUNT(?p) AS ?n) WHERE { ?p " + PropRef("bornIn") +
          " ?c . ?c " + PropRef("locatedIn") + " ?k . } GROUP BY ?k" + tail,
      births, false));
  sets.aggs.push_back(Dashboard(
      "SELECT ?u (COUNT(?p) AS ?n) WHERE { ?p " + PropRef("studiedAt") +
          " ?u . } GROUP BY ?u" + tail,
      alumni_counts, false));
  sets.aggs.push_back(Dashboard(
      "SELECT ?k (COUNT(?p) AS ?n) WHERE { ?p " + PropRef("citizenOf") +
          " ?k . } GROUP BY ?k" + tail,
      citizens, false));

  sets.write_subjects =
      Shuffled(world.ByKind(EntityKind::kPerson), seed ^ 0x5eed0003);
  sets.companies = world.ByKind(EntityKind::kCompany);
  for (const kb::corpus::GoldFact& f : world.facts()) {
    if (f.relation == Relation::kWorksFor) {
      sets.works_for.insert((uint64_t{f.subject} << 32) | f.object);
    }
  }
  return sets;
}

}  // namespace perfbench
