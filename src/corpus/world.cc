#include "corpus/world.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "corpus/names.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kb {
namespace corpus {

namespace {

const char* kOccupations[] = {"singer",       "entrepreneur", "scientist",
                              "actor",        "politician",   "writer",
                              "musician"};

/// Gold commonsense assertions (plus planted false ones).
const CommonsenseAssertion kCommonsenseTable[] = {
    {"apple", "hasProperty", "red", true},
    {"apple", "hasProperty", "green", true},
    {"apple", "hasProperty", "juicy", true},
    {"apple", "hasProperty", "sweet", true},
    {"apple", "hasProperty", "sour", true},
    {"apple", "hasProperty", "fast", false},
    {"apple", "hasProperty", "funny", false},
    {"banana", "hasProperty", "yellow", true},
    {"banana", "hasProperty", "sweet", true},
    {"banana", "hasProperty", "soft", true},
    {"banana", "hasProperty", "loud", false},
    {"fire", "hasProperty", "hot", true},
    {"ice", "hasProperty", "cold", true},
    {"ice", "hasProperty", "funny", false},
    {"guitar", "hasProperty", "loud", true},
    {"guitar", "hasProperty", "wooden", true},
    {"clarinet", "hasShape", "cylindrical", true},
    {"wheel", "hasShape", "round", true},
    {"mouthpiece", "partOf", "clarinet", true},
    {"wheel", "partOf", "car", true},
    {"engine", "partOf", "car", true},
    {"string", "partOf", "guitar", true},
    {"string", "partOf", "car", false},
};

/// Hands out unique canonical names: the display name with spaces as
/// underscores, then `_2`, `_3`, ... on a collision. `taken_` maps each
/// name handed out to the last suffix handed out with it as the base
/// (0: never a base). Names are never released, so every suffix below
/// that one is taken and probing resumes after it instead of at `_2`:
/// linear in the number of entities, not quadratic in a name's count.
class CanonicalNamer {
 public:
  std::string Make(const std::string& display) {
    std::string base = ReplaceAll(display, " ", "_");
    auto [it, fresh] = taken_.try_emplace(base, 1);
    if (fresh) return base;
    int& last = it->second;  // element references survive rehashing
    int suffix = std::max(last, 1);
    std::string candidate;
    do {
      candidate = base + "_" + std::to_string(++suffix);
    } while (!taken_.try_emplace(candidate, 0).second);
    last = suffix;
    return candidate;
  }

 private:
  std::unordered_map<std::string, int> taken_;
};

}  // namespace

std::vector<std::string> World::AllClassNames() const {
  std::set<std::string> names;
  for (size_t k = 0; k < static_cast<size_t>(EntityKind::kNumKinds); ++k) {
    names.insert(std::string(EntityKindName(static_cast<EntityKind>(k))));
  }
  for (const char* occ : kOccupations) names.insert(occ);
  return std::vector<std::string>(names.begin(), names.end());
}

World World::Generate(const WorldOptions& options) {
  World world;
  world.options_ = options;
  world.by_kind_.resize(static_cast<size_t>(EntityKind::kNumKinds));
  Rng rng(options.seed);
  NameGenerator names(&rng);
  CanonicalNamer canonicals;

  auto new_entity = [&](EntityKind kind, const std::string& display)
      -> Entity& {
    Entity e;
    e.id = static_cast<uint32_t>(world.entities_.size());
    e.kind = kind;
    e.full_name = display;
    e.canonical = canonicals.Make(display);
    e.labels["en"] = display;
    e.labels["de"] = NameGenerator::Localize(display, "de");
    e.labels["fr"] = NameGenerator::Localize(display, "fr");
    e.popularity = static_cast<uint32_t>(1 + rng.Zipf(50, 1.1));
    world.entities_.push_back(std::move(e));
    Entity& ref = world.entities_.back();
    world.by_kind_[static_cast<size_t>(kind)].push_back(ref.id);
    return ref;
  };

  // ---- Countries ----------------------------------------------------
  for (size_t i = 0; i < options.num_countries; ++i) {
    Entity& country = new_entity(EntityKind::kCountry,
                                 names.CountryName(i));
    country.nationality = country.full_name + "n";
    country.aliases.push_back(country.full_name);
  }
  const auto& countries = world.by_kind_[
      static_cast<size_t>(EntityKind::kCountry)];

  // ---- Cities --------------------------------------------------------
  std::vector<std::string> city_names;
  for (size_t i = 0; i < options.num_cities; ++i) {
    std::string name;
    if (!city_names.empty() && rng.Bernoulli(options.city_name_reuse)) {
      name = rng.Choice(city_names);  // deliberate ambiguity
    } else {
      name = names.CityName();
    }
    city_names.push_back(name);
    Entity& city = new_entity(EntityKind::kCity, name);
    uint32_t country = countries[i < countries.size()
                                     ? i  // first city per country = capital
                                     : rng.Uniform(countries.size())];
    city.country = country;
    city.aliases.push_back(name);
    GoldFact located;
    located.subject = city.id;
    located.relation = Relation::kLocatedIn;
    located.object = country;
    world.AddFact(located);
    if (i < countries.size()) {
      GoldFact capital;
      capital.subject = city.id;
      capital.relation = Relation::kCapitalOf;
      capital.object = country;
      world.AddFact(capital);
    }
  }
  const auto& cities = world.by_kind_[static_cast<size_t>(EntityKind::kCity)];

  // ---- Universities ---------------------------------------------------
  for (size_t i = 0; i < options.num_universities; ++i) {
    uint32_t city = cities[rng.Uniform(cities.size())];
    Entity& uni = new_entity(
        EntityKind::kUniversity,
        names.UniversityName(world.entities_[city].full_name));
    uni.country = world.entities_[city].country;
    uni.aliases.push_back(uni.full_name);
  }
  const auto& universities =
      world.by_kind_[static_cast<size_t>(EntityKind::kUniversity)];

  // ---- Persons ---------------------------------------------------------
  std::vector<std::string> surnames_in_use;
  for (size_t i = 0; i < options.num_persons; ++i) {
    std::string given = names.GivenName();
    std::string surname;
    if (!surnames_in_use.empty() && rng.Bernoulli(options.surname_reuse)) {
      surname = rng.Choice(surnames_in_use);
    } else {
      surname = names.Surname();
    }
    surnames_in_use.push_back(surname);
    Entity& person = new_entity(EntityKind::kPerson, given + " " + surname);
    person.aliases.push_back(surname);                     // ambiguous
    person.aliases.push_back(given.substr(0, 1) + ". " + surname);
    person.birth_date.year = static_cast<int32_t>(rng.UniformInt(1940, 2000));
    person.birth_date.month = static_cast<int8_t>(rng.UniformInt(1, 12));
    person.birth_date.day = static_cast<int8_t>(rng.UniformInt(1, 28));
    int num_occupations = rng.Bernoulli(0.3) ? 2 : 1;
    for (int k = 0; k < num_occupations; ++k) {
      std::string occ = kOccupations[rng.Uniform(
          sizeof(kOccupations) / sizeof(kOccupations[0]))];
      if (std::find(person.occupations.begin(), person.occupations.end(),
                    occ) == person.occupations.end()) {
        person.occupations.push_back(occ);
      }
    }
    uint32_t birth_city = cities[rng.Uniform(cities.size())];
    person.country = world.entities_[birth_city].country;
    person.nationality = world.entities_[person.country].nationality;

    GoldFact born;
    born.subject = person.id;
    born.relation = Relation::kBornIn;
    born.object = birth_city;
    world.AddFact(born);

    GoldFact bdate;
    bdate.subject = person.id;
    bdate.relation = Relation::kBirthDate;
    bdate.literal_date = person.birth_date;
    bdate.literal_year = person.birth_date.year;
    world.AddFact(bdate);

    // Citizenship follows the birth city's country with p=0.9 (the
    // planted exception keeps rule R1's confidence below 1).
    GoldFact citizen;
    citizen.subject = person.id;
    citizen.relation = Relation::kCitizenOf;
    citizen.object = rng.Bernoulli(0.9)
                         ? person.country
                         : countries[rng.Uniform(countries.size())];
    world.AddFact(citizen);

    if (!universities.empty() && rng.Bernoulli(0.6)) {
      GoldFact studied;
      studied.subject = person.id;
      studied.relation = Relation::kStudiedAt;
      studied.object = universities[rng.Uniform(universities.size())];
      world.AddFact(studied);
    }
  }
  const auto& persons =
      world.by_kind_[static_cast<size_t>(EntityKind::kPerson)];

  // ---- Marriages (sequential for temporal scoping) ----------------------
  {
    std::vector<uint32_t> pool = persons;
    rng.Shuffle(&pool);
    for (size_t i = 0; i + 1 < pool.size() && i < pool.size() / 2; i += 2) {
      const Entity& a = world.entities_[pool[i]];
      const Entity& b = world.entities_[pool[i + 1]];
      int start = std::max(a.birth_date.year, b.birth_date.year) +
                  static_cast<int>(rng.UniformInt(20, 35));
      GoldFact marriage;
      marriage.subject = pool[i];
      marriage.relation = Relation::kMarriedTo;
      marriage.object = pool[i + 1];
      marriage.span.begin.year = start;
      if (rng.Bernoulli(0.3)) marriage.span.end.year =
          start + static_cast<int>(rng.UniformInt(2, 25));
      world.AddFact(marriage);
    }
  }

  // ---- Companies ---------------------------------------------------------
  for (size_t i = 0; i < options.num_companies; ++i) {
    uint32_t founder = persons[rng.Uniform(persons.size())];
    // Copy before new_entity: the push_back may reallocate entities_,
    // invalidating any reference into it.
    const std::string surname =
        Split(world.entities_[founder].full_name, ' ').back();
    const int founder_birth_year = world.entities_[founder].birth_date.year;
    Entity& company = new_entity(EntityKind::kCompany,
                                 names.CompanyName(surname));
    uint32_t hq = cities[rng.Uniform(cities.size())];
    company.country = world.entities_[hq].country;
    company.aliases.push_back(Split(company.full_name, ' ')[0]);
    int founded_year = std::max(founder_birth_year + 20,
                                1960 + static_cast<int>(rng.UniformInt(0, 50)));

    GoldFact founded;
    founded.subject = founder;
    founded.relation = Relation::kFounded;
    founded.object = company.id;
    world.AddFact(founded);
    if (rng.Bernoulli(0.3)) {  // co-founder
      uint32_t cofounder = persons[rng.Uniform(persons.size())];
      if (cofounder != founder) {
        GoldFact cf;
        cf.subject = cofounder;
        cf.relation = Relation::kFounded;
        cf.object = company.id;
        world.AddFact(cf);
      }
    }
    GoldFact fy;
    fy.subject = company.id;
    fy.relation = Relation::kFoundedYear;
    fy.literal_year = founded_year;
    world.AddFact(fy);
    GoldFact hqf;
    hqf.subject = company.id;
    hqf.relation = Relation::kHeadquarteredIn;
    hqf.object = hq;
    world.AddFact(hqf);
  }
  const auto& companies =
      world.by_kind_[static_cast<size_t>(EntityKind::kCompany)];

  // ---- Employment (temporal) ---------------------------------------------
  for (uint32_t person : persons) {
    if (!rng.Bernoulli(0.5) || companies.empty()) continue;
    const Entity& pe = world.entities_[person];
    int num_jobs = rng.Bernoulli(0.3) ? 2 : 1;
    int year = pe.birth_date.year + static_cast<int>(rng.UniformInt(20, 30));
    for (int j = 0; j < num_jobs; ++j) {
      GoldFact job;
      job.subject = person;
      job.relation = Relation::kWorksFor;
      job.object = companies[rng.Uniform(companies.size())];
      job.span.begin.year = year;
      int duration = static_cast<int>(rng.UniformInt(2, 15));
      if (j + 1 < num_jobs || rng.Bernoulli(0.5)) {
        job.span.end.year = year + duration;
      }
      year += duration + 1;
      world.AddFact(job);
    }
  }

  // ---- Mayors (temporal) ---------------------------------------------------
  for (uint32_t person : persons) {
    const Entity& pe = world.entities_[person];
    if (std::find(pe.occupations.begin(), pe.occupations.end(),
                  "politician") == pe.occupations.end()) {
      continue;
    }
    if (!rng.Bernoulli(0.5)) continue;
    GoldFact mayor;
    mayor.subject = person;
    mayor.relation = Relation::kMayorOf;
    mayor.object = cities[rng.Uniform(cities.size())];
    mayor.span.begin.year =
        pe.birth_date.year + static_cast<int>(rng.UniformInt(35, 50));
    mayor.span.end.year =
        mayor.span.begin.year + static_cast<int>(rng.UniformInt(4, 12));
    world.AddFact(mayor);
  }

  // ---- Bands, albums -----------------------------------------------------
  for (size_t i = 0; i < options.num_bands; ++i) {
    Entity& band = new_entity(EntityKind::kBand, names.BandName());
    band.aliases.push_back(band.full_name.substr(4));  // drop "The "
    int members = static_cast<int>(rng.UniformInt(2, 4));
    for (int m = 0; m < members; ++m) {
      GoldFact member;
      member.subject = persons[rng.Uniform(persons.size())];
      member.relation = Relation::kMemberOf;
      member.object = band.id;
      world.AddFact(member);
    }
  }
  const auto& bands = world.by_kind_[static_cast<size_t>(EntityKind::kBand)];
  for (size_t i = 0; i < options.num_albums && !bands.empty(); ++i) {
    Entity& album = new_entity(EntityKind::kAlbum, names.AlbumTitle());
    album.aliases.push_back(album.full_name);
    uint32_t band = bands[rng.Uniform(bands.size())];
    GoldFact rel;
    rel.subject = band;
    rel.relation = Relation::kReleasedAlbum;
    rel.object = album.id;
    world.AddFact(rel);
    GoldFact year;
    year.subject = album.id;
    year.relation = Relation::kReleaseYear;
    year.literal_year = static_cast<int32_t>(rng.UniformInt(1965, 2013));
    world.AddFact(year);
  }

  // ---- Films ---------------------------------------------------------------
  for (size_t i = 0; i < options.num_films; ++i) {
    Entity& film = new_entity(EntityKind::kFilm, names.FilmTitle());
    film.aliases.push_back(film.full_name);
    GoldFact directed;
    directed.subject = persons[rng.Uniform(persons.size())];
    directed.relation = Relation::kDirected;
    directed.object = film.id;
    world.AddFact(directed);
    int cast = static_cast<int>(rng.UniformInt(1, 3));
    for (int a = 0; a < cast; ++a) {
      GoldFact acted;
      acted.subject = persons[rng.Uniform(persons.size())];
      acted.relation = Relation::kActedIn;
      acted.object = film.id;
      world.AddFact(acted);
    }
  }

  // ---- Commonsense + rules ---------------------------------------------
  for (const CommonsenseAssertion& a : kCommonsenseTable) {
    world.commonsense_.push_back(a);
  }
  world.gold_rules_.push_back(
      {Relation::kCitizenOf, Relation::kBornIn, Relation::kLocatedIn,
       "citizenOf(x,z) <= bornIn(x,y) AND locatedIn(y,z)"});
  world.gold_rules_.push_back(
      {Relation::kLocatedIn, Relation::kCapitalOf, Relation::kNumRelations,
       "locatedIn(x,z) <= capitalOf(x,z)"});

  return world;
}

std::vector<std::string> World::CategoriesOf(uint32_t id) const {
  const Entity& e = entities_[id];
  std::vector<std::string> cats;
  auto country_name = [&](uint32_t c) {
    return c == UINT32_MAX ? std::string("Terra") : entities_[c].full_name;
  };
  switch (e.kind) {
    case EntityKind::kPerson: {
      for (const std::string& occ : e.occupations) {
        cats.push_back(e.nationality + " " + occ + "s");
      }
      cats.push_back(std::to_string(e.birth_date.year) + " births");
      break;
    }
    case EntityKind::kCity:
      cats.push_back("Cities in " + country_name(e.country));
      break;
    case EntityKind::kCountry:
      cats.push_back("Countries");
      break;
    case EntityKind::kCompany:
      cats.push_back("Companies of " + country_name(e.country));
      break;
    case EntityKind::kUniversity:
      cats.push_back("Universities in " + country_name(e.country));
      break;
    case EntityKind::kBand:
      cats.push_back("Musical groups");
      break;
    case EntityKind::kAlbum:
      cats.push_back("Albums");
      break;
    case EntityKind::kFilm:
      cats.push_back("Films");
      break;
    case EntityKind::kNumKinds:
      break;
  }
  return cats;
}

std::vector<const GoldFact*> World::FactsOf(uint32_t subject) const {
  std::vector<const GoldFact*> out;
  for (const GoldFact& f : facts_) {
    if (f.subject == subject) out.push_back(&f);
  }
  return out;
}

bool World::HasFact(uint32_t subject, Relation relation, uint32_t object,
                    int32_t literal_year) const {
  for (const GoldFact& f : facts_) {
    if (f.subject != subject || f.relation != relation) continue;
    if (GetRelationInfo(relation).literal_object) {
      if (f.literal_year == literal_year) return true;
    } else if (f.object == object) {
      return true;
    }
  }
  return false;
}

}  // namespace corpus
}  // namespace kb
