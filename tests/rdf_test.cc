#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/frame_store.h"
#include "rdf/namespaces.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "util/random.h"

namespace kb {
namespace rdf {
namespace {

// ---------------------------------------------------------------- Term

TEST(TermTest, IriRoundTrip) {
  Term t = Term::Iri("http://kbforge.org/entity/Steve_Jobs");
  EXPECT_EQ(t.ToString(), "<http://kbforge.org/entity/Steve_Jobs>");
  auto parsed = Term::Parse(t.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(TermTest, PlainLiteralRoundTrip) {
  Term t = Term::Literal("hello \"world\"\nnext");
  auto parsed = Term::Parse(t.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(TermTest, LangLiteralRoundTrip) {
  Term t = Term::LangLiteral("Vienne", "fr");
  EXPECT_EQ(t.ToString(), "\"Vienne\"@fr");
  auto parsed = Term::Parse(t.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->language(), "fr");
}

TEST(TermTest, TypedLiteralRoundTrip) {
  Term t = Term::IntLiteral(42);
  auto parsed = Term::Parse(t.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value(), "42");
  EXPECT_EQ(parsed->datatype(), "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(TermTest, BlankRoundTrip) {
  Term t = Term::Blank("b42");
  EXPECT_EQ(t.ToString(), "_:b42");
  auto parsed = Term::Parse("_:b42");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(TermTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Term::Parse("").ok());
  EXPECT_FALSE(Term::Parse("<unterminated").ok());
  EXPECT_FALSE(Term::Parse("\"unterminated").ok());
  EXPECT_FALSE(Term::Parse("plainword").ok());
}

TEST(NamespacesTest, AbbreviateKnownPrefixes) {
  EXPECT_EQ(Abbreviate(EntityIri("Steve_Jobs")), "kb:Steve_Jobs");
  EXPECT_EQ(Abbreviate(std::string(kRdfType)), "rdf:type");
  EXPECT_EQ(Abbreviate("http://example.org/x"), "http://example.org/x");
}

// ---------------------------------------------------------------- Dictionary

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("x"));
  TermId b = dict.Intern(Term::Iri("x"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.term(a).value(), "x");
}

TEST(DictionaryTest, DistinctTermsDistinctIds) {
  Dictionary dict;
  TermId iri = dict.Intern(Term::Iri("x"));
  TermId lit = dict.Intern(Term::Literal("x"));
  EXPECT_NE(iri, lit);
}

TEST(DictionaryTest, LookupMissReturnsInvalid) {
  Dictionary dict;
  EXPECT_EQ(dict.Lookup(Term::Iri("nope")), kInvalidTermId);
}

// ---------------------------------------------------------------- Store

class TripleStoreTest : public ::testing::Test {
 protected:
  TermId Iri(const std::string& s) {
    return store_.dict().Intern(Term::Iri(s));
  }
  TripleStore store_;
};

TEST_F(TripleStoreTest, AddAndContains) {
  Triple t(Iri("s"), Iri("p"), Iri("o"));
  EXPECT_TRUE(store_.Add(t));
  EXPECT_FALSE(store_.Add(t));  // duplicate
  EXPECT_TRUE(store_.Contains(t));
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(TripleStoreTest, PatternShapesAllWork) {
  TermId s1 = Iri("s1"), s2 = Iri("s2");
  TermId p1 = Iri("p1"), p2 = Iri("p2");
  TermId o1 = Iri("o1"), o2 = Iri("o2");
  for (TermId s : {s1, s2})
    for (TermId p : {p1, p2})
      for (TermId o : {o1, o2}) store_.Add(Triple(s, p, o));
  EXPECT_EQ(store_.size(), 8u);

  TriplePattern all;
  EXPECT_EQ(store_.Match(all).size(), 8u);
  TriplePattern sp;
  sp.s = s1;
  sp.p = p2;
  EXPECT_EQ(store_.Match(sp).size(), 2u);
  TriplePattern po;
  po.p = p1;
  po.o = o2;
  EXPECT_EQ(store_.Match(po).size(), 2u);
  TriplePattern so;
  so.s = s2;
  so.o = o1;
  EXPECT_EQ(store_.Match(so).size(), 2u);
  TriplePattern exact;
  exact.s = s1;
  exact.p = p1;
  exact.o = o1;
  EXPECT_EQ(store_.Match(exact).size(), 1u);
}

TEST_F(TripleStoreTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    store_.Add(Triple(Iri("s"), Iri("p"), Iri("o" + std::to_string(i))));
  }
  int seen = 0;
  TriplePattern pat;
  pat.s = store_.dict().Lookup(Term::Iri("s"));
  store_.Scan(pat, [&seen](const Triple&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(TripleStoreTest, InterleavedAddAndQuery) {
  TermId p = Iri("p");
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      store_.Add(Triple(Iri("s" + std::to_string(round * 100 + i)), p,
                        Iri("o")));
    }
    TriplePattern pat;
    pat.p = p;
    EXPECT_EQ(store_.EstimateCount(pat), (round + 1) * 100u);
  }
}

// Property test: the indexed matcher must agree with a full scan on
// randomly generated stores and patterns.
class TripleStorePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TripleStorePropertyTest, IndexAgreesWithFullScan) {
  Rng rng(GetParam());
  TripleStore store;
  std::vector<TermId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(store.dict().Intern(Term::Iri("t" + std::to_string(i))));
  }
  for (int i = 0; i < 500; ++i) {
    store.Add(Triple(rng.Choice(ids), rng.Choice(ids), rng.Choice(ids)));
  }
  for (int q = 0; q < 100; ++q) {
    TriplePattern pat;
    if (rng.Bernoulli(0.5)) pat.s = rng.Choice(ids);
    if (rng.Bernoulli(0.5)) pat.p = rng.Choice(ids);
    if (rng.Bernoulli(0.5)) pat.o = rng.Choice(ids);
    auto indexed = store.Match(pat);
    auto scanned = store.MatchFullScan(pat);
    auto key = [](const Triple& t) {
      return std::tuple(t.s, t.p, t.o);
    };
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned.begin(), scanned.end());
    ASSERT_EQ(indexed.size(), scanned.size());
    for (size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(key(indexed[i]), key(scanned[i]));
    }
  }
}

TEST_P(TripleStorePropertyTest, AddContainsSizeAgreeWithSetModel) {
  // ~4k distinct triples out of 12.8k possible: the flat set grows
  // from 16 to 8,192 slots on the way, and many adds are repeats.
  Rng rng(GetParam());
  TripleStore store;
  std::set<Triple> model;
  auto random_triple = [&rng]() {
    return Triple(static_cast<TermId>(1 + rng.Uniform(40)),
                  static_cast<TermId>(1 + rng.Uniform(8)),
                  static_cast<TermId>(1 + rng.Uniform(40)));
  };
  for (int i = 0; i < 5000; ++i) {
    const Triple t = random_triple();
    const bool fresh = model.insert(t).second;
    EXPECT_EQ(store.Add(t), fresh);
    EXPECT_FALSE(store.Add(t)) << "a duplicate Add must return false";
    ASSERT_EQ(store.size(), model.size());
    if (i % 97 == 0) {
      for (int q = 0; q < 50; ++q) {
        const Triple probe = random_triple();
        EXPECT_EQ(store.Contains(probe), model.count(probe) > 0);
      }
    }
  }
  for (const Triple& t : model) EXPECT_TRUE(store.Contains(t));
  EXPECT_EQ(store.Snapshot()->size(), model.size());
}

/// The pattern of shape `shape` over `t`'s components: bit 0 binds s,
/// bit 1 binds p, bit 2 binds o. Shapes 0-7 are all eight shapes.
TriplePattern ShapeOf(int shape, const Triple& t) {
  TriplePattern pat;
  if (shape & 1) pat.s = t.s;
  if (shape & 2) pat.p = t.p;
  if (shape & 4) pat.o = t.o;
  return pat;
}

TEST_P(TripleStorePropertyTest, SnapshotBootedStoreAgreesWithSetModel) {
  // A store booted from a FrameStore base, with writes on top that
  // also re-add base triples. Its reads go through the base's runs and
  // the delta's; each pattern shape must see their union once, in
  // ChooseScanOrder's collation. Cases: no base triples, no delta, and
  // both.
  Rng rng(GetParam());
  constexpr TermId kTerms = 12;
  auto random_triple = [&rng]() {
    return Triple(static_cast<TermId>(1 + rng.Uniform(kTerms)),
                  static_cast<TermId>(1 + rng.Uniform(4)),
                  static_cast<TermId>(1 + rng.Uniform(kTerms)));
  };
  const std::pair<size_t, int> kCases[] = {{0, 240}, {200, 0}, {200, 240}};
  for (const auto& [base_size, delta_adds] : kCases) {
    std::set<Triple> model;
    while (model.size() < base_size) model.insert(random_triple());
    const std::vector<Triple> base_triples(model.begin(), model.end());
    FrameStoreBuilder builder;
    for (TermId id = 1; id <= kTerms; ++id) {
      builder.AddTerm(Term::Iri("t" + std::to_string(id)));
    }
    for (const Triple& t : base_triples) builder.AddTriple(t);
    auto bytes = builder.Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto owner = std::make_shared<std::string>(std::move(*bytes));
    auto base = FrameStore::Attach(owner->data(), owner->size(), owner);
    ASSERT_TRUE(base.ok()) << base.status();
    TripleStore store(*base);

    // Three rounds of writes, each read back, so later snapshots merge
    // new writes into an earlier delta.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < delta_adds / 3; ++i) {
        // One add in four re-adds a base triple, which must be a no-op.
        Triple t = random_triple();
        if (!base_triples.empty() && rng.Uniform(4) == 0) {
          t = rng.Choice(base_triples);
        }
        EXPECT_EQ(store.Add(t), model.insert(t).second);
      }
      ASSERT_EQ(store.size(), model.size());
      ASSERT_EQ(store.Snapshot()->size(), model.size());
      for (int q = 0; q < 30; ++q) {
        const Triple probe = random_triple();
        EXPECT_EQ(store.Contains(probe), model.count(probe) > 0);
        for (int shape = 0; shape < 8; ++shape) {
          const TriplePattern pat = ShapeOf(shape, probe);
          const ScanOrder order = ChooseScanOrder(pat);
          std::vector<Triple> expect;
          for (const Triple& t : model) {
            if (pat.Matches(t)) expect.push_back(t);
          }
          std::sort(expect.begin(), expect.end(),
                    [order](const Triple& a, const Triple& b) {
                      return LessInOrder(order, a, b);
                    });
          std::vector<Triple> got;
          for (auto it = store.NewScan(pat); it->Valid(); it->Next()) {
            got.push_back(it->Value());
          }
          ASSERT_EQ(got, expect) << "base " << base_size << " shape " << shape;
          EXPECT_EQ(store.EstimateCount(pat), expect.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ScanOrderTest, ChosenOrderPrefixCoversEveryBoundComponent) {
  // What makes a TripleRuns::Range exactly the match set.
  for (int shape = 0; shape < 8; ++shape) {
    const TriplePattern pat = ShapeOf(shape, Triple(1, 2, 3));
    const int bound = (shape & 1) + ((shape >> 1) & 1) + ((shape >> 2) & 1);
    EXPECT_EQ(BoundPrefixLength(ChooseScanOrder(pat), pat), bound)
        << "shape " << shape;
  }
}

// ---------------------------------------------------------------- SortRun

/// std::sort with LessInOrder: the model SortRun must reproduce.
std::vector<Triple> ModelSort(std::vector<Triple> run, ScanOrder order) {
  std::sort(run.begin(), run.end(),
            [order](const Triple& a, const Triple& b) {
              return LessInOrder(order, a, b);
            });
  return run;
}

class SortRunPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SortRunPropertyTest, AgreesWithStdSortInEveryOrder) {
  Rng rng(GetParam());
  // Ids at or above 2^22 set bits in all three 11-bit digits, so the
  // radix path skips no digit; ids below 64 leave two of them constant
  // and repeat triples often.
  auto wide = [&rng]() {
    return static_cast<TermId>((1u << 22) +
                               rng.Uniform(0xfffffffeu - (1u << 22)));
  };
  auto narrow = [&rng]() { return static_cast<TermId>(1 + rng.Uniform(63)); };
  const size_t cutoff = kSortRunRadixMin;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{100}, cutoff - 1,
                   cutoff, cutoff + 1, 3 * cutoff + 17}) {
    std::vector<std::vector<Triple>> runs(3);
    for (size_t i = 0; i < n; ++i) {
      runs[0].emplace_back(wide(), wide(), wide());
      runs[1].emplace_back(narrow(), narrow(), narrow());
      // Duplicates: every triple after the first copies an earlier one
      // with probability 1/3.
      if (i > 0 && rng.Uniform(3) == 0) {
        runs[2].push_back(runs[2][rng.Uniform(runs[2].size())]);
      } else {
        runs[2].emplace_back(wide(), narrow(), wide());
      }
    }
    for (ScanOrder order :
         {ScanOrder::kSpo, ScanOrder::kPos, ScanOrder::kOsp}) {
      for (const std::vector<Triple>& run : runs) {
        const std::vector<Triple> expect = ModelSort(run, order);
        std::vector<Triple> got = run;
        SortRun(&got, order);
        ASSERT_EQ(got, expect) << "n=" << n;
        // Already sorted, and sorted backwards.
        SortRun(&got, order);
        ASSERT_EQ(got, expect) << "n=" << n;
        std::reverse(got.begin(), got.end());
        SortRun(&got, order);
        ASSERT_EQ(got, expect) << "n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortRunPropertyTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------- N-Triples

TEST(NTriplesTest, RoundTripPreservesTriples) {
  TripleStore store;
  store.AddTerms(Term::Iri("http://kb/s"), Term::Iri("http://kb/p"),
                 Term::LangLiteral("wert", "de"));
  store.AddTerms(Term::Iri("http://kb/s"), Term::Iri("http://kb/p2"),
                 Term::IntLiteral(7));
  store.AddTerms(Term::Blank("b1"), Term::Iri("http://kb/p"),
                 Term::Literal("x y z"));
  std::string text = WriteNTriples(store);

  TripleStore restored;
  ASSERT_TRUE(ReadNTriples(text, &restored).ok());
  EXPECT_EQ(restored.size(), store.size());
  EXPECT_EQ(WriteNTriples(restored), text);
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  TripleStore store;
  std::string text =
      "# a comment\n\n<http://a> <http://b> \"lit\" .\n   \n";
  ASSERT_TRUE(ReadNTriples(text, &store).ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(NTriplesTest, RejectsMalformedLine) {
  TripleStore store;
  EXPECT_FALSE(ReadNTriples("<http://a> <http://b> .\n", &store).ok());
  EXPECT_FALSE(
      ReadNTriples("<http://a> <http://b> \"x\" extra .\n", &store).ok());
  EXPECT_FALSE(ReadNTriples("<a> \"notiri\" <c> .\n", &store).ok());
}

TEST(NTriplesTest, LiteralWithDotAndSpaces) {
  TripleStore store;
  std::string line =
      "<http://a> <http://b> \"ends with . dot \\\" q\" .\n";
  ASSERT_TRUE(ReadNTriples(line, &store).ok());
  EXPECT_EQ(store.size(), 1u);
}

// ------------------------------------- Term round-trip property test

/// Random literal value stressing every escape ToString knows about
/// (backslash, quote, newline, tab, carriage return) plus plain text.
std::string RandomLiteralValue(Rng* rng) {
  static const char* kPieces[] = {"a", "Z", " ", "0", "é", "界",
                                  "\\", "\"", "\n", "\t", "\r",
                                  ".", ">", "@", "^^"};
  size_t len = rng->Uniform(12);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kPieces[rng->Uniform(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return out;
}

/// Random IRI body: IRIs are not escaped in ToString, so the value must
/// avoid the delimiters themselves.
std::string RandomIriValue(Rng* rng) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      "/_-.#?&=%:~";
  std::string out = "http://kbforge.org/";
  size_t len = 1 + rng->Uniform(24);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::string RandomLangTag(Rng* rng) {
  static const char* kTags[] = {"en",      "fr", "de", "zh",
                                "en-US",   "pt-BR"};
  return kTags[rng->Uniform(sizeof(kTags) / sizeof(kTags[0]))];
}

Term RandomTerm(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0: return Term::Iri(RandomIriValue(rng));
    case 1: return Term::Literal(RandomLiteralValue(rng));
    case 2: return Term::LangLiteral(RandomLiteralValue(rng),
                                     RandomLangTag(rng));
    case 3: return Term::TypedLiteral(RandomLiteralValue(rng),
                                      RandomIriValue(rng));
    case 4: return Term::IntLiteral(static_cast<int64_t>(rng->Uniform(1u << 30)) -
                                    (1 << 29));
    default: return Term::Blank("b" + std::to_string(rng->Uniform(1000)));
  }
}

TEST(TermTest, ParseToStringRoundTripProperty) {
  Rng rng(0xE17);
  for (int i = 0; i < 2000; ++i) {
    Term t = RandomTerm(&rng);
    std::string text = t.ToString();
    auto parsed = Term::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, t) << text;
    // ToString is canonical: re-rendering the parse is byte-identical.
    EXPECT_EQ(parsed->ToString(), text);
  }
}

// ------------------------------- dictionary persistence + concurrency

TEST(DictionaryTest, FrameStorePersistenceKeepsIdsStable) {
  // Intern a corpus, persist through a FrameStore, re-layer a
  // Dictionary on top: every pre-snapshot id must resolve to the same
  // term, and re-interning the same term must return the same id.
  Rng rng(99);
  Dictionary dict;
  std::vector<Term> corpus;
  for (int i = 0; i < 300; ++i) {
    Term t = RandomTerm(&rng);
    TermId id = dict.Intern(t);
    if (id == corpus.size() + 1) corpus.push_back(t);  // first sighting
  }
  FrameStoreBuilder builder;
  for (TermId id = 1; id <= dict.size(); ++id) {
    ASSERT_EQ(builder.AddTerm(dict.term(id)), id);
  }
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto owner = std::make_shared<std::string>(std::move(*bytes));
  auto store = FrameStore::Attach(owner->data(), owner->size(), owner);
  ASSERT_TRUE(store.ok()) << store.status();

  Dictionary reopened(*store);
  ASSERT_EQ(reopened.size(), corpus.size());
  for (TermId id = 1; id <= corpus.size(); ++id) {
    EXPECT_EQ(reopened.term(id), corpus[id - 1]);
    EXPECT_EQ(reopened.Lookup(corpus[id - 1]), id);
    EXPECT_EQ(reopened.Intern(corpus[id - 1]), id);  // no re-assignment
  }
  // New terms go strictly above the persisted range.
  TermId fresh = reopened.InternIri("http://kbforge.org/entity/Fresh");
  EXPECT_EQ(fresh, corpus.size() + 1);
  EXPECT_EQ(reopened.base_size(), corpus.size());
}

/// `prefix` followed by the decimal digits of `n`.
std::string Numbered(const char* prefix, size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// A random value over a small alphabet that includes the characters
/// N-Triples syntax treats specially; it is small enough that equal
/// values recur across term kinds.
std::string RandomDictValue(Rng* rng) {
  static const char* kPieces[] = {"a", "b", "\"", "@", "^^", "\\", "<",
                                  ">", "en", "x/", ":", " "};
  std::string out;
  const size_t len = rng->Uniform(6);
  for (size_t i = 0; i < len; ++i) {
    out += kPieces[rng->Uniform(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return out;
}

Term RandomDictTerm(Rng* rng) {
  const std::string value = RandomDictValue(rng);
  switch (rng->Uniform(5)) {
    case 0: return Term::Iri(value);
    case 1: return Term::Literal(value);
    case 2: return Term::LangLiteral(value, rng->Uniform(2) ? "en" : "a");
    case 3: return Term::TypedLiteral(value, rng->Uniform(2) ? "a" : "en");
    default: return Term::Blank(value);
  }
}

TEST(DictionaryTest, AgreesWithMapModelAcrossGrowths) {
  Rng rng(314);
  Dictionary dict;
  std::map<Term, TermId> model;
  std::vector<Term> by_id;
  // ~3k distinct terms: the overlay index grows from 16 to 8k slots.
  for (int i = 0; i < 6000; ++i) {
    const Term t = RandomDictTerm(&rng);
    const TermId expected = model.count(t) > 0 ? model[t] : kInvalidTermId;
    EXPECT_EQ(dict.Lookup(t), expected) << t.ToString();
    const TermId id = dict.Intern(t);
    if (expected == kInvalidTermId) {
      ASSERT_EQ(id, by_id.size() + 1) << t.ToString();
      model[t] = id;
      by_id.push_back(t);
    } else {
      ASSERT_EQ(id, expected) << t.ToString();
    }
  }
  ASSERT_GT(by_id.size(), 2048u);
  EXPECT_EQ(dict.size(), by_id.size());
  for (const auto& [t, id] : model) {
    EXPECT_EQ(dict.term(id), t);
    EXPECT_EQ(dict.Lookup(t), id);
  }
  // By parts: every split point of a value hashes as the joined value,
  // and every split point of an IRI names the joined IRI.
  for (const Term& t : by_id) {
    const TermKey key = TermKey::Of(t);
    const std::string& value = t.value();
    for (size_t cut = 0; cut <= value.size(); ++cut) {
      const std::string_view head(value.data(), cut);
      const std::string_view tail(value.data() + cut, value.size() - cut);
      EXPECT_EQ(HashTermParts(key.code, head, tail, key.extra), key.hash);
      if (t.is_iri()) {
        EXPECT_EQ(dict.InternIri(head, tail), model[t]) << value << " @" << cut;
      }
    }
  }
  EXPECT_EQ(dict.size(), by_id.size()) << "by-parts hits must not intern";
  for (int i = 0; i < 200; ++i) {
    const std::string ns = RandomDictValue(&rng);
    const std::string local = RandomDictValue(&rng);
    EXPECT_EQ(dict.InternIri(ns, local), dict.Intern(Term::Iri(ns + local)));
  }
}

TEST(DictionaryTest, ByPartsLookupsHitTheCatalogBase) {
  Rng rng(2718);
  Dictionary model;
  for (int i = 0; i < 400; ++i) model.Intern(RandomDictTerm(&rng));
  for (int i = 0; i < 100; ++i) {
    model.InternIri(kEntityNs, Numbered("E", i));
  }
  FrameStoreBuilder builder;
  for (TermId id = 1; id <= model.size(); ++id) {
    builder.AddTerm(model.term(id));
  }
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto owner = std::make_shared<std::string>(std::move(*bytes));
  auto store = FrameStore::Attach(owner->data(), owner->size(), owner);
  ASSERT_TRUE(store.ok()) << store.status();

  Dictionary dict(*store);
  for (TermId id = 1; id <= model.size(); ++id) {
    const Term& t = model.term(id);
    EXPECT_EQ(dict.Lookup(t), id);
    EXPECT_EQ(dict.Intern(t), id);
    EXPECT_EQ((*store)->LookupTerm(TermKey::Of(t)), id);
    if (t.is_iri()) {
      for (size_t cut = 0; cut <= t.value().size(); ++cut) {
        EXPECT_EQ(dict.InternIri(std::string_view(t.value()).substr(0, cut),
                                 std::string_view(t.value()).substr(cut)),
                  id);
      }
    }
  }
  EXPECT_EQ(dict.size(), model.size()) << "base hits must not grow the overlay";
  const TermId fresh = dict.InternIri(kEntityNs, "Fresh");
  EXPECT_EQ(fresh, model.size() + 1);
  EXPECT_EQ(dict.Lookup(Term::Iri(EntityIri("Fresh"))), fresh);
}

TEST(DictionaryTest, ConcurrentLookupsDuringInterning) {
  // One writer interning a stream of new IRIs by parts (the overlay
  // index grows from 16 to 8k slots) while readers hammer Lookup/term on
  // everything interned so far — the contract the KB relies on
  // (queries overlap in-flight asserts). Run under TSan/ASan in CI.
  Dictionary dict;
  constexpr int kTerms = 4000;
  std::atomic<TermId> published{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 0; i < kTerms; ++i) {
      TermId id = dict.InternIri(kEntityNs, Numbered("W", i));
      published.store(id, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      while (published.load(std::memory_order_acquire) <
             static_cast<TermId>(kTerms)) {
        TermId upto = published.load(std::memory_order_acquire);
        if (upto == 0) continue;
        TermId id = static_cast<TermId>(1 + rng.Uniform(upto));
        const Term& t = dict.term(id);
        if (t.kind() != TermKind::kIri ||
            t.value() != EntityIri(Numbered("W", id - 1)) ||
            dict.Lookup(t) != id) {
          failed.store(true);
          break;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
}

TEST(DictionaryTest, ConcurrentReadsOverCatalogBase) {
  // Same hammer, but layered over an immutable FrameStore catalog: the
  // readers exercise the lock-free CAS-published base-term cache and
  // the overlay while the writer interns by parts, re-hitting base ids
  // and growing the overlay index from 16 to 4k slots.
  FrameStoreBuilder builder;
  constexpr int kBase = 500;
  constexpr int kOverlay = 2000;
  for (int i = 0; i < kBase; ++i) {
    builder.AddTerm(Term::Iri(rdf::EntityIri(Numbered("B", i))));
  }
  auto bytes = builder.Serialize();
  ASSERT_TRUE(bytes.ok());
  auto owner = std::make_shared<std::string>(std::move(*bytes));
  auto store = FrameStore::Attach(owner->data(), owner->size(), owner);
  ASSERT_TRUE(store.ok()) << store.status();

  Dictionary dict(*store);
  std::atomic<TermId> published{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(2000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        TermId id = static_cast<TermId>(1 + rng.Uniform(kBase));
        const Term& t = dict.term(id);
        if (t.value() != rdf::EntityIri(Numbered("B", id - 1)) ||
            dict.Lookup(t) != id) {
          failed.store(true);
          return;
        }
        const TermId upto = published.load(std::memory_order_acquire);
        if (upto <= kBase) continue;
        id = static_cast<TermId>(kBase + 1 + rng.Uniform(upto - kBase));
        const Term& o = dict.term(id);
        if (o.value() !=
                rdf::EntityIri(Numbered("O", id - kBase - 1)) ||
            dict.Lookup(o) != id) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (int i = 0; i < kOverlay; ++i) {
    if (dict.InternIri(kEntityNs, Numbered("B", i % kBase)) !=
        static_cast<TermId>(i % kBase + 1)) {
      failed.store(true);
    }
    published.store(dict.InternIri(kEntityNs, Numbered("O", i)),
                    std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(dict.size(), static_cast<size_t>(kBase + kOverlay));
}

}  // namespace
}  // namespace rdf
}  // namespace kb
