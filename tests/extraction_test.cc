#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "corpus/generator.h"
#include "extraction/annotation.h"
#include "extraction/bootstrap.h"
#include "extraction/distant_supervision.h"
#include "extraction/evaluation.h"
#include "extraction/infobox_extractor.h"
#include "extraction/pattern_extractor.h"
#include "rdf/triple.h"
#include "util/random.h"
#include "util/string_util.h"

namespace kb {
namespace extraction {
namespace {

class ExtractionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::WorldOptions wopts;
    wopts.seed = 31;
    wopts.num_persons = 100;
    wopts.num_cities = 25;
    wopts.num_companies = 30;
    wopts.num_universities = 8;
    wopts.num_bands = 10;
    wopts.num_albums = 20;
    wopts.num_films = 15;
    corpus::CorpusOptions copts;
    copts.seed = 32;
    copts.news_docs = 150;
    copts.web_docs = 20;
    copts.fact_error_rate = 0.05;
    corpus_ = new corpus::Corpus(corpus::BuildCorpus(wopts, copts));
    tagger_ = new nlp::PosTagger();
    sentences_ = new std::vector<AnnotatedSentence>(
        AnnotateDocuments(corpus_->world, corpus_->docs, *tagger_));
  }
  static void TearDownTestSuite() {
    delete sentences_;
    delete tagger_;
    delete corpus_;
  }

  static std::unordered_map<std::string, uint32_t> CanonicalIndex(
      const corpus::World& world = corpus_->world) {
    std::unordered_map<std::string, uint32_t> out;
    for (const corpus::Entity& e : world.entities()) {
      out[e.canonical] = e.id;
    }
    return out;
  }

  /// A corpus with its annotated sentences.
  struct Annotated {
    const corpus::Corpus* corpus;
    const std::vector<AnnotatedSentence>* sentences;
  };

  /// The fixture corpus, then a default-sized one from another seed.
  static std::vector<Annotated> ReferenceInputs() {
    static const corpus::Corpus other = [] {
      corpus::WorldOptions wopts;
      wopts.seed = 7;
      return corpus::BuildCorpus(wopts, corpus::CorpusOptions());
    }();
    static const std::vector<AnnotatedSentence> other_sentences =
        AnnotateDocuments(other.world, other.docs, nlp::PosTagger());
    return {{corpus_, sentences_}, {&other, &other_sentences}};
  }

  static corpus::Corpus* corpus_;
  static nlp::PosTagger* tagger_;
  static std::vector<AnnotatedSentence>* sentences_;
};

corpus::Corpus* ExtractionFixture::corpus_ = nullptr;
nlp::PosTagger* ExtractionFixture::tagger_ = nullptr;
std::vector<AnnotatedSentence>* ExtractionFixture::sentences_ = nullptr;

// ---------------------------------------------------------------- Annotation

TEST_F(ExtractionFixture, AnnotationAlignsMentionsToTokens) {
  size_t mentions = 0;
  for (const AnnotatedSentence& as : *sentences_) {
    for (const SentenceMention& m : as.mentions) {
      ASSERT_LT(m.token_begin, m.token_end);
      ASSERT_LE(m.token_end, as.sentence.tokens.size());
      ++mentions;
      // The mention's first token must be part of a surface form of
      // the entity.
      const corpus::Entity& e = corpus_->world.entity(m.entity);
      const std::string& first = as.sentence.tokens[m.token_begin].text;
      bool found = e.full_name.find(first) != std::string::npos;
      for (const std::string& alias : e.aliases) {
        found = found || alias.find(first) != std::string::npos;
      }
      EXPECT_TRUE(found) << first << " vs " << e.full_name;
    }
  }
  EXPECT_GT(mentions, 1000u);
}

TEST_F(ExtractionFixture, MarkupSentencesFiltered) {
  for (const AnnotatedSentence& as : *sentences_) {
    for (const nlp::Token& t : as.sentence.tokens) {
      EXPECT_NE(t.text, "Infobox");
      EXPECT_NE(t.text, "Category");
    }
  }
}

TEST(DeduplicateFactsTest, MergesAndCounts) {
  ExtractedFact a;
  a.subject = 1;
  a.relation = corpus::Relation::kBornIn;
  a.object = 2;
  a.confidence = 0.5;
  ExtractedFact b = a;
  b.confidence = 0.9;
  ExtractedFact c = a;
  c.object = 3;
  std::vector<int> support;
  auto out = DeduplicateFacts({a, b, c}, &support);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].confidence, 0.9);
  EXPECT_EQ(support[0], 2);
  EXPECT_EQ(support[1], 1);
}

// ---------------------------------------------------------------- Patterns

TEST_F(ExtractionFixture, PatternExtractionHasHighPrecision) {
  PatternExtractor extractor(DefaultPatterns());
  auto facts = extractor.Extract(*sentences_);
  ASSERT_GT(facts.size(), 100u);
  auto base = ExpressedFacts(corpus_->docs);
  PrecisionRecall pr = EvaluateFacts(corpus_->world, facts, base);
  EXPECT_GT(pr.precision(), 0.85) << "P=" << pr.precision();
  EXPECT_GT(pr.recall(), 0.3) << "R=" << pr.recall();
  EXPECT_LT(pr.recall(), 0.95);  // hand patterns must not be complete
}

TEST_F(ExtractionFixture, PatternExtractorRespectsKindSignatures) {
  PatternExtractor extractor(DefaultPatterns());
  auto facts = extractor.Extract(*sentences_);
  for (const ExtractedFact& f : facts) {
    const auto& info = corpus::GetRelationInfo(f.relation);
    EXPECT_EQ(corpus_->world.entity(f.subject).kind, info.subject_kind);
    if (!info.literal_object) {
      EXPECT_EQ(corpus_->world.entity(f.object).kind, info.object_kind);
    }
  }
}

TEST(IsYearTokenTest, Bounds) {
  nlp::Token t;
  t.lower = "1955";
  t.pos = nlp::Pos::kNumber;
  int year = 0;
  EXPECT_TRUE(IsYearToken(t, &year));
  EXPECT_EQ(year, 1955);
  t.lower = "123";
  EXPECT_FALSE(IsYearToken(t, &year));
  t.lower = "99999";
  EXPECT_FALSE(IsYearToken(t, &year));
  t.pos = nlp::Pos::kNoun;
  t.lower = "1955";
  EXPECT_FALSE(IsYearToken(t, &year));
}

// ---------------------------------------------------------------- Infobox

TEST_F(ExtractionFixture, InfoboxExtractionIsNearPerfect) {
  InfoboxExtractor extractor(CanonicalIndex());
  auto facts = extractor.Extract(corpus_->docs);
  ASSERT_GT(facts.size(), 200u);
  size_t correct = 0;
  for (const ExtractedFact& f : facts) {
    if (corpus_->world.HasFact(f.subject, f.relation, f.object,
                               f.literal_year)) {
      ++correct;
    }
  }
  // Corrupted slots are dropped by the parser, so precision stays high.
  EXPECT_GT(static_cast<double>(correct) / facts.size(), 0.97);
}

TEST_F(ExtractionFixture, InfoboxCorruptionIsDetected) {
  InfoboxExtractor extractor(CanonicalIndex());
  auto facts = extractor.Extract(corpus_->docs);
  (void)facts;
  EXPECT_GT(extractor.malformed_slots(), 0u);
}

// ---------------------------------------------------------------- Bootstrap

TEST_F(ExtractionFixture, BootstrapLearnsUnseenTemplates) {
  // Seeds: infobox facts for studiedAt ("graduated from" is NOT in the
  // hand-written pattern set).
  InfoboxExtractor infobox(CanonicalIndex());
  auto seeds = infobox.Extract(corpus_->docs);
  Bootstrapper bootstrapper;
  auto result = bootstrapper.Run(corpus::Relation::kStudiedAt, seeds,
                                 *sentences_);
  ASSERT_FALSE(result.learned_patterns.empty());
  bool learned_graduated = false;
  for (const SurfacePattern& p : result.learned_patterns) {
    if (!p.between.empty() && p.between[0] == "graduated") {
      learned_graduated = true;
    }
  }
  EXPECT_TRUE(learned_graduated);
}

TEST_F(ExtractionFixture, BootstrapBeatsPatternRecall) {
  PatternExtractor patterns(DefaultPatterns());
  auto pattern_facts = patterns.Extract(*sentences_);
  InfoboxExtractor infobox(CanonicalIndex());
  auto seeds = infobox.Extract(corpus_->docs);

  auto base = ExpressedFacts(corpus_->docs);
  // Compare on one relation where the generator uses excluded
  // templates: kStudiedAt ("graduated from").
  auto only = [](std::vector<ExtractedFact> facts, corpus::Relation r) {
    std::vector<ExtractedFact> out;
    for (const ExtractedFact& f : facts) {
      if (f.relation == r) out.push_back(f);
    }
    return out;
  };
  Bootstrapper bootstrapper;
  auto boot = bootstrapper.Run(corpus::Relation::kStudiedAt, seeds,
                               *sentences_);
  PrecisionRecall pattern_pr = EvaluateFacts(
      corpus_->world, only(pattern_facts, corpus::Relation::kStudiedAt),
      base);
  PrecisionRecall boot_pr =
      EvaluateFacts(corpus_->world,
                    only(boot.facts, corpus::Relation::kStudiedAt), base);
  EXPECT_GT(boot_pr.recall(), pattern_pr.recall());
}

// ---------------------------------------------------------------- DS

TEST_F(ExtractionFixture, DistantSupervisionLearnsExtractor) {
  InfoboxExtractor infobox(CanonicalIndex());
  auto seeds = infobox.Extract(corpus_->docs);
  RelationClassifier classifier;
  classifier.Train(*sentences_, seeds);
  EXPECT_GT(classifier.num_features(), 100u);
  auto facts = classifier.Extract(*sentences_, 0.5);
  ASSERT_GT(facts.size(), 100u);
  auto base = ExpressedFacts(corpus_->docs);
  PrecisionRecall pr = EvaluateFacts(corpus_->world, facts, base);
  EXPECT_GT(pr.precision(), 0.6) << "P=" << pr.precision();
  EXPECT_GT(pr.recall(), 0.5) << "R=" << pr.recall();
}

TEST_F(ExtractionFixture, StatisticalRecallBeatsPatterns) {
  PatternExtractor patterns(DefaultPatterns());
  auto pattern_facts = patterns.Extract(*sentences_);
  InfoboxExtractor infobox(CanonicalIndex());
  auto seeds = infobox.Extract(corpus_->docs);
  RelationClassifier classifier;
  classifier.Train(*sentences_, seeds);
  auto ds_facts = classifier.Extract(*sentences_, 0.5);

  auto base = ExpressedFacts(corpus_->docs);
  PrecisionRecall pattern_pr =
      EvaluateFacts(corpus_->world, pattern_facts, base);
  PrecisionRecall ds_pr = EvaluateFacts(corpus_->world, ds_facts, base);
  EXPECT_GT(ds_pr.recall(), pattern_pr.recall());
}

// ------------------------------------------------------ Reference models
//
// The string-keyed classifier and bootstrapper that the id-interned
// ones replaced, kept as references: both must give identical output.

/// Distant supervision with every candidate's features as strings and
/// one string-keyed weight table per label.
class StringKeyedClassifier {
 public:
  explicit StringKeyedClassifier(ClassifierOptions options)
      : options_(options), weights_(corpus::kNumRelations + 1) {}

  void Train(const std::vector<AnnotatedSentence>& sentences,
             const std::vector<ExtractedFact>& seed_facts) {
    std::set<std::tuple<uint32_t, int, int64_t>> kb;
    for (const ExtractedFact& f : seed_facts) {
      const auto& info = corpus::GetRelationInfo(f.relation);
      kb.emplace(f.subject, static_cast<int>(f.relation),
                 info.literal_object ? static_cast<int64_t>(f.literal_year)
                                     : static_cast<int64_t>(f.object));
    }
    auto label_of = [&](const Candidate& c) {
      for (int r = 0; r < corpus::kNumRelations; ++r) {
        const auto& info =
            corpus::GetRelationInfo(static_cast<corpus::Relation>(r));
        if (info.literal_object != c.literal) continue;
        if (info.subject_kind != c.subject_kind) continue;
        if (!c.literal && info.object_kind != c.object_kind) continue;
        int64_t obj = c.literal ? static_cast<int64_t>(c.literal_year)
                                : static_cast<int64_t>(c.object);
        if (kb.count({c.subject, r, obj}) > 0) return r;
      }
      return kNone;
    };
    std::vector<Candidate> candidates;
    for (const AnnotatedSentence& as : sentences) {
      CollectCandidates(as, options_.max_gap, &candidates);
    }
    Rng rng(options_.seed);
    std::vector<std::pair<int, const Candidate*>> train;
    for (const Candidate& c : candidates) {
      int label = label_of(c);
      if (label == kNone && !rng.Bernoulli(options_.none_subsample)) continue;
      train.emplace_back(label, &c);
    }
    auto update = [&](int label, const std::string& feature, double delta) {
      Weight& weight = weights_[label][feature];
      weight.acc += weight.w * static_cast<double>(steps_ - weight.last);
      weight.last = steps_;
      weight.w += delta;
    };
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(&train);
      for (const auto& [gold, candidate] : train) {
        ++steps_;
        int best = kNone;
        double best_score = -1e100;
        for (int label = 0; label <= kNone; ++label) {
          double score = Score(candidate->features, label, false);
          if (score > best_score) {
            best_score = score;
            best = label;
          }
        }
        if (best != gold) {
          for (const std::string& f : candidate->features) {
            update(gold, f, +1.0);
            update(best, f, -1.0);
          }
        }
      }
    }
    for (auto& table : weights_) {
      for (auto& [feature, weight] : table) {
        weight.acc += weight.w * static_cast<double>(steps_ - weight.last);
        weight.last = steps_;
        weight.acc /= std::max<long long>(1, steps_);
      }
    }
  }

  std::vector<ExtractedFact> Extract(
      const std::vector<AnnotatedSentence>& sentences,
      double min_confidence) const {
    std::vector<ExtractedFact> out;
    std::vector<Candidate> candidates;
    for (const AnnotatedSentence& as : sentences) {
      CollectCandidates(as, options_.max_gap, &candidates);
    }
    for (const Candidate& c : candidates) {
      int best = kNone;
      double best_score = -1e100, second = -1e100;
      for (int label = 0; label <= kNone; ++label) {
        double score = Score(c.features, label, true);
        if (score > best_score) {
          second = best_score;
          best_score = score;
          best = label;
        } else if (score > second) {
          second = score;
        }
      }
      if (best == kNone) continue;
      const auto& info =
          corpus::GetRelationInfo(static_cast<corpus::Relation>(best));
      if (info.literal_object != c.literal) continue;
      if (info.subject_kind != c.subject_kind) continue;
      if (!c.literal && info.object_kind != c.object_kind) continue;
      double confidence = 1.0 / (1.0 + std::exp(-(best_score - second)));
      if (confidence < min_confidence) continue;
      ExtractedFact f;
      f.subject = c.subject;
      f.relation = static_cast<corpus::Relation>(best);
      f.object = c.literal ? UINT32_MAX : c.object;
      f.literal_year = c.literal ? c.literal_year : 0;
      f.confidence = confidence;
      f.doc_id = c.doc_id;
      f.extractor = rdf::kExtractorStatistical;
      out.push_back(f);
    }
    return DeduplicateFacts(out);
  }

  size_t num_features() const {
    size_t n = 0;
    for (const auto& table : weights_) n += table.size();
    return n;
  }

 private:
  static constexpr int kNone = corpus::kNumRelations;

  struct Candidate {
    uint32_t subject;
    uint32_t object;
    int32_t literal_year;
    corpus::EntityKind subject_kind;
    corpus::EntityKind object_kind;
    bool literal;
    uint32_t doc_id;
    std::vector<std::string> features;
  };

  struct Weight {
    double w = 0;
    double acc = 0;
    long long last = 0;
  };

  static void CollectCandidates(const AnnotatedSentence& as, size_t max_gap,
                                std::vector<Candidate>* out) {
    const nlp::Sentence& s = as.sentence;
    auto kind_name = [](corpus::EntityKind k) {
      return std::string(corpus::EntityKindName(k));
    };
    auto make_features = [&](uint32_t from, uint32_t to, bool subject_first,
                             corpus::EntityKind sk, corpus::EntityKind ok,
                             bool literal) {
      std::vector<std::string> f;
      std::string joined;
      for (uint32_t t = from; t < to; ++t) {
        f.push_back("bw:" + s.tokens[t].lower);
        if (!joined.empty()) joined += ' ';
        joined += s.tokens[t].lower;
        if (t + 1 < to) {
          f.push_back("bg:" + s.tokens[t].lower + "_" +
                      s.tokens[t + 1].lower);
        }
      }
      f.push_back("ctx:" + joined + (subject_first ? "|SF" : "|OF"));
      f.push_back("kinds:" + kind_name(sk) + "-" +
                  (literal ? std::string("year") : kind_name(ok)) +
                  (subject_first ? "|SF" : "|OF"));
      f.push_back("gap:" + std::to_string((to - from) / 2));
      f.push_back("bias");
      return f;
    };
    for (size_t i = 0; i < as.mentions.size(); ++i) {
      const SentenceMention& first = as.mentions[i];
      for (uint32_t t = first.token_end;
           t < s.tokens.size() && t - first.token_end <= max_gap; ++t) {
        int year = 0;
        if (!IsYearToken(s.tokens[t], &year)) continue;
        out->push_back({first.entity, UINT32_MAX, year, first.kind,
                        first.kind, true, as.doc_id,
                        make_features(first.token_end, t, true, first.kind,
                                      first.kind, true)});
      }
      for (size_t j = 0; j < as.mentions.size(); ++j) {
        if (i == j) continue;
        const SentenceMention& second = as.mentions[j];
        if (second.token_begin < first.token_end) continue;
        if (second.token_begin - first.token_end > max_gap) continue;
        if (first.entity == second.entity) continue;
        for (bool subject_first : {true, false}) {
          const SentenceMention& subj = subject_first ? first : second;
          const SentenceMention& obj = subject_first ? second : first;
          out->push_back({subj.entity, obj.entity, 0, subj.kind, obj.kind,
                          false, as.doc_id,
                          make_features(first.token_end, second.token_begin,
                                        subject_first, subj.kind, obj.kind,
                                        false)});
        }
      }
    }
  }

  double Score(const std::vector<std::string>& features, int label,
               bool averaged) const {
    const auto& table = weights_[label];
    double score = 0;
    for (const std::string& f : features) {
      auto it = table.find(f);
      if (it == table.end()) continue;
      score += averaged ? it->second.acc : it->second.w;
    }
    return score;
  }

  ClassifierOptions options_;
  std::vector<std::unordered_map<std::string, Weight>> weights_;
  long long steps_ = 0;
};

/// Bootstrapping with every occurrence's context and words as strings
/// and per-iteration statistics in a map ordered by pattern key.
Bootstrapper::Result StringKeyedBootstrap(
    const BootstrapOptions& options, corpus::Relation relation,
    const std::vector<ExtractedFact>& seeds,
    const std::vector<AnnotatedSentence>& sentences) {
  using Pair = std::pair<uint32_t, int64_t>;
  struct Occurrence {
    Pair pair;
    std::string context;
    bool subject_first;
    uint32_t doc_id;
    std::vector<std::string> words;
  };
  const corpus::RelationInfo& info = corpus::GetRelationInfo(relation);
  Bootstrapper::Result result;
  std::vector<Occurrence> occurrences;
  for (const AnnotatedSentence& as : sentences) {
    const nlp::Sentence& s = as.sentence;
    auto add = [&](Pair pair, uint32_t from, uint32_t to,
                   bool subject_first) {
      Occurrence occ;
      occ.pair = pair;
      for (uint32_t t = from; t < to; ++t) {
        occ.words.push_back(s.tokens[t].lower);
      }
      occ.context = Join(occ.words, " ");
      occ.subject_first = subject_first;
      occ.doc_id = as.doc_id;
      occurrences.push_back(std::move(occ));
    };
    if (info.literal_object) {
      for (const SentenceMention& subj : as.mentions) {
        if (subj.kind != info.subject_kind) continue;
        for (uint32_t t = subj.token_end;
             t < s.tokens.size() && t - subj.token_end <= options.max_gap;
             ++t) {
          int year = 0;
          if (IsYearToken(s.tokens[t], &year)) {
            add({subj.entity, year}, subj.token_end, t, true);
          }
        }
      }
      continue;
    }
    for (const SentenceMention& first : as.mentions) {
      for (const SentenceMention& second : as.mentions) {
        if (&first == &second || second.token_begin < first.token_end) {
          continue;
        }
        if (second.token_begin - first.token_end > options.max_gap) continue;
        for (bool subject_first : {true, false}) {
          const SentenceMention& subj = subject_first ? first : second;
          const SentenceMention& obj = subject_first ? second : first;
          if (subj.entity == obj.entity) continue;
          if (subj.kind != info.subject_kind ||
              obj.kind != info.object_kind) {
            continue;
          }
          add({subj.entity, obj.entity}, first.token_end, second.token_begin,
              subject_first);
        }
      }
    }
  }
  std::set<Pair> known;
  std::set<uint32_t> known_subjects;
  for (const ExtractedFact& f : seeds) {
    if (f.relation != relation) continue;
    known.insert({f.subject, info.literal_object
                                 ? static_cast<int64_t>(f.literal_year)
                                 : static_cast<int64_t>(f.object)});
    known_subjects.insert(f.subject);
  }
  auto key_of = [](const std::string& context, bool subject_first) {
    return context + (subject_first ? "|SF" : "|OF");
  };
  std::set<std::string> accepted_keys;
  std::vector<ExtractedFact> raw_facts;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations_run = iter + 1;
    struct Stats {
      int pos = 0;
      int neg = 0;
      const Occurrence* sample = nullptr;
    };
    std::map<std::string, Stats> stats;
    for (const Occurrence& occ : occurrences) {
      Stats& st = stats[key_of(occ.context, occ.subject_first)];
      st.sample = &occ;
      if (known.count(occ.pair) > 0) {
        ++st.pos;
      } else if (known_subjects.count(occ.pair.first) > 0) {
        ++st.neg;
      }
    }
    size_t before = accepted_keys.size();
    for (const auto& [key, st] : stats) {
      if (accepted_keys.count(key) > 0) continue;
      if (st.pos < options.min_pattern_support) continue;
      double precision =
          static_cast<double>(st.pos) / static_cast<double>(st.pos + st.neg);
      if (precision < options.min_pattern_precision) continue;
      if (st.sample->words.empty()) continue;
      accepted_keys.insert(key);
      SurfacePattern p;
      p.relation = relation;
      p.between = st.sample->words;
      p.subject_first = st.sample->subject_first;
      p.confidence = precision;
      result.learned_patterns.push_back(std::move(p));
    }
    if (accepted_keys.size() == before && iter > 0) break;
    std::map<std::string, double> key_confidence;
    for (const SurfacePattern& p : result.learned_patterns) {
      key_confidence[key_of(Join(p.between, " "), p.subject_first)] =
          p.confidence;
    }
    for (const Occurrence& occ : occurrences) {
      auto it = key_confidence.find(key_of(occ.context, occ.subject_first));
      if (it == key_confidence.end()) continue;
      ExtractedFact f;
      f.subject = occ.pair.first;
      f.relation = relation;
      if (info.literal_object) {
        f.literal_year = static_cast<int32_t>(occ.pair.second);
      } else {
        f.object = static_cast<uint32_t>(occ.pair.second);
      }
      f.confidence = it->second;
      f.doc_id = occ.doc_id;
      f.extractor = rdf::kExtractorBootstrap;
      raw_facts.push_back(f);
      known.insert(occ.pair);
      known_subjects.insert(occ.pair.first);
    }
  }
  result.facts = DeduplicateFacts(raw_facts);
  return result;
}

/// Field-by-field equality, confidences compared bit for bit.
void ExpectIdenticalFacts(const std::vector<ExtractedFact>& got,
                          const std::vector<ExtractedFact>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(got[i].SameStatement(want[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].confidence),
              std::bit_cast<uint64_t>(want[i].confidence));
    EXPECT_EQ(got[i].doc_id, want[i].doc_id);
    EXPECT_EQ(got[i].extractor, want[i].extractor);
    EXPECT_TRUE(got[i].span == want[i].span);
  }
}

TEST_F(ExtractionFixture, ClassifierMatchesStringKeyedReference) {
  for (const Annotated& in : ReferenceInputs()) {
    auto seeds = InfoboxExtractor(CanonicalIndex(in.corpus->world))
                     .Extract(in.corpus->docs);
    RelationClassifier classifier;
    classifier.Train(*in.sentences, seeds);
    StringKeyedClassifier reference{ClassifierOptions()};
    reference.Train(*in.sentences, seeds);
    EXPECT_EQ(classifier.num_features(), reference.num_features());
    for (double min_confidence : {0.5, 0.7}) {
      SCOPED_TRACE(min_confidence);
      auto facts = classifier.Extract(*in.sentences, min_confidence);
      EXPECT_GT(facts.size(), 100u);
      ExpectIdenticalFacts(facts,
                           reference.Extract(*in.sentences, min_confidence));
    }
  }
}

TEST_F(ExtractionFixture, BootstrapMatchesStringKeyedReference) {
  const BootstrapOptions options;
  const Bootstrapper bootstrapper(options);
  size_t learned = 0;
  for (const Annotated& in : ReferenceInputs()) {
    auto seeds = InfoboxExtractor(CanonicalIndex(in.corpus->world))
                     .Extract(in.corpus->docs);
    for (int r = 0; r < corpus::kNumRelations; ++r) {
      const auto relation = static_cast<corpus::Relation>(r);
      SCOPED_TRACE(corpus::GetRelationInfo(relation).name);
      auto got = bootstrapper.Run(relation, seeds, *in.sentences);
      auto want = StringKeyedBootstrap(options, relation, seeds,
                                       *in.sentences);
      EXPECT_EQ(got.iterations_run, want.iterations_run);
      ASSERT_EQ(got.learned_patterns.size(), want.learned_patterns.size());
      for (size_t i = 0; i < want.learned_patterns.size(); ++i) {
        const SurfacePattern& g = got.learned_patterns[i];
        const SurfacePattern& w = want.learned_patterns[i];
        EXPECT_EQ(g.relation, w.relation);
        EXPECT_EQ(g.between, w.between);
        EXPECT_EQ(g.subject_first, w.subject_first);
        EXPECT_EQ(std::bit_cast<uint64_t>(g.confidence),
                  std::bit_cast<uint64_t>(w.confidence));
      }
      learned += want.learned_patterns.size();
      ExpectIdenticalFacts(got.facts, want.facts);
    }
  }
  EXPECT_GT(learned, 10u);
}

TEST_F(ExtractionFixture, RetrainingReplacesTheModel) {
  for (const Annotated& in : ReferenceInputs()) {
    auto seeds = InfoboxExtractor(CanonicalIndex(in.corpus->world))
                     .Extract(in.corpus->docs);
    RelationClassifier once;
    once.Train(*in.sentences, seeds);
    RelationClassifier twice;
    twice.Train(*in.sentences, seeds);
    twice.Train(*in.sentences, seeds);
    EXPECT_EQ(twice.num_features(), once.num_features());
    ExpectIdenticalFacts(twice.Extract(*in.sentences, 0.7),
                         once.Extract(*in.sentences, 0.7));
  }
}

}  // namespace
}  // namespace extraction
}  // namespace kb
