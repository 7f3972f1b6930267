#include "extraction/distant_supervision.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "extraction/extraction_metrics.h"
#include "extraction/pattern_extractor.h"
#include "rdf/triple.h"
#include "util/random.h"

namespace kb {
namespace extraction {

using corpus::EntityKind;
using corpus::GetRelationInfo;
using corpus::kNumRelations;
using corpus::Relation;

namespace {
constexpr int kNoneLabel = kNumRelations;
constexpr int kLabels = kNumRelations + 1;
constexpr uint32_t kUnknownFeature = UINT32_MAX;

/// A mention pair (or a mention and a year to its right) of one
/// sentence, and the token gap between the two.
struct Candidate {
  uint32_t subject;
  uint32_t object;       ///< UINT32_MAX for literal candidates
  int32_t literal_year;  ///< 0 unless literal candidate
  EntityKind subject_kind;
  EntityKind object_kind;  ///< meaningless for literal
  bool literal;
  bool subject_first;
  uint32_t gap_begin;
  uint32_t gap_end;
};

/// Calls `fn(candidate)` for every candidate of `as`, in a fixed order.
template <typename Fn>
void ForEachCandidate(const AnnotatedSentence& as, size_t max_gap, Fn&& fn) {
  const nlp::Sentence& s = as.sentence;
  for (size_t i = 0; i < as.mentions.size(); ++i) {
    const SentenceMention& first = as.mentions[i];
    // Literal (year) candidates to the right of a mention.
    for (uint32_t t = first.token_end;
         t < s.tokens.size() && t - first.token_end <= max_gap; ++t) {
      int year = 0;
      if (!IsYearToken(s.tokens[t], &year)) continue;
      fn(Candidate{first.entity, UINT32_MAX, year, first.kind, first.kind,
                   /*literal=*/true, /*subject_first=*/true, first.token_end,
                   t});
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
        fn(Candidate{subj.entity, obj.entity, 0, subj.kind, obj.kind,
                     /*literal=*/false, subject_first, first.token_end,
                     second.token_begin});
      }
    }
  }
}

/// Appends the ids of `c`'s features in their fixed order: gap words
/// and bigrams, the whole gap, the kind signature, the gap length and a
/// bias. `id_of` maps a feature string to its id, or to kUnknownFeature
/// to drop it; `key` is the buffer the strings are built in.
template <typename IdOf>
void AppendFeatures(const nlp::Sentence& s, const Candidate& c, IdOf&& id_of,
                    std::string* key, std::vector<uint32_t>* ids) {
  auto emit = [&] {
    const uint32_t id = id_of(*key);
    if (id != kUnknownFeature) ids->push_back(id);
  };
  const char* direction = c.subject_first ? "|SF" : "|OF";
  for (uint32_t t = c.gap_begin; t < c.gap_end; ++t) {
    key->assign("bw:").append(s.tokens[t].lower);
    emit();
    if (t + 1 < c.gap_end) {
      key->assign("bg:")
          .append(s.tokens[t].lower)
          .append("_")
          .append(s.tokens[t + 1].lower);
      emit();
    }
  }
  key->assign("ctx:");
  const size_t context_begin = key->size();
  for (uint32_t t = c.gap_begin; t < c.gap_end; ++t) {
    if (key->size() > context_begin) key->push_back(' ');
    key->append(s.tokens[t].lower);
  }
  key->append(direction);
  emit();
  key->assign("kinds:")
      .append(corpus::EntityKindName(c.subject_kind))
      .append("-")
      .append(c.literal ? std::string_view("year")
                        : corpus::EntityKindName(c.object_kind))
      .append(direction);
  emit();
  key->assign("gap:").append(std::to_string((c.gap_end - c.gap_begin) / 2));
  emit();
  key->assign("bias");
  emit();
}

/// scores[label] = the sum of `weight_of(id, label)` over `ids`, in
/// feature order.
template <typename WeightOf>
void ScoreLabels(const uint32_t* ids, const uint32_t* ids_end,
                 WeightOf&& weight_of, double* scores) {
  std::fill(scores, scores + kLabels, 0.0);
  for (; ids != ids_end; ++ids) {
    for (int label = 0; label < kLabels; ++label) {
      scores[label] += weight_of(*ids, label);
    }
  }
}

}  // namespace

RelationClassifier::RelationClassifier(ClassifierOptions options)
    : options_(options) {}

void RelationClassifier::Train(
    const std::vector<AnnotatedSentence>& sentences,
    const std::vector<ExtractedFact>& seed_facts) {
  feature_ids_.clear();
  weights_.clear();
  num_features_ = 0;

  // Index the seed KB.
  std::set<std::tuple<uint32_t, int, int64_t>> kb;
  for (const ExtractedFact& f : seed_facts) {
    const auto& info = GetRelationInfo(f.relation);
    kb.emplace(f.subject, static_cast<int>(f.relation),
               info.literal_object ? static_cast<int64_t>(f.literal_year)
                                   : static_cast<int64_t>(f.object));
  }
  auto label_of = [&](const Candidate& c) {
    for (int r = 0; r < kNumRelations; ++r) {
      const auto& info = GetRelationInfo(static_cast<Relation>(r));
      if (info.literal_object != c.literal) continue;
      if (info.subject_kind != c.subject_kind) continue;
      if (!c.literal && info.object_kind != c.object_kind) continue;
      int64_t obj = c.literal ? static_cast<int64_t>(c.literal_year)
                              : static_cast<int64_t>(c.object);
      if (kb.count({c.subject, r, obj}) > 0) return r;
    }
    return kNoneLabel;
  };

  // Build the training set (subsampling NONE): each kept candidate is
  // its gold label and a range of `ids`.
  struct Example {
    int label;
    uint32_t begin;
    uint32_t end;
  };
  Rng rng(options_.seed);
  std::vector<Example> train;
  std::vector<uint32_t> ids;
  std::string key;
  auto intern = [&](const std::string& feature) {
    return feature_ids_
        .try_emplace(feature, static_cast<uint32_t>(feature_ids_.size()))
        .first->second;
  };
  for (const AnnotatedSentence& as : sentences) {
    ForEachCandidate(as, options_.max_gap, [&](const Candidate& c) {
      const int label = label_of(c);
      if (label == kNoneLabel && !rng.Bernoulli(options_.none_subsample)) {
        return;
      }
      const auto begin = static_cast<uint32_t>(ids.size());
      AppendFeatures(as.sentence, c, intern, &key, &ids);
      train.push_back({label, begin, static_cast<uint32_t>(ids.size())});
    });
  }

  // state[id * kLabels + label]: (current, accumulated, last update
  // step); `last` stays 0 until the weight's first update.
  struct Weight {
    double w = 0;
    double acc = 0;
    long long last = 0;
  };
  std::vector<Weight> state(feature_ids_.size() * kLabels);
  long long steps = 0;
  auto update = [&](uint32_t id, int label, double delta) {
    Weight& weight = state[static_cast<size_t>(id) * kLabels + label];
    weight.acc += weight.w * static_cast<double>(steps - weight.last);
    weight.last = steps;
    weight.w += delta;
  };
  double scores[kLabels];
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&train);
    for (const Example& example : train) {
      ++steps;
      const uint32_t* begin = ids.data() + example.begin;
      const uint32_t* end = ids.data() + example.end;
      ScoreLabels(
          begin, end,
          [&](uint32_t id, int label) {
            return state[static_cast<size_t>(id) * kLabels + label].w;
          },
          scores);
      int best = kNoneLabel;
      double best_score = -1e100;
      for (int label = 0; label <= kNoneLabel; ++label) {
        if (scores[label] > best_score) {
          best_score = scores[label];
          best = label;
        }
      }
      if (best != example.label) {
        for (const uint32_t* id = begin; id != end; ++id) {
          update(*id, example.label, +1.0);
          update(*id, best, -1.0);
        }
      }
    }
  }
  // Finalize averages.
  weights_.assign(state.size(), 0.0);
  for (size_t i = 0; i < state.size(); ++i) {
    Weight& weight = state[i];
    if (weight.last == 0) continue;
    weight.acc += weight.w * static_cast<double>(steps - weight.last);
    weights_[i] = weight.acc / std::max<long long>(1, steps);
    ++num_features_;
  }
}

std::vector<ExtractedFact> RelationClassifier::Extract(
    const std::vector<AnnotatedSentence>& sentences,
    double min_confidence) const {
  std::vector<ExtractedFact> out;
  std::vector<uint32_t> ids;
  std::string key;
  auto lookup = [&](const std::string& feature) {
    auto it = feature_ids_.find(feature);
    return it == feature_ids_.end() ? kUnknownFeature : it->second;
  };
  double scores[kLabels];
  for (const AnnotatedSentence& as : sentences) {
    ForEachCandidate(as, options_.max_gap, [&](const Candidate& c) {
      ids.clear();
      AppendFeatures(as.sentence, c, lookup, &key, &ids);
      ScoreLabels(
          ids.data(), ids.data() + ids.size(),
          [&](uint32_t id, int label) {
            return weights_[static_cast<size_t>(id) * kLabels + label];
          },
          scores);
      int best = kNoneLabel;
      double best_score = -1e100, second = -1e100;
      for (int label = 0; label <= kNoneLabel; ++label) {
        if (scores[label] > best_score) {
          second = best_score;
          best_score = scores[label];
          best = label;
        } else if (scores[label] > second) {
          second = scores[label];
        }
      }
      if (best == kNoneLabel) return;
      const auto& info = GetRelationInfo(static_cast<Relation>(best));
      if (info.literal_object != c.literal) return;
      if (info.subject_kind != c.subject_kind) return;
      if (!c.literal && info.object_kind != c.object_kind) return;
      double confidence = 1.0 / (1.0 + std::exp(-(best_score - second)));
      if (confidence < min_confidence) return;
      ExtractedFact f;
      f.subject = c.subject;
      f.relation = static_cast<Relation>(best);
      f.object = c.literal ? UINT32_MAX : c.object;
      f.literal_year = c.literal ? c.literal_year : 0;
      f.confidence = confidence;
      f.doc_id = as.doc_id;
      f.extractor = rdf::kExtractorStatistical;
      out.push_back(f);
    });
  }
  std::vector<ExtractedFact> deduped = DeduplicateFacts(out);
  RecordExtractorYield("statistical", deduped);
  return deduped;
}

}  // namespace extraction
}  // namespace kb
