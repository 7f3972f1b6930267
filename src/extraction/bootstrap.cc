#include "extraction/bootstrap.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "extraction/extraction_metrics.h"
#include "rdf/triple.h"

namespace kb {
namespace extraction {

using corpus::GetRelationInfo;
using corpus::Relation;
using corpus::RelationInfo;

Bootstrapper::Bootstrapper(BootstrapOptions options) : options_(options) {}

namespace {

/// (subject, object-or-year) pair identifying a statement.
using Pair = std::pair<uint32_t, int64_t>;

Pair PairOf(const ExtractedFact& f, bool literal) {
  return {f.subject, literal ? static_cast<int64_t>(f.literal_year)
                             : static_cast<int64_t>(f.object)};
}

/// A candidate pattern: the lowercased gap tokens joined with ' ',
/// plus "|SF" (subject first) or "|OF".
struct PatternKey {
  const std::string* text;  ///< owned by the interning map
  bool subject_first;
  /// The gap of the key's last occurrence, which supplies the
  /// pattern's words.
  const nlp::Sentence* sentence = nullptr;
  uint32_t gap_begin = 0;
  uint32_t gap_end = 0;
  bool accepted = false;
  double confidence = 0;  ///< precision when accepted
};

struct Occurrence {
  Pair pair;
  uint32_t key;  ///< index into the PatternKey vector
  uint32_t doc_id;
};

}  // namespace

Bootstrapper::Result Bootstrapper::Run(
    Relation relation, const std::vector<ExtractedFact>& seeds,
    const std::vector<AnnotatedSentence>& sentences) const {
  const RelationInfo& info = GetRelationInfo(relation);
  Result result;

  // Enumerate every candidate occurrence once up front, interning its
  // pattern key.
  std::unordered_map<std::string, uint32_t> key_ids;
  std::vector<PatternKey> keys;
  std::vector<Occurrence> occurrences;
  std::string text;
  auto add = [&](Pair pair, const AnnotatedSentence& as, uint32_t from,
                 uint32_t to, bool subject_first) {
    const nlp::Sentence& s = as.sentence;
    text.clear();
    for (uint32_t t = from; t < to; ++t) {
      if (t > from) text += ' ';
      text += s.tokens[t].lower;
    }
    text += subject_first ? "|SF" : "|OF";
    auto [it, inserted] =
        key_ids.try_emplace(text, static_cast<uint32_t>(keys.size()));
    if (inserted) keys.push_back({&it->first, subject_first});
    PatternKey& key = keys[it->second];
    key.sentence = &s;
    key.gap_begin = from;
    key.gap_end = to;
    occurrences.push_back({pair, it->second, as.doc_id});
  };
  for (const AnnotatedSentence& as : sentences) {
    const nlp::Sentence& s = as.sentence;
    if (info.literal_object) {
      for (const SentenceMention& subj : as.mentions) {
        if (subj.kind != info.subject_kind) continue;
        for (uint32_t t = subj.token_end;
             t < s.tokens.size() &&
             t - subj.token_end <= options_.max_gap;
             ++t) {
          int year = 0;
          if (!IsYearToken(s.tokens[t], &year)) continue;
          add({subj.entity, year}, as, subj.token_end, t, true);
        }
      }
      continue;
    }
    for (const SentenceMention& first : as.mentions) {
      for (const SentenceMention& second : as.mentions) {
        if (&first == &second || second.token_begin < first.token_end) {
          continue;
        }
        if (second.token_begin - first.token_end > options_.max_gap) {
          continue;
        }
        for (bool subject_first : {true, false}) {
          const SentenceMention& subj = subject_first ? first : second;
          const SentenceMention& obj = subject_first ? second : first;
          if (subj.entity == obj.entity) continue;
          if (subj.kind != info.subject_kind ||
              obj.kind != info.object_kind) {
            continue;
          }
          add({subj.entity, obj.entity}, as, first.token_end,
              second.token_begin, subject_first);
        }
      }
    }
  }
  // Patterns are considered in the keys' lexicographic order.
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return *keys[a].text < *keys[b].text;
  });

  // Seed statements and their subjects.
  std::set<Pair> known;
  std::set<uint32_t> known_subjects;
  for (const ExtractedFact& f : seeds) {
    if (f.relation != relation) continue;
    known.insert(PairOf(f, info.literal_object));
    known_subjects.insert(f.subject);
  }

  std::vector<ExtractedFact> raw_facts;
  struct Stats {
    int pos = 0;
    int neg = 0;
  };
  std::vector<Stats> stats;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    result.iterations_run = iter + 1;
    // Score contexts against the current seed set.
    stats.assign(keys.size(), Stats());
    for (const Occurrence& occ : occurrences) {
      Stats& st = stats[occ.key];
      if (known.count(occ.pair) > 0) {
        ++st.pos;
      } else if (known_subjects.count(occ.pair.first) > 0) {
        ++st.neg;  // contradicts what we believe about this subject
      }
    }
    // Accept new patterns.
    const size_t before = result.learned_patterns.size();
    for (uint32_t k : order) {
      PatternKey& key = keys[k];
      const Stats& st = stats[k];
      if (key.accepted) continue;
      if (st.pos < options_.min_pattern_support) continue;
      double precision =
          static_cast<double>(st.pos) / static_cast<double>(st.pos + st.neg);
      if (precision < options_.min_pattern_precision) continue;
      if (key.gap_begin == key.gap_end) continue;  // adjacency is too generic
      key.accepted = true;
      key.confidence = precision;
      SurfacePattern p;
      p.relation = relation;
      for (uint32_t t = key.gap_begin; t < key.gap_end; ++t) {
        p.between.push_back(key.sentence->tokens[t].lower);
      }
      p.subject_first = key.subject_first;
      p.confidence = precision;
      result.learned_patterns.push_back(std::move(p));
    }
    if (result.learned_patterns.size() == before && iter > 0) {
      break;  // converged
    }

    // Apply all accepted patterns; grow the seed set.
    for (const Occurrence& occ : occurrences) {
      const PatternKey& key = keys[occ.key];
      if (!key.accepted) continue;
      ExtractedFact f;
      f.subject = occ.pair.first;
      f.relation = relation;
      if (info.literal_object) {
        f.literal_year = static_cast<int32_t>(occ.pair.second);
      } else {
        f.object = static_cast<uint32_t>(occ.pair.second);
      }
      f.confidence = key.confidence;
      f.doc_id = occ.doc_id;
      f.extractor = rdf::kExtractorBootstrap;
      raw_facts.push_back(f);
      known.insert(occ.pair);
      known_subjects.insert(occ.pair.first);
    }
  }

  result.facts = DeduplicateFacts(raw_facts);
  RecordExtractorYield("bootstrap", result.facts);
  return result;
}

}  // namespace extraction
}  // namespace kb
