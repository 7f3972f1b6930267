#ifndef KBFORGE_EXTRACTION_DISTANT_SUPERVISION_H_
#define KBFORGE_EXTRACTION_DISTANT_SUPERVISION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "extraction/annotation.h"

namespace kb {
namespace extraction {

/// Options of the distant-supervision relation classifier.
struct ClassifierOptions {
  int epochs = 5;
  /// Fraction of NONE-labeled training pairs kept (class balancing).
  double none_subsample = 0.25;
  uint64_t seed = 31;
  size_t max_gap = 8;  ///< longest between-mention gap considered
};

/// The "statistical learning" tier of the extraction spectrum
/// (tutorial §3): a multiclass averaged perceptron over mention-pair
/// contexts, trained by *distant supervision* — sentence pairs are
/// labeled automatically by matching them against a seed knowledge
/// base (e.g. infobox-extracted facts), never by hand. Feature strings
/// are interned once into model-owned ids; training and extraction
/// score candidates over those ids.
class RelationClassifier {
 public:
  explicit RelationClassifier(ClassifierOptions options = ClassifierOptions());

  /// Trains on `sentences`, using `seed_facts` as the distant labels.
  /// Replaces whatever model an earlier call learned.
  void Train(const std::vector<AnnotatedSentence>& sentences,
             const std::vector<ExtractedFact>& seed_facts);

  /// Classifies all candidate pairs; returns facts whose confidence
  /// (sigmoid of the perceptron margin) reaches `min_confidence`.
  /// Features never seen in training are ignored.
  std::vector<ExtractedFact> Extract(
      const std::vector<AnnotatedSentence>& sentences,
      double min_confidence = 0.5) const;

  /// Number of (feature, label) weights training updated.
  size_t num_features() const { return num_features_; }

 private:
  ClassifierOptions options_;
  /// Feature string -> id; an id is a row of `weights_`.
  std::unordered_map<std::string, uint32_t> feature_ids_;
  /// Averaged weights, one row of kNumRelations + 1 labels (the last
  /// is NONE) per feature id.
  std::vector<double> weights_;
  size_t num_features_ = 0;
};

}  // namespace extraction
}  // namespace kb

#endif  // KBFORGE_EXTRACTION_DISTANT_SUPERVISION_H_
