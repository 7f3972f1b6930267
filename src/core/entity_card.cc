#include "core/entity_card.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace kb {
namespace core {

StatusOr<EntityCard> BuildEntityCard(const KnowledgeBase& kb,
                                     const std::string& canonical,
                                     const EntityCardOptions& options) {
  const rdf::TripleStore& store = kb.store();
  rdf::TermId subject =
      store.dict().Lookup(rdf::Term::Iri(rdf::EntityIri(canonical)));
  if (subject == rdf::kInvalidTermId) {
    return Status::NotFound("no entity " + canonical);
  }
  EntityCard card;
  card.canonical = canonical;
  card.display_name = canonical;

  rdf::TriplePattern all_of_subject;
  all_of_subject.s = subject;
  std::vector<CardFact> facts;
  store.Scan(all_of_subject, [&](const rdf::Triple& t) {
    const rdf::Term& predicate = store.dict().term(t.p);
    const rdf::Term& object = store.dict().term(t.o);
    if (predicate.value() == rdf::kRdfsLabel) {
      card.labels.emplace_back(object.language(), object.value());
      if (object.language() == "en") card.display_name = object.value();
      return true;
    }
    if (predicate.value() == rdf::kRdfType) {
      if (StartsWith(object.value(), rdf::kClassNs)) {
        card.types.push_back(
            object.value().substr(rdf::kClassNs.size()));
      }
      return true;
    }
    if (!StartsWith(predicate.value(), rdf::kPropertyNs)) return true;
    CardFact fact;
    fact.property = predicate.value().substr(rdf::kPropertyNs.size());
    fact.value = object.is_literal() ? object.value()
                                     : rdf::Abbreviate(object.value());
    const FactMeta* meta = kb.MetaOf(t);
    if (meta != nullptr) {
      fact.confidence = meta->confidence;
      fact.support = meta->support;
      fact.valid_time = meta->valid_time;
    }
    double salience =
        fact.confidence * (1.0 + std::log(static_cast<double>(fact.support)));
    if (options.downweight_common_properties) {
      rdf::TriplePattern by_property;
      by_property.p = t.p;
      size_t frequency = store.EstimateCount(by_property);
      salience /= std::log(2.0 + static_cast<double>(frequency));
    }
    fact.salience = salience;
    facts.push_back(std::move(fact));
    return true;
  });

  // Types ordered most-specific first (deeper in the taxonomy = more
  // ancestors).
  const taxonomy::Taxonomy& tax = kb.taxonomy();
  std::stable_sort(card.types.begin(), card.types.end(),
                   [&](const std::string& a, const std::string& b) {
                     auto depth = [&](const std::string& name) {
                       taxonomy::ClassId id = tax.Lookup(name);
                       return id == taxonomy::kInvalidClassId
                                  ? size_t{0}
                                  : tax.Ancestors(id).size();
                     };
                     return depth(a) > depth(b);
                   });

  std::stable_sort(facts.begin(), facts.end(),
                   [](const CardFact& a, const CardFact& b) {
                     return a.salience > b.salience;
                   });
  if (facts.size() > options.max_facts) facts.resize(options.max_facts);
  card.facts = std::move(facts);
  return card;
}

std::string RenderEntityCard(const EntityCard& card) {
  std::string out = card.display_name + "\n";
  if (!card.types.empty()) {
    out += "  (" + Join(card.types, ", ") + ")\n";
  }
  for (const CardFact& fact : card.facts) {
    out += "  " + fact.property + ": " + fact.value;
    if (fact.valid_time.valid()) {
      out += " " + fact.valid_time.ToString();
    }
    out += "  [conf " + FormatDouble(fact.confidence, 2) + ", x" +
           std::to_string(fact.support) + "]\n";
  }
  for (const auto& [lang, label] : card.labels) {
    if (lang != "en") out += "  label@" + lang + ": " + label + "\n";
  }
  return out;
}

}  // namespace core
}  // namespace kb
