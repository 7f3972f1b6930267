#include "core/harvester.h"

#include <atomic>
#include <exception>
#include <unordered_map>

#include "extraction/bootstrap.h"
#include "extraction/distant_supervision.h"
#include "extraction/infobox_extractor.h"
#include "extraction/pattern_extractor.h"
#include "multilingual/interwiki.h"
#include "ned/coherence.h"
#include "ned/context_model.h"
#include "ned/disambiguator.h"
#include "ned/mention_detector.h"
#include "reasoning/consistency.h"
#include "taxonomy/type_inference.h"
#include "temporal/scoping.h"
#include "util/metrics_registry.h"
#include "util/thread_pool.h"

namespace kb {
namespace core {

using extraction::AnnotatedSentence;
using extraction::ExtractedFact;

namespace {

/// Pipeline instruments, resolved once. Stage timers live in the
/// default registry so a Snapshot() after any harvest shows where the
/// wall-clock went; the per-document instruments are updated from the
/// map-phase workers and must stay lock-free.
struct HarvestMetrics {
  Counter& runs;
  Counter& documents;
  Counter& documents_failed;  ///< skipped by graceful degradation
  Counter& aborts;            ///< circuit-breaker trips
  Counter& sentences;
  Counter& map_docs;  ///< incremented per document by map workers
  Counter& infobox_facts;
  Counter& pattern_facts;
  Counter& bootstrap_facts;
  Counter& statistical_facts;
  Counter& candidate_facts;
  Counter& accepted_facts;
  Counter& rejected_facts;
  Histogram& annotate_doc_ms;  ///< per-document, observed by workers
  Histogram& annotate_ms;
  Histogram& extract_ms;
  Histogram& reason_ms;
  Histogram& assemble_ms;
  Histogram& total_ms;

  static HarvestMetrics& Get() {
    static HarvestMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new HarvestMetrics{
          r.counter("harvest.runs"),
          r.counter("harvest.documents"),
          r.counter("harvest.documents_failed"),
          r.counter("harvest.aborts"),
          r.counter("harvest.sentences"),
          r.counter("harvest.map.docs"),
          r.counter("harvest.facts.infobox"),
          r.counter("harvest.facts.pattern"),
          r.counter("harvest.facts.bootstrap"),
          r.counter("harvest.facts.statistical"),
          r.counter("harvest.facts.candidate"),
          r.counter("harvest.facts.accepted"),
          r.counter("harvest.facts.rejected"),
          r.histogram("harvest.map.annotate_doc_ms"),
          r.histogram("harvest.stage.annotate_ms"),
          r.histogram("harvest.stage.extract_ms"),
          r.histogram("harvest.stage.reason_ms"),
          r.histogram("harvest.stage.assemble_ms"),
          r.histogram("harvest.total_ms"),
      };
    }();
    return *m;
  }
};

}  // namespace

Harvester::Harvester(HarvestOptions options) : options_(options) {}

HarvestResult Harvester::Harvest(const corpus::Corpus& corpus) const {
  HarvestMetrics& metrics = HarvestMetrics::Get();
  metrics.runs.Increment();
  ScopedTimer total_timer(metrics.total_ms);
  HarvestResult result;
  const corpus::World& world = corpus.world;
  nlp::PosTagger tagger;
  result.stats.documents = corpus.docs.size();
  metrics.documents.Increment(corpus.docs.size());

  // ---- Map phase: annotate documents in parallel (the map-reduce
  // shape the tutorial's "big-data methods" call for).
  ScopedTimer annotate_timer(metrics.annotate_ms);
  // In no-gold mode, build the NED stack once and re-annotate every
  // document with detected + disambiguated mentions.
  std::unique_ptr<ned::AliasIndex> aliases;
  std::unique_ptr<ned::ContextModel> context;
  std::unique_ptr<ned::CoherenceModel> coherence;
  if (!options_.use_gold_mentions) {
    aliases = std::make_unique<ned::AliasIndex>(
        ned::AliasIndex::Build(world));
    context = std::make_unique<ned::ContextModel>(
        ned::ContextModel::Build(world, corpus.docs));
    coherence = std::make_unique<ned::CoherenceModel>(
        ned::CoherenceModel::Build(world, corpus.docs));
  }
  std::vector<std::vector<AnnotatedSentence>> per_doc(corpus.docs.size());
  std::atomic<size_t> failed_docs{0};
  {
    ThreadPool pool(options_.threads);
    pool.ParallelFor(corpus.docs.size(), [&](size_t i) {
      // Circuit breaker already tripped: don't burn cycles on a
      // harvest that will be aborted.
      if (failed_docs.load(std::memory_order_relaxed) >
          options_.max_document_failures) {
        return;
      }
      metrics.map_docs.Increment();
      ScopedTimer doc_timer(metrics.annotate_doc_ms);
      try {
        if (options_.document_fault_hook) options_.document_fault_hook(i);
        if (options_.use_gold_mentions) {
          per_doc[i] = extraction::AnnotateDocument(world, corpus.docs[i],
                                                    tagger);
          return;
        }
        // Detected-mention path: dictionary spans + joint NED.
        ned::MentionDetector detector(aliases.get());
        ned::Disambiguator disambiguator(aliases.get(), context.get(),
                                         coherence.get(), ned::NedOptions());
        corpus::Document redetected = corpus.docs[i];
        redetected.mentions.clear();
        for (const ned::DetectedMention& m :
             detector.Detect(corpus.docs[i].text)) {
          corpus::Mention mention;
          mention.begin = m.begin;
          mention.end = m.end;
          mention.entity = UINT32_MAX;
          redetected.mentions.push_back(mention);
        }
        auto decisions = disambiguator.DisambiguateDocument(redetected);
        std::vector<corpus::Mention> resolved;
        for (const ned::Disambiguation& d : decisions) {
          if (d.predicted == UINT32_MAX) continue;  // NIL
          corpus::Mention mention = redetected.mentions[d.mention_index];
          mention.entity = d.predicted;
          resolved.push_back(mention);
        }
        redetected.mentions = std::move(resolved);
        per_doc[i] = extraction::AnnotateDocument(world, redetected, tagger);
      } catch (...) {
        // One bad document must not sink the harvest: count it, drop
        // its sentences, keep going.
        per_doc[i].clear();
        failed_docs.fetch_add(1, std::memory_order_relaxed);
        metrics.documents_failed.Increment();
      }
    });
  }
  // Each stage's inputs are freed after their last reader, so they do
  // not add to a later stage's peak.
  aliases.reset();
  context.reset();
  coherence.reset();
  result.stats.failed_documents = failed_docs.load();
  if (result.stats.failed_documents > options_.max_document_failures) {
    metrics.aborts.Increment();
    result.status = Status::Aborted(
        "harvest aborted: " + std::to_string(result.stats.failed_documents) +
        " document failures exceed max_document_failures=" +
        std::to_string(options_.max_document_failures));
    return result;
  }
  std::vector<AnnotatedSentence> sentences;
  for (auto& doc_sentences : per_doc) {
    sentences.insert(sentences.end(),
                     std::make_move_iterator(doc_sentences.begin()),
                     std::make_move_iterator(doc_sentences.end()));
  }
  std::vector<std::vector<AnnotatedSentence>>().swap(per_doc);
  result.stats.sentences = sentences.size();
  metrics.sentences.Increment(sentences.size());
  result.stats.annotate_ms = annotate_timer.Stop();

  // ---- Extraction stages.
  ScopedTimer extract_timer(metrics.extract_ms);
  std::vector<ExtractedFact> all_facts;
  std::vector<ExtractedFact> infobox_facts;
  if (options_.use_infobox) {
    std::unordered_map<std::string, uint32_t> by_canonical;
    for (const corpus::Entity& e : world.entities()) {
      by_canonical[e.canonical] = e.id;
    }
    extraction::InfoboxExtractor infobox(std::move(by_canonical));
    infobox_facts = infobox.Extract(corpus.docs);
    result.stats.infobox_facts = infobox_facts.size();
    metrics.infobox_facts.Increment(infobox_facts.size());
    all_facts.insert(all_facts.end(), infobox_facts.begin(),
                     infobox_facts.end());
  }
  extraction::PatternExtractor patterns(extraction::DefaultPatterns());
  if (options_.use_patterns) {
    std::vector<ExtractedFact> fact_list;
    if (options_.use_temporal) {
      temporal::TemporalScoper scoper(&patterns);
      fact_list = scoper.ScopeSentences(sentences);
    } else {
      fact_list = patterns.Extract(sentences);
    }
    result.stats.pattern_facts = fact_list.size();
    metrics.pattern_facts.Increment(fact_list.size());
    all_facts.insert(all_facts.end(), fact_list.begin(), fact_list.end());
  }
  if (options_.use_bootstrap && !infobox_facts.empty()) {
    extraction::Bootstrapper bootstrapper;
    // Bootstrap each relation independently (shard-parallel).
    std::vector<std::vector<ExtractedFact>> per_relation(
        corpus::kNumRelations);
    ThreadPool pool(options_.threads);
    pool.ParallelFor(corpus::kNumRelations, [&](size_t r) {
      auto boot = bootstrapper.Run(static_cast<corpus::Relation>(r),
                                   infobox_facts, sentences);
      per_relation[r] = std::move(boot.facts);
    });
    for (auto& facts : per_relation) {
      result.stats.bootstrap_facts += facts.size();
      metrics.bootstrap_facts.Increment(facts.size());
      all_facts.insert(all_facts.end(), facts.begin(), facts.end());
    }
  }
  if (options_.use_statistical && !infobox_facts.empty()) {
    extraction::RelationClassifier classifier;
    classifier.Train(sentences, infobox_facts);
    auto ds_facts =
        classifier.Extract(sentences, options_.statistical_min_confidence);
    result.stats.statistical_facts = ds_facts.size();
    metrics.statistical_facts.Increment(ds_facts.size());
    all_facts.insert(all_facts.end(), ds_facts.begin(), ds_facts.end());
  }
  result.stats.extract_ms = extract_timer.Stop();
  std::vector<AnnotatedSentence>().swap(sentences);

  ReasonAndAssemble(corpus, std::move(all_facts), &result);
  return result;
}

HarvestResult Harvester::AssembleFromFacts(
    const corpus::Corpus& corpus,
    std::vector<ExtractedFact> candidates) const {
  HarvestResult result;
  result.stats.documents = corpus.docs.size();
  ReasonAndAssemble(corpus, std::move(candidates), &result);
  return result;
}

void Harvester::ReasonAndAssemble(const corpus::Corpus& corpus,
                                  std::vector<ExtractedFact> all_facts,
                                  HarvestResult* result_out) const {
  HarvestMetrics& metrics = HarvestMetrics::Get();
  HarvestResult& result = *result_out;
  const corpus::World& world = corpus.world;
  nlp::PosTagger tagger;

  // ---- Consistency reasoning.
  ScopedTimer reason_timer(metrics.reason_ms);
  if (options_.use_reasoning) {
    reasoning::ConsistencyResult reasoned =
        reasoning::ReasonOverFacts(all_facts);
    result.accepted = std::move(reasoned.accepted);
    result.stats.rejected_facts = reasoned.rejected.size();
  } else {
    result.accepted = extraction::DeduplicateFacts(all_facts);
  }
  result.stats.candidate_facts =
      extraction::DeduplicateFacts(all_facts).size();
  result.stats.accepted_facts = result.accepted.size();
  metrics.candidate_facts.Increment(result.stats.candidate_facts);
  metrics.accepted_facts.Increment(result.stats.accepted_facts);
  metrics.rejected_facts.Increment(result.stats.rejected_facts);
  result.stats.reason_ms = reason_timer.Stop();

  // ---- Taxonomy + types + assembly.
  ScopedTimer assemble_timer(metrics.assemble_ms);
  result.induced = taxonomy::InduceFromCategories(
      corpus.docs, taxonomy::InductionOptions());
  taxonomy::EntityTypes types =
      taxonomy::InferTypes(corpus.docs, result.induced, tagger);

  KnowledgeBase& kb = result.kb;
  for (const auto& [sub, super] : taxonomy::BackboneEdges()) {
    kb.AssertSubclass(sub, super);
  }
  // Induced subclass edges.
  const taxonomy::Taxonomy& induced_tax = result.induced.taxonomy;
  for (taxonomy::ClassId c = 0; c < induced_tax.size(); ++c) {
    for (taxonomy::ClassId super : induced_tax.Superclasses(c)) {
      kb.AssertSubclass(induced_tax.name(c), induced_tax.name(super));
    }
  }
  for (const auto& [entity, classes] : types.types) {
    for (const std::string& cls : classes) {
      kb.AssertType(world.entity(entity).canonical, cls);
    }
  }
  // Relational category yield: birth years.
  for (const auto& [entity, year] : result.induced.birth_years) {
    FactMeta meta;
    meta.extractor = rdf::kExtractorCategory;
    kb.AssertYearFact(world.entity(entity).canonical, "birthDate", year,
                      meta);
  }
  // Accepted relational facts.
  for (const ExtractedFact& f : result.accepted) {
    const corpus::RelationInfo& info = corpus::GetRelationInfo(f.relation);
    FactMeta meta;
    meta.confidence = f.confidence;
    meta.extractor = f.extractor;
    meta.valid_time = f.span;
    if (info.literal_object) {
      kb.AssertYearFact(world.entity(f.subject).canonical,
                        std::string(info.name), f.literal_year, meta);
    } else {
      kb.AssertFact(world.entity(f.subject).canonical,
                    std::string(info.name),
                    world.entity(f.object).canonical, meta);
    }
  }
  // Multilingual labels from interwiki links, plus English labels.
  for (const auto& label :
       multilingual::HarvestInterwikiLabels(corpus.docs)) {
    kb.AssertLabel(world.entity(label.entity).canonical, label.label,
                   label.lang);
  }
  for (const corpus::Entity& e : world.entities()) {
    kb.AssertLabel(e.canonical, e.full_name, "en");
  }
  result.stats.assemble_ms = assemble_timer.Stop();
}

}  // namespace core
}  // namespace kb
