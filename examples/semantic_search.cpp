// Semantic search / deep question answering over the harvested KB —
// the "knowledge-centric services" of the tutorial's §1 (Watson-style
// QA, Knowledge-Graph-style entity answers instead of page links).
//
// A tiny question grammar maps natural-language questions to SPARQL
// over the KB: "who founded <X>", "where was <X> born",
// "list <class>", "when was <X> founded".

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/entity_card.h"
#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "query/engine.h"
#include "rdf/namespaces.h"
#include "util/string_util.h"

namespace {

using namespace kb;

/// Resolves a display name to a canonical IRI via rdfs:label.
std::string IriForName(const core::KnowledgeBase& kb,
                       const std::string& name) {
  auto rows = kb.Query(
      "SELECT ?e WHERE { ?e <http://www.w3.org/2000/01/rdf-schema#label> "
      "\"" + name + "\"@en . }");
  if (!rows.ok() || rows->empty()) return "";
  return kb.store().dict().term(rows->begin()->at("e")).value();
}

/// Answers one question; returns display strings.
std::vector<std::string> Answer(const core::KnowledgeBase& kb,
                                const std::string& question) {
  std::vector<std::string> out;
  std::string q = std::string(StripWhitespace(ToLower(question)));
  auto run = [&](const std::string& sparql, const std::string& var) {
    auto rows = kb.Query(sparql);
    if (!rows.ok()) return;
    for (const query::Binding& row : *rows) {
      auto it = row.find(var);
      if (it == row.end()) continue;
      out.push_back(rdf::Abbreviate(kb.store().dict().term(it->second)
                                        .value()));
    }
  };
  if (StartsWith(q, "who founded ")) {
    std::string entity = IriForName(
        kb, std::string(StripWhitespace(question.substr(12))));
    if (entity.empty()) return out;
    run("SELECT ?p WHERE { ?p <" + rdf::PropertyIri("founded") + "> <" +
            entity + "> . }",
        "p");
  } else if (StartsWith(q, "where was ") && EndsWith(q, " born")) {
    std::string name(StripWhitespace(
        question.substr(10, question.size() - 10 - 5)));
    std::string entity = IriForName(kb, name);
    if (entity.empty()) return out;
    run("SELECT ?c WHERE { <" + entity + "> <" +
            rdf::PropertyIri("bornIn") + "> ?c . }",
        "c");
  } else if (StartsWith(q, "list ")) {
    std::string cls = Singularize(StripWhitespace(q.substr(5)));
    run("SELECT ?e WHERE { ?e "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" +
            rdf::ClassIri(cls) + "> . }",
        "e");
  } else if (StartsWith(q, "who works for ")) {
    std::string entity = IriForName(
        kb, std::string(StripWhitespace(question.substr(14))));
    if (entity.empty()) return out;
    run("SELECT ?p WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> <" +
            entity + "> . }",
        "p");
  }
  return out;
}

}  // namespace

int main() {
  using namespace kb;
  corpus::WorldOptions world_options;
  world_options.seed = 4242;
  world_options.num_persons = 150;
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = 11;
  corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
  core::Harvester harvester;
  core::HarvestResult result = harvester.Harvest(corpus);
  printf("KB ready: %zu triples\n\n", result.kb.NumTriples());

  // Build a demo question set from the gold world so the demo always
  // has answerable questions.
  std::vector<std::string> questions;
  for (uint32_t company :
       corpus.world.ByKind(corpus::EntityKind::kCompany)) {
    questions.push_back("who founded " +
                        corpus.world.entity(company).full_name);
    if (questions.size() >= 2) break;
  }
  for (uint32_t person : corpus.world.ByKind(corpus::EntityKind::kPerson)) {
    questions.push_back("where was " +
                        corpus.world.entity(person).full_name + " born");
    if (questions.size() >= 4) break;
  }
  questions.push_back("list singers");
  questions.push_back("who works for " +
                      corpus.world
                          .entity(corpus.world.ByKind(
                              corpus::EntityKind::kCompany)[0])
                          .full_name);

  for (const std::string& question : questions) {
    printf("Q: %s\n", question.c_str());
    auto answers = Answer(result.kb, question);
    if (answers.empty()) {
      printf("A: (no answer in the KB)\n\n");
      continue;
    }
    size_t shown = 0;
    printf("A: ");
    for (const std::string& a : answers) {
      if (shown++ >= 5) {
        printf("... (%zu total)", answers.size());
        break;
      }
      printf("%s%s", shown > 1 ? ", " : "", a.c_str());
    }
    printf("\n\n");
  }

  // Knowledge panel for the first company (the Knowledge-Graph-style
  // "things, not strings" answer surface).
  const corpus::Entity& company = corpus.world.entity(
      corpus.world.ByKind(corpus::EntityKind::kCompany)[0]);
  auto card = core::BuildEntityCard(result.kb, company.canonical);
  if (card.ok()) {
    printf("knowledge panel:\n%s", core::RenderEntityCard(*card).c_str());
  }

  // Snapshot the KB and stream a LIMIT query off the mapped file:
  // WriteKbSnapshot + OpenKbSnapshot + FromSnapshot boot a KB without
  // replaying a single fact, and the pull cursor stops the pipeline
  // after three rows instead of enumerating every binding.
  std::string path = (std::filesystem::temp_directory_path() /
                      "kbforge_semantic_search.kbsnap")
                         .string();
  storage::Env* env = storage::Env::Default();
  if (core::WriteKbSnapshot(env, path, result.kb).ok()) {
    auto base = core::OpenKbSnapshot(env, path);
    if (base.ok()) {
      auto booted = core::KnowledgeBase::FromSnapshot(std::move(*base));
      auto parsed = booted->ParseQuery("SELECT ?p ?c WHERE { ?p <" +
                                       rdf::PropertyIri("worksFor") +
                                       "> ?c . } LIMIT 3");
      if (parsed.ok()) {
        const rdf::Dictionary& dict = booted->store().dict();
        query::QueryEngine engine(&booted->store());
        query::Cursor cursor = engine.Open(*parsed);
        printf("\nstreamed off the mapped snapshot (LIMIT 3):\n");
        query::Row row;
        while (cursor.Next(&row)) {
          printf("  %s worksFor %s\n",
                 rdf::Abbreviate(dict.term(row[0]).value()).c_str(),
                 rdf::Abbreviate(dict.term(row[1]).value()).c_str());
        }
        printf("  (touched %llu of %zu snapshot triples before stopping)\n",
               static_cast<unsigned long long>(
                   cursor.stats().intermediate_rows),
               booted->NumTriples());
      }
    }
  }
  std::filesystem::remove(path);
  return 0;
}
