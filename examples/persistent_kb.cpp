// Persistent knowledge base: harvest once, store on disk (the LSM
// engine under src/storage), reopen later and query — the lifecycle a
// production KB service needs ("building, maintaining, and using
// knowledge bases", as the tutorial's industrial examples do).

#include <cstdio>
#include <filesystem>

#include "core/harvester.h"
#include "core/persistence.h"
#include "rdf/namespaces.h"

int main() {
  using namespace kb;
  std::string dir =
      (std::filesystem::temp_directory_path() / "kbforge_demo_kb").string();
  std::filesystem::remove_all(dir);

  // --- Session 1: harvest and persist.
  {
    corpus::WorldOptions world_options;
    world_options.seed = 321;
    world_options.num_persons = 100;
    corpus::CorpusOptions corpus_options;
    corpus_options.seed = 322;
    corpus_options.news_docs = 120;
    corpus::Corpus corpus =
        corpus::BuildCorpus(world_options, corpus_options);
    core::Harvester harvester;
    core::HarvestResult result = harvester.Harvest(corpus);
    printf("[session 1] harvested %zu triples\n", result.kb.NumTriples());

    auto storage = core::KbStorage::Open(dir);
    if (!storage.ok()) {
      fprintf(stderr, "open failed: %s\n",
              storage.status().ToString().c_str());
      return 1;
    }
    if (Status s = (*storage)->Save(result.kb); !s.ok()) {
      fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    (*storage)->Compact().ok();
    printf("[session 1] saved to %s (%zu SSTables after compaction)\n",
           dir.c_str(), (*storage)->store()->num_tables());
  }

  // --- Session 2: a fresh process would start here.
  {
    auto storage = core::KbStorage::Open(dir);
    if (!storage.ok()) return 1;
    auto kb = (*storage)->Load();
    if (!kb.ok()) {
      fprintf(stderr, "load failed: %s\n", kb.status().ToString().c_str());
      return 1;
    }
    printf("[session 2] reopened KB: %zu triples, %zu entities, "
           "%zu classes\n",
           (*kb)->NumTriples(), (*kb)->NumEntities(), (*kb)->NumClasses());

    auto rows = (*kb)->Query("SELECT ?p ?c WHERE { ?p <" +
                             rdf::PropertyIri("bornIn") + "> ?c . }");
    if (!rows.ok()) return 1;
    printf("[session 2] bornIn facts on disk: %zu; sample:\n",
           rows->size());
    int shown = 0;
    for (const query::Binding& row : *rows) {
      if (shown++ >= 3) break;
      printf("  %s -> %s\n",
             rdf::Abbreviate(
                 (*kb)->store().dict().term(row.at("p")).value())
                 .c_str(),
             rdf::Abbreviate(
                 (*kb)->store().dict().term(row.at("c")).value())
                 .c_str());
    }
    // Provenance survives too.
    size_t with_meta = 0, with_span = 0;
    for (const auto& entry : (*kb)->meta_map()) {
      ++with_meta;
      if (entry.meta.valid_time.valid()) ++with_span;
    }
    printf("[session 2] %zu facts carry provenance, %zu carry "
           "timespans\n",
           with_meta, with_span);
  }
  return 0;
}
