// The harvest workload: KB construction from a generated corpus with
// the no-gold pipeline (detected mentions, so NED runs), scored against
// the gold world. It touches no serving layer.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench.h"
#include "core/harvester.h"
#include "corpus/generator.h"
#include "extraction/evaluation.h"

namespace perfbench {

namespace {

constexpr size_t kPersons = 2000;
// Corpora per run, each from its own seed derived from --seed: the
// harvest cost depends on the corpus (reasoning is superlinear in its
// conflicts), so two corpora narrow the spread one would give.
constexpr int kCorpora = 2;
constexpr int kSetups = 9;
constexpr size_t kThreads = 4;
constexpr double kMinF1 = 0.75;

kb::corpus::WorldOptions HarvestWorldOptions(uint64_t seed) {
  kb::corpus::WorldOptions options;
  options.seed = seed;
  options.num_persons = kPersons;
  options.num_cities = 300;
  options.num_companies = 450;
  options.num_universities = 100;
  options.num_bands = kPersons / 8;
  options.num_albums = kPersons / 4;
  options.num_films = kPersons / 5;
  return options;
}

kb::corpus::CorpusOptions HarvestCorpusOptions(uint64_t seed) {
  kb::corpus::CorpusOptions options;
  options.seed = seed ^ 0xc0ffee;
  options.news_docs = 2000;
  options.web_docs = 200;
  return options;
}

}  // namespace

int RunHarvest(const Args& args, Report* report) {
  // Set-up: generating the run's corpora, repeated; the last set is
  // harvested.
  std::vector<double> generate;
  std::vector<kb::corpus::Corpus> corpora;
  for (int round = 0; round < kSetups; ++round) {
    const Clock::time_point t0 = Clock::now();
    corpora.clear();
    for (int c = 0; c < kCorpora; ++c) {
      const uint64_t seed = args.seed * kCorpora + static_cast<uint64_t>(c);
      corpora.push_back(kb::corpus::BuildCorpus(HarvestWorldOptions(seed),
                                                HarvestCorpusOptions(seed)));
    }
    generate.push_back(Seconds(Clock::now() - t0));
  }
  std::vector<std::set<uint32_t>> recall_bases;
  for (const kb::corpus::Corpus& corpus : corpora) {
    printf("  corpus: %zu persons, %zu entities, %zu gold facts, %zu "
           "documents\n",
           kPersons, corpus.world.entities().size(),
           corpus.world.facts().size(), corpus.docs.size());
    recall_bases.push_back(kb::extraction::ExpressedFacts(corpus.docs));
  }
  report->Set("setup_s", Median(generate), "s", generate.size());
  report->Set("corpus.generate_s", Median(generate), "s", generate.size());

  kb::core::HarvestOptions options;
  options.threads = kThreads;
  options.use_gold_mentions = false;
  const kb::core::Harvester harvester(options);

  // Every corpus once, then more while another harvest fits in the
  // run's time.
  std::vector<double> annotate, extract, reason, assemble, accept, f1;
  double wall_s = 0, cpu_s = 0;
  size_t docs = 0, attempted = 0, failed = 0;
  const Clock::time_point run_start = Clock::now();
  for (size_t i = 0;; ++i) {
    const kb::corpus::Corpus& corpus = corpora[i % corpora.size()];
    const Clock::time_point t0 = Clock::now();
    const double cpu_start = CpuSeconds();
    kb::core::HarvestResult result = harvester.Harvest(corpus);
    const double wall = Seconds(Clock::now() - t0);
    cpu_s += CpuSeconds() - cpu_start;
    wall_s += wall;
    docs += corpus.docs.size();
    ++attempted;
    report->CountAttempted(1);
    const kb::core::HarvestStats& stats = result.stats;
    const kb::PrecisionRecall pr = kb::extraction::EvaluateFacts(
        corpus.world, result.accepted, recall_bases[i % corpora.size()]);
    if (!result.status.ok() || stats.documents != corpus.docs.size() ||
        stats.failed_documents != 0 || pr.f1() < kMinF1) {
      ++failed;
      report->CountFailed(1);
      report->Fail("harvest of " + std::to_string(corpus.docs.size()) +
                   " documents: " + std::to_string(stats.documents) +
                   " processed, " + std::to_string(stats.failed_documents) +
                   " failed, F1 " + std::to_string(pr.f1()) + " (minimum " +
                   std::to_string(kMinF1) + "): " + result.status.ToString());
    }
    f1.push_back(pr.f1());
    annotate.push_back(stats.annotate_ms / 1000);
    extract.push_back(stats.extract_ms / 1000);
    reason.push_back(stats.reason_ms / 1000);
    assemble.push_back(stats.assemble_ms / 1000);
    accept.push_back(static_cast<double>(stats.accepted_facts) /
                     std::max<size_t>(1, stats.candidate_facts));
    printf("  harvest %zu: %.3f s, %zu triples, precision %.4f recall %.4f\n",
           attempted, wall, result.kb.NumTriples(), pr.precision(),
           pr.recall());
    if (attempted >= corpora.size() &&
        Seconds(Clock::now() - run_start) + wall > args.seconds) {
      break;
    }
  }

  const double throughput = static_cast<double>(docs) / wall_s;
  report->Set("harvest_docs_per_s", throughput, "docs/s", attempted);
  report->Set("harvest_f1", Median(f1), "ratio", attempted);
  report->Set("cpu_us_per_request", cpu_s * 1e6 / static_cast<double>(docs),
              "us", docs);
  // A batch job needs its peak: the run's peak resident memory.
  report->Set("rss_mb", PeakResidentMb(), "MB");
  report->Set("ned.annotate_s", Median(annotate), "s", annotate.size());
  report->Set("extraction.extract_s", Median(extract), "s", extract.size());
  report->Set("reasoning.reason_s", Median(reason), "s", reason.size());
  report->Set("core.assemble_s", Median(assemble), "s", assemble.size());
  report->Set("reasoning.accept_ratio", Median(accept), "ratio",
              accept.size());
  report->Set("error_ratio",
              static_cast<double>(failed) / std::max<size_t>(1, attempted),
              "ratio", attempted);
  return 0;
}

}  // namespace perfbench
