// The KBForge benchmark binary. Usage:
//
//   kbbench --workload read|ingest|harvest --seed N --seconds S
//           --trace 0|1 --data-dir DIR [--spans FILE]
//
// Prints human-readable lines (each metric with unit and sample
// count), then one JSON line {"correct", "attempted", "failed",
// "metrics"} holding every metric the run measured. perfbench/run.py
// builds this binary and selects the metrics BENCHMARK.json names.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  if (rank > 0) --rank;
  return values_[std::min(rank, values_.size() - 1)];
}

double Samples::Mean() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return values_.empty() ? 0 : sum / static_cast<double>(values_.size());
}

int Tracer::Add(const std::string& name, uint64_t request, int parent,
                Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::SelfUs(int span) const {
  double self = DurationUs(span);
  // Children are appended after their parent, so scan forward only.
  for (size_t i = static_cast<size_t>(span) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == span) self -= DurationUs(static_cast<int>(i));
  }
  return self;
}

bool Tracer::WriteTo(const std::string& path,
                     Clock::time_point origin) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.request << '\t' << s.parent << '\t'
        << Us(s.start - origin) << '\t' << Us(s.end - origin) << '\n';
  }
  return static_cast<bool>(out);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_[name] = Value{value, unit};
  if (samples > 0) {
    printf("  %-36s %14.6g %-7s (n=%zu)\n", name.c_str(), value, unit.c_str(),
           samples);
  } else {
    printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  fflush(stdout);
}

void Report::Fail(const std::string& what) {
  ++failures_;
  // The first few failures are enough to diagnose; the count says the
  // rest.
  if (failures_ <= 10) printf("FAIL: %s\n", what.c_str());
  fflush(stdout);
}

int Report::Finish() {
  const bool correct = failures_ == 0 && failed_ == 0 && attempted_ > 0;
  if (failures_ > 10) printf("FAIL: %llu failures in all\n",
                             static_cast<unsigned long long>(failures_));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g",
             std::isfinite(v.value) ? v.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

double ResidentMb() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double PeakResidentMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  if (args->spans_path.empty()) args->spans_path = args->data_dir + "/spans.tsv";
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->data_dir.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: kbbench --workload read|ingest|harvest --seed N "
            "--seconds S --trace 0|1 --data-dir DIR\n");
    return 2;
  }
  printf("kbbench: workload=%s seed=%llu seconds=%d trace=%d\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0);
  perfbench::Report report;
  int setup_rc = 0;
  if (args.workload == "read") {
    setup_rc = perfbench::RunServing(args, /*ingest=*/false, &report);
  } else if (args.workload == "ingest") {
    setup_rc = perfbench::RunServing(args, /*ingest=*/true, &report);
  } else if (args.workload == "harvest") {
    setup_rc = perfbench::RunHarvest(args, &report);
  } else {
    fprintf(stderr, "kbbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // A run that could not set up prints no result at all.
  if (setup_rc != 0) return setup_rc;
  return report.Finish();
}
