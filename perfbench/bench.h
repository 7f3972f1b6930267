// Shared pieces of the KBForge benchmark: arguments, exact quantiles,
// span tracing, and the metric report whose last line is the one-line
// JSON result.

#ifndef KBFORGE_PERFBENCH_BENCH_H_
#define KBFORGE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for snapshots and logs (removed by the caller).
  std::string data_dir;
  /// Where a traced run writes its spans (tab-separated).
  std::string spans_path;
};

/// Every recorded sample, kept exactly: quantiles are order statistics
/// of the sorted values, never bucket interpolations.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q);
  double Mean() const;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// One traced interval. Spans live in memory until the run ends.
struct Span {
  std::string name;
  Clock::time_point start, end;
  int parent = -1;       ///< index into the tracer's spans; -1 = root
  uint64_t request = 0;  ///< request id shared by a request's spans
};

/// Records spans around calls the benchmark makes into the program's
/// layers. Not thread-safe: each recording thread owns a tracer.
class Tracer {
 public:
  /// Records a measured interval; returns its index.
  int Add(const std::string& name, uint64_t request, int parent,
          Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of `span` minus the part its children cover (children
  /// of one span never overlap: replays run one after another).
  double SelfUs(int span) const;
  double DurationUs(int span) const {
    return Us(spans_[span].end - spans_[span].start);
  }
  /// Writes the spans as tab-separated lines (name, request, parent,
  /// start and end in microseconds since `origin`).
  bool WriteTo(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

/// The run's metrics. Every value is printed when set, so the human
/// record shows units and sample counts; Finish() prints the JSON line.
/// Used from the main thread only.
class Report {
 public:
  /// `samples` 0 prints no count (a single measurement).
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// A correctness failure: printed, and the run reports correct=false.
  void Fail(const std::string& what);
  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  /// Prints the one-line JSON result; returns the process exit code.
  int Finish();

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failures_ = 0;
};

/// Resident set size of this process in MB, after returning freed heap
/// pages to the OS (so the figure tracks live memory, not the
/// allocator's caches).
double ResidentMb();

/// Peak resident set size of this process so far, in MB.
double PeakResidentMb();

/// User + system CPU seconds of the whole process so far: every tier
/// thread and the load generator.
double CpuSeconds();

/// Median of a few measurements (set-up is repeated and its median
/// reported).
double Median(std::vector<double> values);

/// The workloads. A nonzero return means set-up failed: the run then
/// prints no result.
int RunServing(const Args& args, bool ingest, Report* report);
int RunHarvest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_BENCH_H_
