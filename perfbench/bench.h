#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the workloads: run options, the report every
// workload fills, and readers over the engine's metrics registry and query
// results.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  /// Directory the traced run writes its span file into.
  std::string out_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds both the end-to-end and
/// the per-layer values by name; main.cc picks the set the run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  /// The workload-specific end-to-end figures under their own names
  /// (printed in the human-readable part of the output).
  std::vector<std::pair<std::string, Metric>> named;
  std::vector<std::pair<std::string, std::string>> params;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Named(const std::string& name, double value, const std::string& unit) {
    named.emplace_back(name, Metric{value, unit});
  }
  void Param(const std::string& name, const std::string& value) {
    params.emplace_back(name, value);
  }
  void Fail(const std::string& what);
};

Report RunBatchModelJoin(const RunOptions& options);
Report RunBatchBaselines(const RunOptions& options);
Report RunServePoint(const RunOptions& options);
Report RunServeMixed(const RunOptions& options);

/// End-to-end metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// --- engine observation helpers -------------------------------------------

/// Registry snapshot: counters by name, histograms as `name.count` and
/// `name.sum`.
class RegistryDelta {
 public:
  RegistryDelta();
  /// Freezes the end of the measured interval.
  void Stop();
  /// Change of `name` between construction and Stop().
  int64_t Get(const std::string& name) const;
  /// a / b of two deltas (0 when b is 0).
  double Ratio(const std::string& a, const std::string& b) const;

 private:
  std::map<std::string, int64_t> start_;
  std::map<std::string, int64_t> end_;
};

double SafeDiv(double a, double b);

/// Set-up timing: `warm_ups` untimed rounds, then timed ones until at least
/// `repeats` ran and `budget_s` passed. Each round calls `tear_down`
/// (untimed) and then `set_up` (timed); the durations are appended to
/// `seconds`. On a shared host every round of a phase of 0.1-2 s runs up to
/// 2x slower while other tenants load it, so the rounds span over a second,
/// workloads time set-up before and after their window, and they report
/// the fastest round: set-up's own cost, not the other tenants' load.
void TimeSetUps(int warm_ups, int repeats, double budget_s,
                const std::function<void()>& tear_down, const std::function<void()>& set_up,
                std::vector<double>* seconds);

/// Shortest "%g" rendering ("99", "99.9", "0.5").
std::string FormatNumber(double v);

/// Sum of every column whose name starts with "prediction".
double PredictionChecksum(const indbml::exec::QueryResult& result);

/// (id, prediction) pairs of a result with `id` and `prediction` columns,
/// sorted by id. Empty when either column is missing.
std::vector<std::pair<int64_t, float>> IdPredictions(
    const indbml::exec::QueryResult& result);

/// |a - b| <= tol * max(|a|, |b|, floor).
bool Close(double a, double b, double tol, double floor = 1e-6);

/// Durations of spans named `name` whose parent span is named `parent`.
std::vector<double> ChildDurationsMicros(const std::vector<Span>& spans,
                                         const std::string& name,
                                         const std::string& parent);

/// Share of `wall_us` not covered by the self time of attributed spans.
/// Spans named in `grouping` (per-request wrappers owned by the benchmark
/// loop) do not count as attributed.
double UnattributedFrac(const std::vector<Span>& spans, int64_t wall_us,
                        const std::vector<std::string>& grouping);

/// Writes the spans of a traced run to `<out_dir>/<workload>-seed<seed>.json`.
void WriteSpans(const RunOptions& options, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
