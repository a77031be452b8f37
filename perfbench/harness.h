#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Engine-independent pieces of the benchmark: seeded input generators, the
// percentile rule, the open-loop request generator and the in-memory span
// recorder. Kept free of engine headers so harness_test.cc can check them in
// isolation.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process (the span time base).
int64_t NowMicros();

// ---------------------------------------------------------------------------
// Seeded generators. Only integer arithmetic from std::mt19937_64 plus our
// own transforms, so a seed yields the same inputs with every standard
// library (std::*_distribution output is implementation-defined).

class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t NextU64();
  /// Uniform in [0, 1).
  double Uniform();

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular) by inverse CDF.
class Zipf {
 public:
  Zipf(int64_t n, double exponent);
  int64_t Next(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from phase start) of a Poisson process with
/// `rate` arrivals per second over [0, duration_s), conditioned on its
/// expected count: exactly round(rate * duration_s) arrivals.
std::vector<double> PoissonSchedule(double rate, double duration_s, Rng* rng);

// ---------------------------------------------------------------------------
// Statistics.

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
/// ten of `n` samples beyond it (nearest-rank), capped at `wanted`; 0 when
/// not even the median has ten samples beyond it.
double SupportedPercentile(int64_t n, double wanted);

/// Nearest-rank percentile of `values` (sorted internally); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median plus the highest supported percentile up to `wanted`.
struct Summary {
  int64_t n = 0;
  double p50 = 0;
  double tail_percentile = 0;  ///< 0: too few samples for any tail
  double tail = 0;             ///< value at tail_percentile (p50 if none)
};
Summary Summarize(const std::vector<double>& values, double wanted);

// ---------------------------------------------------------------------------
// Open-loop generator.

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< completion - due time, per success
  std::vector<double> lag_ms;      ///< send - due time, per request
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Sends request i at `start + due_s[i]` from `threads` sender threads that
/// take requests in due order; `send(i, thread)` performs the request on
/// sender `thread` (0-based) and returns false on failure. Latency is measured from the due time, so a stall that
/// holds up every sender inflates the latency of the requests behind it.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int threads,
                           const std::function<bool(int64_t, int)>& send);

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t id = 0;
  int64_t parent = 0;      ///< 0 = root
  int64_t request = 0;     ///< request id shared by a request's spans
  int64_t thread = 0;
};

/// In-memory span collection. Off by default; a disabled ScopedSpan costs
/// one relaxed load.
namespace spans {
void SetEnabled(bool on);
bool Enabled();
/// Moves out every span recorded so far.
std::vector<Span> Drain();
/// Writes `spans` as a Chrome trace (chrome://tracing, Perfetto).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);
}  // namespace spans

/// Records one span around its scope on the current thread; nested scopes
/// become children and inherit the parent's request id unless given one.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Duration so far / at end (microseconds); valid also when disabled.
  int64_t ElapsedMicros() const { return NowMicros() - start_us_; }

 private:
  const char* name_;
  int64_t request_;
  int64_t start_us_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
};

/// Self time per span name: each span's duration minus the part of it that
/// its children cover.
std::map<std::string, int64_t> SelfMicros(const std::vector<Span>& spans);

/// Durations (microseconds) of the spans named `name`.
std::vector<double> DurationsMicros(const std::vector<Span>& spans,
                                    const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
