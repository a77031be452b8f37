#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

int64_t NowMicros() {
  static const Clock::time_point base = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - base)
      .count();
}

// ---------------------------------------------------------------------------

Rng::Rng(uint64_t seed) : engine_(seed) {}

uint64_t Rng::NextU64() { return engine_(); }

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(int64_t n, double exponent) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0;
  for (int64_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int64_t Zipf::Next(Rng* rng) const {
  const double u = rng->Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return it - cdf_.begin();
}

std::vector<double> PoissonSchedule(double rate, double duration_s, Rng* rng) {
  // Given n arrivals in [0, T), a Poisson process places them as the order
  // statistics of n uniforms on [0, T); fixing n = rate * T keeps the sample
  // count (and so the supported tail percentile) the same for every seed.
  const auto n = static_cast<size_t>(std::llround(rate * duration_s));
  std::vector<double> due(n);
  for (double& t : due) t = rng->Uniform() * duration_s;
  std::sort(due.begin(), due.end());
  return due;
}

// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
int64_t NearestRank(int64_t n, double p) {
  const auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double SupportedPercentile(int64_t n, double wanted) {
  static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (double p : kLadder) {
    if (p > wanted || n <= 0) continue;
    if (n - NearestRank(n, p) >= 10) return p;
  }
  return 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  return values[static_cast<size_t>(NearestRank(n, p) - 1)];
}

Summary Summarize(const std::vector<double>& values, double wanted) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  s.p50 = Median(values);
  s.tail_percentile = SupportedPercentile(s.n, wanted);
  s.tail = s.tail_percentile > 0 ? Percentile(values, s.tail_percentile) : s.p50;
  return s;
}

// ---------------------------------------------------------------------------

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, int threads,
                           const std::function<bool(int64_t, int)>& send) {
  const int64_t total = static_cast<int64_t>(due_s.size());
  std::vector<double> latency(due_s.size(), -1), lag(due_s.size(), 0);
  std::atomic<int64_t> next{0};
  const Clock::time_point start = Clock::now();
  auto due_at = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[static_cast<size_t>(i)]));
  };
  auto ms_since = [](Clock::time_point from) {
    return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
  };
  auto sender = [&](int thread) {
    for (int64_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      const Clock::time_point due = due_at(i);
      {
        ScopedSpan idle("client.idle");
        std::this_thread::sleep_until(due);
      }
      lag[static_cast<size_t>(i)] = ms_since(due);
      if (send(i, thread)) latency[static_cast<size_t>(i)] = ms_since(due);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(sender, t);
  for (std::thread& t : pool) t.join();

  OpenLoopResult result;
  result.attempted = total;
  result.lag_ms = std::move(lag);
  for (double l : latency) {
    if (l < 0) {
      ++result.failed;
    } else {
      result.latency_ms.push_back(l);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------

namespace {

struct ThreadBuffer {
  std::mutex mu;
  std::vector<Span> spans;
  int64_t thread = 0;
};

struct SpanState {
  std::atomic<bool> enabled{false};
  std::atomic<int64_t> next_id{1};
  std::atomic<int64_t> next_thread{1};
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

SpanState& State() {
  static SpanState* state = new SpanState();  // never destroyed: threads may outlive main
  return *state;
}

ThreadBuffer* LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    SpanState& state = State();
    b->thread = state.next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(state.mu);
    state.buffers.push_back(b);
    return b;
  }();
  return buffer.get();
}

/// Open spans of this thread: (span id, request id).
thread_local std::vector<std::pair<int64_t, int64_t>> t_stack;

}  // namespace

namespace spans {

void SetEnabled(bool on) { State().enabled.store(on, std::memory_order_relaxed); }

bool Enabled() { return State().enabled.load(std::memory_order_relaxed); }

std::vector<Span> Drain() {
  SpanState& state = State();
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(state.mu);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (Span& s : buffer->spans) out.push_back(std::move(s));
    buffer->spans.clear();
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld}}",
                 first ? "" : ",", s.name.c_str(), static_cast<long long>(s.thread),
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us - s.start_us),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : name_(name), request_(request), start_us_(NowMicros()) {
  if (!spans::Enabled()) return;
  id_ = State().next_id.fetch_add(1, std::memory_order_relaxed);
  if (!t_stack.empty()) {
    parent_ = t_stack.back().first;
    if (request_ == 0) request_ = t_stack.back().second;
  }
  t_stack.emplace_back(id_, request_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  t_stack.pop_back();
  ThreadBuffer* buffer = LocalBuffer();
  Span span{name_, start_us_, NowMicros(), id_, parent_, request_, buffer->thread};
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(std::move(span));
}

std::map<std::string, int64_t> SelfMicros(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_us;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, s.end_us);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    self[s.name] += (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::vector<double> DurationsMicros(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_us - s.start_us));
  }
  return out;
}

}  // namespace perfbench
