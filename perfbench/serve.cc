// serve_point and serve_mixed: small scoring requests served through
// server::Session against one QueryServer, alone (serve_point) or next to
// an analytic scan and model redeploys (serve_mixed).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "benchlib/workloads.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "inference/cache.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "server/server.h"

namespace perfbench {
namespace {

using indbml::MemoryTracker;
using indbml::Stopwatch;
using indbml::exec::QueryResult;

constexpr int64_t kFactRows = 100000;
constexpr int64_t kRangeRows = 100;
constexpr int64_t kRanges = kFactRows / kRangeRows;
constexpr double kZipfExponent = 1.0;
constexpr int64_t kModelWidth = 32;
constexpr int64_t kModelDepth = 3;
/// Set-up rounds: untimed warm-ups, then timed ones for at least
/// kSetupRepeats rounds and kSetupBudgetS seconds before, and again after,
/// the window.
constexpr int kSetupWarmUps = 5;
constexpr int kSetupRepeats = 15;
constexpr double kSetupBudgetS = 1.0;
constexpr double kTolerance = 1e-4;
/// serve_point: share of the window given to the open loop (the rest is
/// the closed-loop capacity phase).
constexpr double kOpenLoopShare = 0.6;
/// Offered open-loop rates (requests/s): serve_point offers about half of
/// the closed-loop capacity measured on a 4-vCPU x86-64 host (95-150
/// requests/s); serve_mixed offers less, as the analytic session competes
/// for the same workers. Both give over 1,000 requests per 30 s window,
/// enough for a p99.
constexpr double kPointRate = 60;
constexpr double kMixedPointRate = 36;
constexpr int kRedeploysPerWindow = 3;

const char* const kPredict =
    "PREDICT (sepal_length, sepal_width, petal_length, petal_width)";

std::string PointSql(int64_t range) {
  const int64_t lo = range * kRangeRows;
  return std::string("SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense' "
                     "DEVICE 'cpu' ") +
         kPredict + " WHERE id >= " + std::to_string(lo) +
         " AND id <= " + std::to_string(lo + kRangeRows - 1);
}

const std::string kAnalyticSql =
    std::string("SELECT class, COUNT(*), AVG(prediction) FROM fact MODEL JOIN m USING "
                "MODEL 'dense' DEVICE 'cpu' ") +
    kPredict + " GROUP BY class";

/// Seed of model version `v` (0 = the initial deployment).
uint64_t VersionSeed(uint64_t seed, int v) { return seed * 1000003ULL + static_cast<uint64_t>(v); }

indbml::nn::Model MakeModel(uint64_t seed, int version) {
  auto model = indbml::nn::MakeDenseBenchmarkModel(kModelWidth, kModelDepth,
                                                   VersionSeed(seed, version));
  if (!model.ok()) {
    std::fprintf(stderr, "serve: model: %s\n", model.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(model).ValueOrDie();
}

indbml::Status Deploy(indbml::sql::QueryEngine* engine, const indbml::nn::Model& model,
                      const std::string& table, const std::string& name) {
  indbml::mltosql::MlToSql framework(&model, table);
  INDBML_RETURN_NOT_OK(framework.Deploy(engine));
  engine->models()->Register(indbml::nn::MetaOf(model, name));
  return indbml::Status::OK();
}

double NumberAt(const indbml::exec::Vector& v, int64_t row) {
  return v.type() == indbml::exec::DataType::kFloat ? v.GetFloatAt(row)
                                                    : static_cast<double>(v.GetInt64At(row));
}

/// (class, count, avg) rows of the analytic query, sorted by class.
std::vector<std::array<double, 3>> AnalyticRows(const QueryResult& result) {
  std::vector<std::array<double, 3>> rows;
  for (const auto& chunk : result.chunks) {
    for (int64_t r = 0; r < chunk.size; ++r) {
      rows.push_back({NumberAt(chunk.column(0), r), NumberAt(chunk.column(1), r),
                      NumberAt(chunk.column(2), r)});
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Draws request ranges: Zipf over popularity ranks, mapped to ranges
/// through a seeded permutation so the hot ranges differ per seed.
class RangeChooser {
 public:
  explicit RangeChooser(Rng* rng) : zipf_(kRanges, kZipfExponent), perm_(kRanges) {
    for (int64_t i = 0; i < kRanges; ++i) perm_[static_cast<size_t>(i)] = i;
    for (int64_t i = kRanges - 1; i > 0; --i) {
      std::swap(perm_[static_cast<size_t>(i)],
                perm_[static_cast<size_t>(rng->NextU64() % static_cast<uint64_t>(i + 1))]);
    }
  }
  int64_t Next(Rng* rng) const { return perm_[static_cast<size_t>(zipf_.Next(rng))]; }

 private:
  Zipf zipf_;
  std::vector<int64_t> perm_;
};

/// Open-loop latency as the end-to-end metrics; the untraced run also
/// prints it by name with the percentile and sample count actually used.
void ReportOpenLoop(const OpenLoopResult& open, bool traced, Report* report) {
  const Summary latency = Summarize(open.latency_ms, 99);
  report->Set("peak_tracked_mb",
              static_cast<double>(MemoryTracker::Global().peak_bytes()) / 1e6, "MB");
  report->Set("latency_p50_ms", latency.p50, "ms");
  report->Set("latency_p99_ms", latency.tail, "ms");
  if (traced) return;
  report->Named("latency_p50_ms", latency.p50, "ms");
  report->Named("latency_p" + FormatNumber(latency.tail_percentile) + "_ms (n=" +
                    std::to_string(latency.n) + ")",
                latency.tail, "ms");
  report->Named("client.lag_ms.p99", Summarize(open.lag_ms, 99).tail, "ms");
}

/// A completed served request, kept for checking after the window.
struct PointRecord {
  int64_t range = 0;
  int v_lo = 0;  ///< last redeploy completed before Submit
  int v_hi = 0;  ///< last redeploy started before Wait returned
  std::vector<std::pair<int64_t, float>> rows;
};

struct AnalyticRecord {
  int v_lo = 0, v_hi = 0;
  std::vector<std::array<double, 3>> rows;
};

/// The served system plus everything the clients share.
class ServeBench {
 public:
  ServeBench(const RunOptions& options, bool mixed) : options_(options), mixed_(mixed) {}

  /// Drops the server and the process-wide model and inference caches.
  void TearDown() {
    server_.reset();
    indbml::modeljoin::SharedModelRegistry::Global().Clear();
    indbml::inference::InferenceCache::Global().Clear();
  }

  /// Builds server, table and model. Repeated by the caller after
  /// TearDown().
  void SetUp() {
    using namespace indbml;
    server::QueryServer::Options o;
    o.worker_threads = options_.nproc;
    server_ = std::make_unique<server::QueryServer>(o);
    modeljoin::RegisterNativeModelJoin(server_->engine());
    table_ = benchlib::MakeIrisTable("fact", kFactRows);
    server_->catalog()->CreateOrReplaceTable(table_);
    models_.clear();
    models_.push_back(std::make_unique<nn::Model>(MakeModel(options_.seed, 0)));
    Check(Deploy(server_->engine(), *models_[0], "m", "dense"), "deploy");
    started_ = completed_ = 0;
  }

  /// Runs each query shape once, so the window starts with a built model.
  void WarmUp() {
    auto session = server_->CreateSession();
    Check(session->ExecuteQuery(PointSql(0)).status(), "warm-up point query");
    if (mixed_) Check(session->ExecuteQuery(kAnalyticSql).status(), "warm-up analytic query");
  }

  /// serve_point window: open loop, then closed-loop capacity.
  void PointWindow(double seconds, bool traced, Report* report, Rng* rng);
  /// serve_mixed window: open-loop points + analytic session + redeploys.
  void MixedWindow(double seconds, bool traced, Report* report, Rng* rng);
  /// Checks every recorded result against the bare-engine reference.
  void Verify(Report* report);

  double rows_per_s() const { return rows_per_s_; }

 private:
  static void Check(const indbml::Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "serve: %s: %s\n", what, status.ToString().c_str());
    std::exit(2);
  }

  /// One served range request under a span named `kind`.
  bool Point(indbml::server::Session* session, int64_t range, const char* kind);
  bool Analytic(indbml::server::Session* session);
  /// Submit + Wait, each under its own span; a failure is recorded.
  std::optional<QueryResult> Execute(indbml::server::Session* session, const std::string& sql,
                                     const char* what);
  void Redeploy();
  void Error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    errors_.push_back(what);
  }
  /// Window start: drops old records, resets peak and queue-depth gauges.
  void BeginWindow();
  void LayerMetrics(const RegistryDelta& delta, const std::vector<Span>& spans,
                    int64_t client_wall_us, const std::vector<double>& lag_ms,
                    Report* report);

  const std::vector<std::pair<int64_t, float>>& PointReference(int64_t range, int v);
  const std::vector<std::array<double, 3>>& AnalyticReference(int v);
  void DeployReference(int v);

  RunOptions options_;
  bool mixed_;
  std::unique_ptr<indbml::server::QueryServer> server_;
  indbml::storage::TablePtr table_;
  std::vector<std::unique_ptr<indbml::nn::Model>> models_;  ///< by version
  std::atomic<int> started_{0};
  std::atomic<int> completed_{0};

  std::mutex mu_;
  std::vector<PointRecord> points_;
  std::vector<AnalyticRecord> analytics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;

  double rows_per_s_ = 0;
  int64_t point_rows_ = 0;     ///< rows returned to point requests
  int64_t analytic_rows_ = 0;  ///< rows the analytic session aggregated
  std::vector<double> analytic_rates_;  ///< scored rows/s of each analytic query
  int64_t queries_ = 0;

  std::unique_ptr<indbml::sql::QueryEngine> reference_;
  std::vector<bool> reference_deployed_;
  std::map<std::pair<int64_t, int>, std::vector<std::pair<int64_t, float>>> point_refs_;
  std::map<int, std::vector<std::array<double, 3>>> analytic_refs_;
};

std::optional<QueryResult> ServeBench::Execute(indbml::server::Session* session,
                                               const std::string& sql, const char* what) {
  std::shared_ptr<indbml::server::QueryHandle> handle;
  {
    ScopedSpan span("server.Submit");
    auto submitted = session->Submit(sql);
    if (!submitted.ok()) {
      Error(std::string(what) + " submit: " + submitted.status().ToString());
      return std::nullopt;
    }
    handle = std::move(submitted).ValueOrDie();
  }
  ScopedSpan span("server.Wait");
  auto result = handle->Wait();
  if (!result.ok()) {
    Error(std::string(what) + ": " + result.status().ToString());
    return std::nullopt;
  }
  return std::move(result).ValueOrDie();
}

bool ServeBench::Point(indbml::server::Session* session, int64_t range, const char* kind) {
  ScopedSpan request(kind);
  const int v_lo = completed_.load();
  auto result = Execute(session, PointSql(range), "point");
  if (!result) return false;
  ScopedSpan record("harness.record");
  PointRecord rec{range, v_lo, started_.load(), IdPredictions(*result)};
  std::lock_guard<std::mutex> lock(mu_);
  point_rows_ += static_cast<int64_t>(rec.rows.size());
  ++queries_;
  points_.push_back(std::move(rec));
  return true;
}

bool ServeBench::Analytic(indbml::server::Session* session) {
  ScopedSpan request("serve.analytic");
  const int v_lo = completed_.load();
  Stopwatch watch;
  auto result = Execute(session, kAnalyticSql, "analytic");
  const double elapsed = watch.ElapsedSeconds();
  if (!result) return false;
  ScopedSpan record("harness.record");
  AnalyticRecord rec{v_lo, started_.load(), AnalyticRows(*result)};
  int64_t scored = 0;
  for (const auto& row : rec.rows) scored += static_cast<int64_t>(row[1]);
  std::lock_guard<std::mutex> lock(mu_);
  analytic_rows_ += scored;
  analytic_rates_.push_back(static_cast<double>(scored) / elapsed);
  ++queries_;
  analytics_.push_back(std::move(rec));
  return true;
}

void ServeBench::Redeploy() {
  ScopedSpan request("serve.redeploy");
  const int v = static_cast<int>(models_.size()) - 1;  // prepared by the caller
  started_.store(v);
  {
    ScopedSpan span("mltosql.Deploy");
    indbml::Status status = Deploy(server_->engine(), *models_[static_cast<size_t>(v)], "m",
                                   "dense");
    if (!status.ok()) Error("redeploy: " + status.ToString());
  }
  completed_.store(v);
}

void ServeBench::BeginWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  point_rows_ = analytic_rows_ = queries_ = 0;
  analytic_rates_.clear();
  MemoryTracker::Global().ResetPeak();
  indbml::metrics::Registry::Global().gauge("server.queue_depth")->Reset();
}

void ServeBench::PointWindow(double seconds, bool traced, Report* report, Rng* rng) {
  const RangeChooser chooser(rng);
  const double open_s = seconds * kOpenLoopShare;
  const std::vector<double> due = PoissonSchedule(kPointRate, open_s, rng);
  std::vector<int64_t> ranges;
  for (size_t i = 0; i < due.size(); ++i) ranges.push_back(chooser.Next(rng));
  std::vector<uint64_t> closed_seeds;
  for (int t = 0; t < options_.nproc; ++t) closed_seeds.push_back(rng->NextU64());

  std::vector<std::unique_ptr<indbml::server::Session>> sessions;
  for (int t = 0; t < options_.nproc; ++t) sessions.push_back(server_->CreateSession());

  if (traced) spans::SetEnabled(true);
  BeginWindow();
  RegistryDelta delta;
  Stopwatch open_watch;
  OpenLoopResult open = RunOpenLoop(due, options_.nproc, [&](int64_t i, int thread) {
    return Point(sessions[static_cast<size_t>(thread)].get(), ranges[static_cast<size_t>(i)],
                 "serve.point");
  });
  const double open_wall = open_watch.ElapsedSeconds();

  // Closed loop: every session sends its next request when the last returns.
  std::atomic<int64_t> completed{0}, closed_attempted{0};
  Stopwatch closed_watch;
  const double closed_s = seconds - open_s;
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < options_.nproc; ++t) {
      clients.emplace_back([&, t] {
        Rng local(closed_seeds[static_cast<size_t>(t)]);
        while (closed_watch.ElapsedSeconds() < closed_s) {
          ++closed_attempted;
          if (Point(sessions[static_cast<size_t>(t)].get(), chooser.Next(&local),
                    "serve.capacity")) {
            ++completed;
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  const double closed_wall = closed_watch.ElapsedSeconds();
  delta.Stop();
  spans::SetEnabled(false);

  const double capacity = SafeDiv(static_cast<double>(completed.load()), closed_wall);
  rows_per_s_ = capacity * kRangeRows;
  attempted_ += open.attempted + closed_attempted.load();
  ReportOpenLoop(open, traced, report);
  report->Set("rows_per_s", rows_per_s_, "rows/s");
  report->Set("capacity_qps", capacity, "1/s");
  if (!traced) {
    report->Named("capacity_qps", capacity, "1/s");
  } else {
    std::vector<Span> spans = spans::Drain();
    const int64_t wall_us =
        static_cast<int64_t>((open_wall + closed_wall) * 1e6) * options_.nproc;
    LayerMetrics(delta, spans, wall_us, open.lag_ms, report);
    WriteSpans(options_, spans);
  }
}

void ServeBench::MixedWindow(double seconds, bool traced, Report* report, Rng* rng) {
  const RangeChooser chooser(rng);
  const std::vector<double> due = PoissonSchedule(kMixedPointRate, seconds, rng);
  std::vector<int64_t> ranges;
  for (size_t i = 0; i < due.size(); ++i) ranges.push_back(chooser.Next(rng));
  // Point senders + the analytic session + the redeploy client = nproc.
  const int senders = std::max(1, options_.nproc - 2);
  std::vector<std::unique_ptr<indbml::server::Session>> sessions;
  for (int t = 0; t < senders; ++t) sessions.push_back(server_->CreateSession());
  auto analytic_session = server_->CreateSession();
  // New model versions are built before the window (client-side work).
  const int first_new = static_cast<int>(models_.size());
  std::vector<std::unique_ptr<indbml::nn::Model>> pending;
  for (int j = 0; j < kRedeploysPerWindow; ++j) {
    pending.push_back(std::make_unique<indbml::nn::Model>(MakeModel(options_.seed, first_new + j)));
  }

  if (traced) spans::SetEnabled(true);
  BeginWindow();
  RegistryDelta delta;
  Stopwatch watch;
  std::atomic<bool> stop{false};
  int64_t analytic_attempted = 0;
  std::thread analytic([&] {
    while (!stop.load()) {
      ++analytic_attempted;
      Analytic(analytic_session.get());
    }
  });
  std::thread redeployer([&] {
    for (int j = 0; j < kRedeploysPerWindow; ++j) {
      const double at = seconds * (j + 1) / (kRedeploysPerWindow + 1);
      {
        ScopedSpan idle("client.idle");
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, at - watch.ElapsedSeconds())));
      }
      models_.push_back(std::move(pending[static_cast<size_t>(j)]));
      Redeploy();
    }
    ScopedSpan idle("client.idle");
    while (!stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  OpenLoopResult open = RunOpenLoop(due, senders, [&](int64_t i, int thread) {
    return Point(sessions[static_cast<size_t>(thread)].get(), ranges[static_cast<size_t>(i)],
                 "serve.point");
  });
  stop.store(true);
  redeployer.join();
  analytic.join();
  const double wall = watch.ElapsedSeconds();
  delta.Stop();
  spans::SetEnabled(false);

  // Analytic queries run at two speeds: alone (about 14M rows/s on a 4-vCPU
  // x86-64 host) or about 40% slower while point requests hold workers.
  // The share of slow ones follows the host's speed, so rows over wall time
  // and even the median swing with the host's load; the 75th percentile
  // lies in the fast mode and measures the scan itself. The contended
  // figure is reported as analytic_rows_per_s.
  rows_per_s_ = Percentile(analytic_rates_, 75);
  const double analytic_rows_per_s = SafeDiv(static_cast<double>(analytic_rows_), wall);
  attempted_ += open.attempted + analytic_attempted;
  ReportOpenLoop(open, traced, report);
  report->Set("rows_per_s", rows_per_s_, "rows/s");
  report->Set("analytic_rows_per_s", analytic_rows_per_s, "rows/s");
  if (!traced) {
    report->Named("analytic_rows_per_s", analytic_rows_per_s, "rows/s");
    const std::string n = " (n=" + std::to_string(analytic_rates_.size()) + ")";
    report->Named("analytic_query_rows_per_s.p25" + n, Percentile(analytic_rates_, 25), "rows/s");
    report->Named("analytic_query_rows_per_s.p50" + n, Median(analytic_rates_), "rows/s");
    report->Named("analytic_query_rows_per_s.p75" + n, rows_per_s_, "rows/s");
  } else {
    std::vector<Span> spans = spans::Drain();
    const int64_t wall_us = static_cast<int64_t>(wall * 1e6) * (senders + 2);
    LayerMetrics(delta, spans, wall_us, open.lag_ms, report);
    WriteSpans(options_, spans);
  }
}

void ServeBench::LayerMetrics(const RegistryDelta& delta, const std::vector<Span>& spans,
                              int64_t client_wall_us, const std::vector<double>& lag_ms,
                              Report* report) {
  auto count = [&](const char* name) { return static_cast<double>(delta.Get(name)); };
  const double queries = static_cast<double>(queries_);
  const double useful_rows = static_cast<double>(point_rows_ + analytic_rows_);
  report->Set("server.submit_us.p50",
              Median(ChildDurationsMicros(spans, "server.Submit", "serve.point")), "us");
  report->Set("server.wait_us.p50",
              Median(ChildDurationsMicros(spans, "server.Wait", "serve.point")), "us");
  report->Set("server.plan_cache_hit_ratio",
              SafeDiv(count("server.plan_cache_hits"),
                      count("server.plan_cache_hits") + count("server.plan_cache_misses")),
              "ratio");
  report->Set("server.admission_rejects", count("server.admission_rejects"), "count");
  report->Set("server.queue_depth_max",
              static_cast<double>(
                  indbml::metrics::Registry::Global().gauge("server.queue_depth")->max()),
              "count");
  report->Set("client.lag_ms.p99", Summarize(lag_ms, 99).tail, "ms");
  report->Set("modeljoin.build_us", SafeDiv(count("modeljoin.build_micros.sum"), queries), "us");
  report->Set("modeljoin.convert_us", SafeDiv(count("modeljoin.convert_micros.sum"), queries),
              "us");
  report->Set("modeljoin.infer_us", SafeDiv(count("modeljoin.infer_micros.sum"), queries), "us");
  report->Set("modeljoin.rows_inferred_per_row_returned",
              SafeDiv(count("modeljoin.rows"), useful_rows), "ratio");
  report->Set("inference.cache_hit_ratio",
              SafeDiv(count("inference.cache_hits"),
                      count("inference.cache_hits") + count("inference.cache_misses")),
              "ratio");
  report->Set("inference.batch_wait_us",
              delta.Ratio("inference.batch_wait_micros.sum", "inference.batch_wait_micros.count"),
              "us");
  report->Set("inference.rows_per_launch", delta.Ratio("inference.rows", "inference.runs"),
              "rows");
  report->Set("modeljoin.registry_builds", count("modeljoin.registry_builds"), "count");
  report->Set("buffer.allocated_bytes_per_row",
              SafeDiv(count("buffer.allocated_bytes"), useful_rows), "B");
  report->Set("vector.flattens", SafeDiv(count("vector.flattens"), queries), "count");
  report->Set("vector.cow_copies", SafeDiv(count("vector.cow_copies"), queries), "count");
  report->Set("exec.fused_scans", SafeDiv(count("exec.fused_scans"), queries), "count");
  report->Set("unattributed_frac",
              UnattributedFrac(spans, client_wall_us,
                               {"serve.point", "serve.capacity", "serve.analytic", "serve.redeploy"}),
              "ratio");
}

void ServeBench::DeployReference(int v) {
  if (reference_ == nullptr) {
    reference_ = std::make_unique<indbml::sql::QueryEngine>();
    indbml::modeljoin::RegisterNativeModelJoin(reference_.get());
    reference_->catalog()->CreateOrReplaceTable(table_);
  }
  if (static_cast<int>(reference_deployed_.size()) <= v) reference_deployed_.resize(v + 1);
  if (reference_deployed_[static_cast<size_t>(v)]) return;
  const std::string tag = std::to_string(v);
  Check(Deploy(reference_.get(), *models_[static_cast<size_t>(v)], "m_v" + tag, "dense_v" + tag),
        "reference deploy");
  reference_deployed_[static_cast<size_t>(v)] = true;
}

const std::vector<std::pair<int64_t, float>>& ServeBench::PointReference(int64_t range, int v) {
  auto key = std::make_pair(range, v);
  auto it = point_refs_.find(key);
  if (it != point_refs_.end()) return it->second;
  DeployReference(v);
  // Bare engine, filter in a subquery below the ModelJoin: a plan shape the
  // served query does not use.
  const int64_t lo = range * kRangeRows;
  const std::string tag = std::to_string(v);
  const std::string sql =
      "SELECT id, prediction FROM (SELECT id, sepal_length, sepal_width, petal_length, "
      "petal_width FROM fact WHERE id >= " + std::to_string(lo) + " AND id <= " +
      std::to_string(lo + kRangeRows - 1) + ") f MODEL JOIN m_v" + tag +
      " USING MODEL 'dense_v" + tag + "' DEVICE 'cpu' " + kPredict;
  auto result = reference_->ExecuteQuery(sql);
  Check(result.status(), "reference point query");
  return point_refs_[key] = IdPredictions(result.ValueOrDie());
}

const std::vector<std::array<double, 3>>& ServeBench::AnalyticReference(int v) {
  auto it = analytic_refs_.find(v);
  if (it != analytic_refs_.end()) return it->second;
  DeployReference(v);
  const std::string tag = std::to_string(v);
  std::string sql = kAnalyticSql;
  sql.replace(sql.find("JOIN m USING MODEL 'dense'"), 26,
              "JOIN m_v" + tag + " USING MODEL 'dense_v" + tag + "'");
  auto result = reference_->ExecuteQuery(sql);
  Check(result.status(), "reference analytic query");
  return analytic_refs_[v] = AnalyticRows(result.ValueOrDie());
}

bool SamePoints(const std::vector<std::pair<int64_t, float>>& got,
                const std::vector<std::pair<int64_t, float>>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first || !Close(got[i].second, want[i].second, kTolerance)) {
      return false;
    }
  }
  return true;
}

bool SameAnalytic(const std::vector<std::array<double, 3>>& got,
                  const std::vector<std::array<double, 3>>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i][0] != want[i][0] || got[i][1] != want[i][1] ||
        !Close(got[i][2], want[i][2], kTolerance)) {
      return false;
    }
  }
  return true;
}

void ServeBench::Verify(Report* report) {
  report->attempted += attempted_;
  for (const std::string& e : errors_) report->Fail(e);
  // A request must match a model version that was live while it ran: the
  // last one deployed before it was submitted, or one deployed during it.
  // Requests submitted after a redeploy completed therefore must see it.
  for (const PointRecord& rec : points_) {
    bool ok = false;
    for (int v = rec.v_lo; v <= rec.v_hi && !ok; ++v) {
      ok = rec.rows.size() == static_cast<size_t>(kRangeRows) &&
           SamePoints(rec.rows, PointReference(rec.range, v));
    }
    if (!ok) {
      report->Fail("range " + std::to_string(rec.range) + " (" +
                   std::to_string(rec.rows.size()) + " rows) matches no model version in [" +
                   std::to_string(rec.v_lo) + ", " + std::to_string(rec.v_hi) + "]");
    }
  }
  for (const AnalyticRecord& rec : analytics_) {
    bool ok = false;
    for (int v = rec.v_lo; v <= rec.v_hi && !ok; ++v) {
      ok = SameAnalytic(rec.rows, AnalyticReference(v));
    }
    if (!ok) {
      report->Fail("analytic result matches no model version in [" + std::to_string(rec.v_lo) +
                   ", " + std::to_string(rec.v_hi) + "]");
    }
  }
  points_.clear();
  analytics_.clear();
  errors_.clear();
  attempted_ = 0;
}

Report RunServe(const RunOptions& options, bool mixed) {
  Report report;
  report.Param("fact_rows", std::to_string(kFactRows));
  report.Param("model", "dense w=" + std::to_string(kModelWidth) + " d=" +
                            std::to_string(kModelDepth));
  report.Param("request", "one " + std::to_string(kRangeRows) + "-id range of " +
                              std::to_string(kRanges) + ", Zipf s=" +
                              FormatNumber(kZipfExponent));
  report.Param("server", "QueryServer defaults, worker_threads=" + std::to_string(options.nproc));
  if (mixed) {
    report.Param("open_loop", FormatNumber(kMixedPointRate) + " req/s Poisson, " +
                                  std::to_string(std::max(1, options.nproc - 2)) + " senders");
    report.Param("analytic", "1 closed-loop session, GROUP BY class over the full table");
    report.Param("redeploys", std::to_string(kRedeploysPerWindow) + " per window, evenly spaced");
  } else {
    report.Param("open_loop", FormatNumber(kPointRate) + " req/s Poisson, " +
                                  std::to_string(options.nproc) + " senders, " +
                                  FormatNumber(kOpenLoopShare * 100) + "% of the window");
    report.Param("closed_loop", std::to_string(options.nproc) + " sessions");
  }

  ServeBench bench(options, mixed);
  // Teardown of the previous set-up and the warm-up queries stay outside
  // the timing; the window uses the last set-up.
  std::vector<double> setup_s;
  auto tear_down = [&] { bench.TearDown(); };
  auto set_up = [&] { bench.SetUp(); };
  TimeSetUps(kSetupWarmUps, kSetupRepeats, kSetupBudgetS, tear_down, set_up, &setup_s);
  bench.WarmUp();

  // Every window draws the same seeded schedule.
  auto window = [&](double seconds, bool traced) {
    Rng rng(options.seed);
    if (mixed) {
      bench.MixedWindow(seconds, traced, &report, &rng);
    } else {
      bench.PointWindow(seconds, traced, &report, &rng);
    }
    bench.Verify(&report);
  };
  if (!options.trace) {
    window(options.seconds, false);
  } else {
    // Half untraced, half traced, each from a fresh set-up: the pair gives
    // the tracing overhead.
    window(options.seconds / 2, false);
    const double untraced = bench.rows_per_s();
    bench.TearDown();
    bench.SetUp();
    bench.WarmUp();
    window(options.seconds / 2, true);
    report.Set("trace_overhead_frac", SafeDiv(untraced, bench.rows_per_s()) - 1, "ratio");
  }
  TimeSetUps(0, kSetupRepeats, kSetupBudgetS, tear_down, set_up, &setup_s);
  report.Set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  report.Set("failed_frac", SafeDiv(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted)), "ratio");
  return report;
}

}  // namespace

Report RunServePoint(const RunOptions& options) { return RunServe(options, false); }
Report RunServeMixed(const RunOptions& options) { return RunServe(options, true); }

}  // namespace perfbench
