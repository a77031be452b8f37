// batch_modeljoin and batch_baselines: the paper's offline scoring (§6.1,
// Figures 8/9), split into the native ModelJoin approaches and the baselines
// they are compared with. One client drives a bare QueryEngine in a closed
// loop; every cycle runs each approach of the workload once, in a fixed
// order, over the paper's largest fact table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "benchlib/approaches.h"
#include "benchlib/workloads.h"
#include "common/memory_tracker.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "integration/external_client.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "sql/query_engine.h"

namespace perfbench {
namespace {

using indbml::MemoryTracker;
using indbml::Stopwatch;
using indbml::benchlib::Approach;
using indbml::benchlib::ApproachContext;

constexpr int64_t kFactRows = 500000;    // paper §6.1's largest fact table
constexpr int64_t kDenseWidth = 128;
constexpr int64_t kDenseDepth = 4;
constexpr int64_t kLstmWidth = 64;
constexpr int64_t kLstmSteps = 3;
constexpr int64_t kMlToSqlRows = 4000;   // ML-To-SQL reaches ~6K rows/s
constexpr int64_t kMlToSqlWidth = 32;
constexpr int64_t kMlToSqlDepth = 2;
/// Set-up rounds: untimed warm-ups, then timed ones for at least
/// kSetupRepeats rounds and kSetupBudgetS seconds before, and again after,
/// the window.
constexpr int kSetupWarmUps = 2;
constexpr int kSetupRepeats = 7;
constexpr double kSetupBudgetS = 1.0;
constexpr double kChecksumTolerance = 1e-4;  // paper §6.1

const std::vector<std::string> kIrisColumns = {"sepal_length", "sepal_width",
                                               "petal_length", "petal_width"};

enum Data { kDense = 0, kLstm = 1, kSmall = 2 };

struct Slot {
  const char* name;  ///< metric prefix
  Approach approach;
  Data data;
};

/// The approaches of one workload, in call order.
using Group = std::vector<Slot>;

const Group kModelJoinGroup = {{"modeljoin_cpu", Approach::kModelJoinCpu, kDense},
                               {"modeljoin_gpu", Approach::kModelJoinGpu, kDense},
                               {"lstm", Approach::kModelJoinCpu, kLstm}};
const Group kBaselineGroup = {{"capi_cpu", Approach::kCApiCpu, kDense},
                              {"udf", Approach::kUdf, kDense},
                              {"external_cpu", Approach::kExternalCpu, kDense},
                              {"mltosql", Approach::kMlToSql, kSmall}};

bool Uses(const Group& group, Data data) {
  return std::any_of(group.begin(), group.end(),
                     [&](const Slot& s) { return s.data == data; });
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "batch_approaches: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(indbml::Result<T> result, const char* what) {
  if (!result.ok()) Fatal(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

/// The engine with the (fact table, model) pairs of one group deployed.
struct Setup {
  std::unique_ptr<indbml::sql::QueryEngine> engine;
  std::vector<std::unique_ptr<indbml::nn::Model>> models;
  std::vector<ApproachContext> contexts = std::vector<ApproachContext>(3);  ///< by Data
  std::vector<int64_t> rows = {kFactRows, kFactRows, kMlToSqlRows};        ///< by Data
};

/// The paper's benchmark models use fixed weights: prediction runtime does
/// not depend on their values (§6.1), and ML-To-SQL's plan does, so
/// seed-dependent weights would only add variance. The workload seed
/// therefore changes nothing here; the serving workloads use it.
constexpr uint64_t kModelSeed = 42;

std::unique_ptr<Setup> BuildSetup(const Group& group) {
  using namespace indbml;
  auto s = std::make_unique<Setup>();
  s->engine = std::make_unique<sql::QueryEngine>();
  auto* catalog = s->engine->catalog();
  auto deploy = [&](Data data, Result<nn::Model> model, const char* name, const char* table,
                    const std::vector<std::string>& columns) {
    s->models.push_back(std::make_unique<nn::Model>(Must(std::move(model), name)));
    s->contexts[data] = Must(benchlib::PrepareApproachContext(
        s->engine.get(), s->models.back().get(), name, table, columns), name);
  };
  if (Uses(group, kDense)) {
    catalog->CreateOrReplaceTable(benchlib::MakeIrisTable("fact", kFactRows));
    deploy(kDense, nn::MakeDenseBenchmarkModel(kDenseWidth, kDenseDepth, kModelSeed), "dense",
           "fact", kIrisColumns);
  }
  if (Uses(group, kLstm)) {
    catalog->CreateOrReplaceTable(benchlib::MakeSinusTable("series", kFactRows, kLstmSteps));
    std::vector<std::string> columns;
    for (int64_t t = 0; t < kLstmSteps; ++t) {
      columns.push_back(StrFormat("x%lld", static_cast<long long>(t)));
    }
    deploy(kLstm, nn::MakeLstmBenchmarkModel(kLstmWidth, kLstmSteps, kModelSeed), "lstm",
           "series", columns);
  }
  if (Uses(group, kSmall)) {
    catalog->CreateOrReplaceTable(benchlib::MakeIrisTable("fact_small", kMlToSqlRows));
    deploy(kSmall, nn::MakeDenseBenchmarkModel(kMlToSqlWidth, kMlToSqlDepth, kModelSeed),
           "small", "fact_small", kIrisColumns);
  }
  return s;
}

/// One approach call as the user sees it.
struct Call {
  double seconds = 0;  ///< wall; modeled-adjusted for the simulated GPU
  int64_t rows = 0;
  double checksum = 0;
};

/// Per-layer accumulators of the traced half.
struct Layers {
  std::map<std::string, double> sum;
  std::map<std::string, int64_t> calls;
  void Add(const std::string& name, double v) { sum[name] += v; }
  double PerCall(const std::string& name, const std::string& slot) const {
    auto s = sum.find(name);
    auto c = calls.find(slot);
    return s == sum.end() || c == calls.end() ? 0 : SafeDiv(s->second, c->second);
  }
};

std::string ModelJoinSql(const ApproachContext& c) {
  std::string cols;
  for (const std::string& col : c.input_columns) cols += (cols.empty() ? "" : ", ") + col;
  return "SELECT " + c.id_column + ", prediction FROM " + c.fact_table + " MODEL JOIN " +
         c.model_table + " USING MODEL '" + c.model_name + "' DEVICE 'cpu' PREDICT (" +
         cols + ")";
}

/// PlanQuery + ExecutePlan called separately, each under its own span.
indbml::Result<indbml::exec::QueryResult> PlanAndExecute(indbml::sql::QueryEngine* engine,
                                                         const std::string& sql) {
  indbml::sql::LogicalOpPtr plan;
  {
    ScopedSpan span("sql.PlanQuery");
    INDBML_ASSIGN_OR_RETURN(plan, engine->PlanQuery(sql));
  }
  ScopedSpan span("sql.ExecutePlan");
  return engine->ExecutePlan(*plan);
}

/// Runs one slot. Untraced: benchlib::RunApproach, as a user of the
/// approach runners would. Traced: ModelJoin_CPU and ML-To-SQL go through
/// PlanQuery/ExecutePlan (and ML-To-SQL's generator) separately, and the
/// external baseline through RunExternalInference, so their phases and
/// transfer statistics are visible; every other slot and all registry
/// deltas are taken around the same RunApproach call.
indbml::Result<Call> RunSlot(const Slot& slot, Setup* setup, bool traced, Layers* layers) {
  using namespace indbml;
  const ApproachContext& ctx = setup->contexts[slot.data];
  Call call;
  RegistryDelta delta;
  if (traced && slot.approach == Approach::kModelJoinCpu && slot.data == kDense) {
    Stopwatch watch;
    INDBML_ASSIGN_OR_RETURN(auto result, PlanAndExecute(setup->engine.get(), ModelJoinSql(ctx)));
    call = {watch.ElapsedSeconds(), result.num_rows, PredictionChecksum(result)};
  } else if (traced && slot.approach == Approach::kMlToSql) {
    Stopwatch watch;
    mltosql::MlToSql framework(ctx.model, ctx.model_table);
    mltosql::FactTableInfo info;
    info.table = ctx.fact_table;
    info.id_column = ctx.id_column;
    info.input_columns = ctx.input_columns;
    std::string sql;
    {
      ScopedSpan span("mltosql.GenerateInferenceSql");
      INDBML_ASSIGN_OR_RETURN(sql, framework.GenerateInferenceSql(info));
      layers->Add("mltosql.generate_us", static_cast<double>(span.ElapsedMicros()));
    }
    INDBML_ASSIGN_OR_RETURN(auto result, PlanAndExecute(setup->engine.get(), sql));
    call = {watch.ElapsedSeconds(), result.num_rows, PredictionChecksum(result)};
  } else if (traced && slot.approach == Approach::kExternalCpu) {
    integration::TransferStats stats;
    Stopwatch watch;
    ScopedSpan span("integration.RunExternalInference");
    INDBML_ASSIGN_OR_RETURN(auto result, integration::RunExternalInference(
        setup->engine.get(), ctx.fact_table, ctx.id_column, ctx.input_columns,
        *ctx.model, "cpu", &stats));
    call = {watch.ElapsedSeconds(), result.num_rows, PredictionChecksum(result)};
    layers->Add("external.bytes", static_cast<double>(stats.bytes_to_client + stats.bytes_to_server));
    layers->Add("external.modeled_overhead_s", stats.modeled_overhead_seconds);
  } else {
    ScopedSpan span("benchlib.RunApproach");
    INDBML_ASSIGN_OR_RETURN(auto m, benchlib::RunApproach(slot.approach, ctx));
    // The interpreter/ODBC cost models stay out of the end-to-end time
    // (they are reported as layer metrics); the simulated GPU keeps its
    // modeled device time (DESIGN.md §2).
    call = {benchlib::IsGpuApproach(slot.approach) ? m.adjusted_seconds : m.wall_seconds,
            m.rows, m.prediction_checksum};
    if (slot.approach == Approach::kUdf) {
      layers->Add("udf.modeled_overhead_s", m.adjusted_seconds - m.wall_seconds);
    }
    if (slot.approach == Approach::kModelJoinGpu) {
      layers->Add("device.kernel_launches", static_cast<double>(m.gpu_stats.kernel_launches));
      layers->Add("device.transfers", static_cast<double>(m.gpu_stats.transfers));
      layers->Add("device.bytes_to_device", static_cast<double>(m.gpu_stats.bytes_to_device));
      layers->Add("device.modeled_s", m.gpu_stats.modeled_seconds);
      layers->Add("device.emulation_s", m.gpu_stats.real_seconds);
    }
  }
  delta.Stop();
  layers->calls[slot.name] += 1;
  layers->Add(std::string(slot.name) + ".rows", static_cast<double>(call.rows));
  for (const char* h : {"modeljoin.build_micros", "modeljoin.convert_micros",
                        "modeljoin.infer_micros", "capi.convert_micros", "capi.run_micros",
                        "udf.marshal_micros", "udf.run_micros"}) {
    layers->Add(std::string(slot.name) + "." + h,
                static_cast<double>(delta.Get(std::string(h) + ".sum")));
  }
  layers->Add(std::string(slot.name) + ".modeljoin.rows",
              static_cast<double>(delta.Get("modeljoin.rows")));
  layers->Add(std::string(slot.name) + ".udf.values_boxed",
              static_cast<double>(delta.Get("udf.values_boxed")));
  return call;
}

/// Reference checksums per table, computed once after set-up.
struct References {
  double checksum[3] = {0, 0, 0};
};

References ComputeReferences(const Group& group, Setup* setup) {
  using namespace indbml::benchlib;
  References refs;
  // ModelJoin_CPU is the reference approach (paper §6.1); the LSTM slot *is*
  // ModelJoin_CPU, so its reference comes from the C-API path instead.
  const Approach reference[3] = {Approach::kModelJoinCpu, Approach::kCApiCpu,
                                 Approach::kModelJoinCpu};
  for (Data data : {kDense, kLstm, kSmall}) {
    if (!Uses(group, data)) continue;
    refs.checksum[data] = Must(RunApproach(reference[data], setup->contexts[data]),
                               "reference checksum").prediction_checksum;
  }
  return refs;
}

struct Window {
  explicit Window(const Group& group) : seconds(group.size()) {}
  std::vector<std::vector<double>> seconds;  ///< by slot
  int64_t peak_bytes = 0;
  int cycles = 0;
  double wall_s = 0;
  Layers layers;
};

/// Runs whole cycles for about `seconds`: a cycle starts only when, at the
/// mean cycle time so far, it would end within the window. A slow host
/// therefore gets fewer cycles rather than a longer run. `between_cycles`,
/// when set, runs after each cycle.
Window RunWindow(const Group& group, Setup* setup, const References& refs, double seconds,
                 bool traced, Report* report,
                 const std::function<void()>& between_cycles = nullptr) {
  Window w(group);
  Stopwatch wall;
  while (w.cycles == 0 || wall.ElapsedSeconds() * (w.cycles + 1) / w.cycles <= seconds) {
    if (w.cycles > 0 && between_cycles) between_cycles();
    ScopedSpan cycle_span("batch.cycle");
    for (size_t i = 0; i < group.size(); ++i) {
      const Slot& slot = group[i];
      ++report->attempted;
      MemoryTracker::Global().ResetPeak();
      auto call = RunSlot(slot, setup, traced, &w.layers);
      w.peak_bytes = std::max(w.peak_bytes, MemoryTracker::Global().peak_bytes());
      ScopedSpan check("harness.check");
      if (!call.ok()) {
        report->Fail(std::string(slot.name) + ": " + call.status().ToString());
        continue;
      }
      const int64_t want_rows = setup->rows[slot.data];
      const double want_sum = refs.checksum[slot.data];
      if (call->rows != want_rows) {
        report->Fail(std::string(slot.name) + ": " + std::to_string(call->rows) +
                     " rows, expected " + std::to_string(want_rows));
      } else if (!Close(call->checksum, want_sum, kChecksumTolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s: checksum %.6f differs from ModelJoin_CPU %.6f",
                      slot.name, call->checksum, want_sum);
        report->Fail(buf);
      } else {
        w.seconds[i].push_back(call->seconds);
      }
    }
    ++w.cycles;
  }
  w.wall_s = wall.ElapsedSeconds();
  return w;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/// Rows/s of each slot: its table's rows over its median call time.
std::vector<double> SlotRowsPerSecond(const Group& group, const Window& w, const Setup& setup) {
  std::vector<double> out;
  for (size_t i = 0; i < group.size(); ++i) {
    out.push_back(SafeDiv(static_cast<double>(setup.rows[group[i].data]),
                          Median(w.seconds[i])));
  }
  return out;
}

/// The gated throughput: geometric mean of the per-slot rows/s, so every
/// approach of the workload weighs the same however long its calls take.
double GroupRowsPerSecond(const Group& group, const Window& w, const Setup& setup) {
  return GeoMean(SlotRowsPerSecond(group, w, setup));
}

void ReportEndToEnd(const Group& group, const Window& w, const Setup& setup, Report* report) {
  std::vector<double> medians_ms, max_ms;
  for (size_t i = 0; i < group.size(); ++i) {
    if (w.seconds[i].empty()) continue;
    medians_ms.push_back(Median(w.seconds[i]) * 1e3);
    max_ms.push_back(*std::max_element(w.seconds[i].begin(), w.seconds[i].end()) * 1e3);
  }
  report->Set("peak_tracked_mb", static_cast<double>(w.peak_bytes) / 1e6, "MB");
  report->Set("rows_per_s", GroupRowsPerSecond(group, w, setup), "rows/s");
  report->Set("latency_p50_ms", GeoMean(medians_ms), "ms");
  report->Set("latency_p99_ms", GeoMean(max_ms), "ms");
}

/// Per-slot rows/s of a window (median call time), under the slot's name.
void SlotThroughputs(const Group& group, const Window& w, const Setup& setup,
                     const std::function<void(const std::string&, double)>& emit) {
  const std::vector<double> rates = SlotRowsPerSecond(group, w, setup);
  for (size_t i = 0; i < group.size(); ++i) {
    emit(std::string(group[i].name) + ".rows_per_s", rates[i]);
  }
}

void ReportLayers(const Group& group, const Window& w, const Setup& setup,
                  const RegistryDelta& delta, const std::vector<Span>& spans,
                  double untraced_rows_per_s, Report* report) {
  const Layers& l = w.layers;
  auto per_call = [&](const char* slot, const char* metric) {
    return l.PerCall(std::string(slot) + "." + metric, slot);
  };
  // ModelJoin phases per ModelJoin query (CPU, GPU and LSTM slots).
  const char* mj_slots[] = {"modeljoin_cpu", "modeljoin_gpu", "lstm"};
  double build = 0, convert = 0, infer = 0, mj_rows_inferred = 0, mj_rows = 0, mj_calls = 0;
  for (const char* s : mj_slots) {
    auto sum = [&](const std::string& m) {
      auto it = l.sum.find(std::string(s) + "." + m);
      return it == l.sum.end() ? 0.0 : it->second;
    };
    build += sum("modeljoin.build_micros");
    convert += sum("modeljoin.convert_micros");
    infer += sum("modeljoin.infer_micros");
    mj_rows_inferred += sum("modeljoin.rows");
    mj_rows += sum("rows");
    auto c = l.calls.find(s);
    mj_calls += c == l.calls.end() ? 0 : static_cast<double>(c->second);
  }
  report->Set("modeljoin.build_us", SafeDiv(build, mj_calls), "us");
  report->Set("modeljoin.convert_us", SafeDiv(convert, mj_calls), "us");
  report->Set("modeljoin.infer_us", SafeDiv(infer, mj_calls), "us");
  report->Set("modeljoin.rows_inferred_per_row_returned", SafeDiv(mj_rows_inferred, mj_rows),
              "ratio");

  std::vector<double> plan = DurationsMicros(spans, "sql.PlanQuery");
  std::vector<double> execute = DurationsMicros(spans, "sql.ExecutePlan");
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return SafeDiv(s, static_cast<double>(v.size()));
  };
  report->Set("sql.plan_us", mean(plan), "us");
  report->Set("sql.execute_us", mean(execute), "us");
  report->Set("mltosql.generate_us", l.PerCall("mltosql.generate_us", "mltosql"), "us");

  report->Set("capi.convert_us", per_call("capi_cpu", "capi.convert_micros"), "us");
  report->Set("capi.run_us", per_call("capi_cpu", "capi.run_micros"), "us");
  report->Set("udf.marshal_us", per_call("udf", "udf.marshal_micros"), "us");
  report->Set("udf.run_us", per_call("udf", "udf.run_micros"), "us");
  report->Set("udf.values_boxed_per_row",
              SafeDiv(per_call("udf", "udf.values_boxed"), per_call("udf", "rows")), "count");
  report->Set("udf.modeled_overhead_s", l.PerCall("udf.modeled_overhead_s", "udf"), "s");
  report->Set("external.bytes_per_row",
              SafeDiv(l.PerCall("external.bytes", "external_cpu"),
                      per_call("external_cpu", "rows")), "B");
  report->Set("external.modeled_overhead_s",
              l.PerCall("external.modeled_overhead_s", "external_cpu"), "s");

  report->Set("device.kernel_launches", l.PerCall("device.kernel_launches", "modeljoin_gpu"),
              "count");
  report->Set("device.transfers", l.PerCall("device.transfers", "modeljoin_gpu"), "count");
  report->Set("device.bytes_to_device_per_row",
              SafeDiv(l.PerCall("device.bytes_to_device", "modeljoin_gpu"),
                      per_call("modeljoin_gpu", "rows")), "B");
  report->Set("device.modeled_s", l.PerCall("device.modeled_s", "modeljoin_gpu"), "s");
  report->Set("device.emulation_s", l.PerCall("device.emulation_s", "modeljoin_gpu"), "s");

  double rows = 0;
  for (const Slot& slot : group) {
    rows += static_cast<double>(setup.rows[slot.data]) * static_cast<double>(w.cycles);
  }
  const double queries = static_cast<double>(w.cycles) * static_cast<double>(group.size());
  report->Set("buffer.allocated_bytes_per_row",
              SafeDiv(static_cast<double>(delta.Get("buffer.allocated_bytes")), rows), "B");
  report->Set("vector.flattens", SafeDiv(static_cast<double>(delta.Get("vector.flattens")), queries),
              "count");
  report->Set("vector.cow_copies",
              SafeDiv(static_cast<double>(delta.Get("vector.cow_copies")), queries), "count");
  report->Set("exec.fused_scans",
              SafeDiv(static_cast<double>(delta.Get("exec.fused_scans")), queries), "count");
  report->Set("inference.rows_per_launch", delta.Ratio("inference.rows", "inference.runs"),
              "rows");

  report->Set("unattributed_frac",
              UnattributedFrac(spans, static_cast<int64_t>(w.wall_s * 1e6), {"batch.cycle"}),
              "ratio");
  report->Set("trace_overhead_frac",
              SafeDiv(untraced_rows_per_s, GroupRowsPerSecond(group, w, setup)) - 1, "ratio");
  SlotThroughputs(group, w, setup, [&](const std::string& name, double v) {
    report->Set(name, v, "rows/s");
  });
}

Report RunBatch(const RunOptions& options, const Group& group) {
  Report report;
  report.Param("fact_rows", std::to_string(kFactRows));
  if (Uses(group, kDense)) {
    report.Param("dense_model", "w=" + std::to_string(kDenseWidth) + " d=" +
                                    std::to_string(kDenseDepth));
  }
  if (Uses(group, kLstm)) {
    report.Param("lstm_model", "w=" + std::to_string(kLstmWidth) + " steps=" +
                                   std::to_string(kLstmSteps));
  }
  if (Uses(group, kSmall)) {
    report.Param("mltosql", std::to_string(kMlToSqlRows) + " rows, w=" +
                                std::to_string(kMlToSqlWidth) + " d=" +
                                std::to_string(kMlToSqlDepth));
  }
  std::string order;
  for (const Slot& slot : group) {
    if (!order.empty()) order += ' ';
    order += slot.name;
  }
  report.Param("order", order);
  report.Param("clients", "1 closed loop, bare QueryEngine");

  // The window uses the last set-up.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  auto tear_down = [&] { setup.reset(); };
  auto set_up = [&] { setup = BuildSetup(group); };
  TimeSetUps(kSetupWarmUps, kSetupRepeats, kSetupBudgetS, tear_down, set_up, &setup_s);
  const References refs = ComputeReferences(group, setup.get());

  if (!options.trace) {
    // One more timed set-up between cycles, of a spare that is dropped
    // before the next cycle, so the fastest round is drawn from the whole
    // run rather than from two seconds of it.
    std::unique_ptr<Setup> spare;
    auto between_cycles = [&] {
      TimeSetUps(0, 1, 0, [] {}, [&] { spare = BuildSetup(group); }, &setup_s);
      spare.reset();
    };
    Window w = RunWindow(group, setup.get(), refs, options.seconds, false, &report,
                         between_cycles);
    ReportEndToEnd(group, w, *setup, &report);
    report.Named("latency_p50_ms (geomean of per-approach medians)",
                 report.metrics["latency_p50_ms"].value, "ms");
    report.Named("latency_p99_ms (geomean of per-approach maxima)",
                 report.metrics["latency_p99_ms"].value, "ms");
    SlotThroughputs(group, w, *setup, [&](const std::string& name, double v) {
      report.Named(name, v, "rows/s");
    });
    report.Param("cycles", std::to_string(w.cycles));
  } else {
    // Half untraced, half traced: the pair gives the tracing overhead.
    Window plain = RunWindow(group, setup.get(), refs, options.seconds / 2, false, &report);
    spans::SetEnabled(true);
    RegistryDelta delta;
    Window traced = RunWindow(group, setup.get(), refs, options.seconds / 2, true, &report);
    delta.Stop();
    spans::SetEnabled(false);
    std::vector<Span> spans = spans::Drain();
    ReportEndToEnd(group, traced, *setup, &report);
    ReportLayers(group, traced, *setup, delta, spans,
                 GroupRowsPerSecond(group, plain, *setup), &report);
    WriteSpans(options, spans);
    report.Param("cycles", std::to_string(plain.cycles) + " untraced + " +
                               std::to_string(traced.cycles) + " traced");
  }
  TimeSetUps(0, kSetupRepeats, kSetupBudgetS, tear_down, set_up, &setup_s);
  report.Set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  report.Set("failed_frac", SafeDiv(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted)), "ratio");
  return report;
}

}  // namespace

Report RunBatchModelJoin(const RunOptions& options) { return RunBatch(options, kModelJoinGroup); }
Report RunBatchBaselines(const RunOptions& options) { return RunBatch(options, kBaselineGroup); }

}  // namespace perfbench
