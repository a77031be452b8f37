#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/metrics.h"
#include "common/stopwatch.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  ++failed;
  errors.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"peak_tracked_mb", "MB"},
      {"rows_per_s", "rows/s"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // server
      {"server.submit_us.p50", "us"},
      {"server.wait_us.p50", "us"},
      {"server.plan_cache_hit_ratio", "ratio"},
      {"server.admission_rejects", "count"},
      {"server.queue_depth_max", "count"},
      {"client.lag_ms.p99", "ms"},
      // sql, mltosql
      {"sql.plan_us", "us"},
      {"sql.execute_us", "us"},
      {"mltosql.generate_us", "us"},
      // modeljoin, inference
      {"modeljoin.build_us", "us"},
      {"modeljoin.convert_us", "us"},
      {"modeljoin.infer_us", "us"},
      {"modeljoin.rows_inferred_per_row_returned", "ratio"},
      {"inference.cache_hit_ratio", "ratio"},
      {"inference.batch_wait_us", "us"},
      {"inference.rows_per_launch", "rows"},
      {"modeljoin.registry_builds", "count"},
      // integration, mlruntime
      {"capi.convert_us", "us"},
      {"capi.run_us", "us"},
      {"udf.marshal_us", "us"},
      {"udf.run_us", "us"},
      {"udf.values_boxed_per_row", "count"},
      {"external.bytes_per_row", "B"},
      {"udf.modeled_overhead_s", "s"},
      {"external.modeled_overhead_s", "s"},
      // device
      {"device.kernel_launches", "count"},
      {"device.transfers", "count"},
      {"device.bytes_to_device_per_row", "B"},
      {"device.modeled_s", "s"},
      {"device.emulation_s", "s"},
      // exec, common
      {"buffer.allocated_bytes_per_row", "B"},
      {"vector.flattens", "count"},
      {"vector.cow_copies", "count"},
      {"exec.fused_scans", "count"},
      // harness
      {"unattributed_frac", "ratio"},
      {"trace_overhead_frac", "ratio"},
      // user-visible figures too unsteady on a shared host to gate on, and
      // the workload-specific end-to-end figures, as measured in the traced run
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"modeljoin_cpu.rows_per_s", "rows/s"},
      {"modeljoin_gpu.rows_per_s", "rows/s"},
      {"capi_cpu.rows_per_s", "rows/s"},
      {"udf.rows_per_s", "rows/s"},
      {"external_cpu.rows_per_s", "rows/s"},
      {"mltosql.rows_per_s", "rows/s"},
      {"lstm.rows_per_s", "rows/s"},
      {"capacity_qps", "1/s"},
      {"analytic_rows_per_s", "rows/s"},
      {"failed_frac", "ratio"},
  };
  return kMetrics;
}

RegistryDelta::RegistryDelta()
    : start_(indbml::metrics::Registry::Global().FlatValues()) {}

void RegistryDelta::Stop() { end_ = indbml::metrics::Registry::Global().FlatValues(); }

int64_t RegistryDelta::Get(const std::string& name) const {
  auto value = [&](const std::map<std::string, int64_t>& m) -> int64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return value(end_) - value(start_);
}

double RegistryDelta::Ratio(const std::string& a, const std::string& b) const {
  return SafeDiv(static_cast<double>(Get(a)), static_cast<double>(Get(b)));
}

double SafeDiv(double a, double b) { return b == 0 ? 0 : a / b; }

void TimeSetUps(int warm_ups, int repeats, double budget_s,
                const std::function<void()>& tear_down, const std::function<void()>& set_up,
                std::vector<double>* seconds) {
  for (int i = 0; i < warm_ups; ++i) {
    tear_down();
    set_up();
  }
  indbml::Stopwatch budget;
  for (int i = 0; i < repeats || budget.ElapsedSeconds() < budget_s; ++i) {
    tear_down();
    indbml::Stopwatch watch;
    set_up();
    seconds->push_back(watch.ElapsedSeconds());
  }
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double PredictionChecksum(const indbml::exec::QueryResult& result) {
  double sum = 0;
  for (size_t c = 0; c < result.names.size(); ++c) {
    if (result.names[c].rfind("prediction", 0) != 0) continue;
    for (const indbml::exec::DataChunk& chunk : result.chunks) {
      const indbml::exec::Vector& col = chunk.column(static_cast<int64_t>(c));
      for (int64_t r = 0; r < col.size(); ++r) sum += col.GetFloatAt(r);
    }
  }
  return sum;
}

std::vector<std::pair<int64_t, float>> IdPredictions(
    const indbml::exec::QueryResult& result) {
  std::vector<std::pair<int64_t, float>> out;
  auto id = result.ColumnIndex("id");
  auto prediction = result.ColumnIndex("prediction");
  if (!id.ok() || !prediction.ok()) return out;
  out.reserve(static_cast<size_t>(result.num_rows));
  for (const indbml::exec::DataChunk& chunk : result.chunks) {
    const indbml::exec::Vector& ids = chunk.column(id.ValueOrDie());
    const indbml::exec::Vector& preds = chunk.column(prediction.ValueOrDie());
    for (int64_t r = 0; r < ids.size(); ++r) {
      out.emplace_back(ids.GetInt64At(r), preds.GetFloatAt(r));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Close(double a, double b, double tol, double floor) {
  return std::fabs(a - b) <= tol * std::max({std::fabs(a), std::fabs(b), floor});
}

std::vector<double> ChildDurationsMicros(const std::vector<Span>& spans,
                                         const std::string& name,
                                         const std::string& parent) {
  std::unordered_map<int64_t, const std::string*> names;
  for (const Span& s : spans) names[s.id] = &s.name;
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    auto it = names.find(s.parent);
    if (it != names.end() && *it->second == parent) {
      out.push_back(static_cast<double>(s.end_us - s.start_us));
    }
  }
  return out;
}

double UnattributedFrac(const std::vector<Span>& spans, int64_t wall_us,
                        const std::vector<std::string>& grouping) {
  int64_t attributed = 0;
  for (const auto& [name, self] : SelfMicros(spans)) {
    if (std::find(grouping.begin(), grouping.end(), name) == grouping.end()) {
      attributed += self;
    }
  }
  return SafeDiv(static_cast<double>(wall_us - attributed), static_cast<double>(wall_us));
}

void WriteSpans(const RunOptions& options, const std::vector<Span>& spans) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (spans::WriteChromeTrace(path, spans)) {
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  } else {
    std::printf("spans: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
