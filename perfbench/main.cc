// The repository benchmark binary. Usage (normally through perfbench/run.py,
// which builds this binary first):
//
//   perfbench --workload <batch_modeljoin|batch_baselines|serve_point|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>]
//
// Prints a machine stamp, the workload parameters, every metric by name and
// unit, any failed correctness check, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits non-zero when a
// correctness check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<batch_modeljoin|batch_baselines|serve_point|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  std::printf("stamp: nproc=%d simd=%s build=%s compiler=\"%s\" commit=%s seed=%llu "
              "seconds=%g trace=%d workload=%s\n",
              options.nproc, indbml::simd::kBackend, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              commit.c_str(), static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.workload.c_str());
  std::fflush(stdout);

  Report report;
  if (options.workload == "batch_modeljoin") {
    report = RunBatchModelJoin(options);
  } else if (options.workload == "batch_baselines") {
    report = RunBatchBaselines(options);
  } else if (options.workload == "serve_point") {
    report = RunServePoint(options);
  } else if (options.workload == "serve_mixed") {
    report = RunServeMixed(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }

  for (const auto& [name, value] : report.params) {
    std::printf("param: %s = %s\n", name.c_str(), value.c_str());
  }
  for (const auto& [name, m] : report.named) {
    std::printf("metric: %s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (!options.trace) {
    std::printf("metric: failed_frac = %.6g ratio\n",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<int64_t>(1, report.attempted)));
  }
  const auto& wanted = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json;
  for (const auto& [name, unit] : wanted) {
    auto it = report.metrics.find(name);
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s: %s = %.6g %s\n", options.trace ? "layer" : "e2e", name.c_str(), value,
                unit.c_str());
    json += std::string(json.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + unit + "\"}";
  }
  for (const std::string& e : report.errors) std::printf("FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.attempted)),
              static_cast<long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
