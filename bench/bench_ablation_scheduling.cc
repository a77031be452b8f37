// Ablation of the parallel scheduler: static partition-per-thread vs the
// engine's work-stealing morsel pipeline. Two workloads over the same query
// shape: "uniform" spreads filter survivors evenly across the table,
// "skewed" packs them into one contiguous 10% span, which static
// partitioning hands almost entirely to one thread (zone maps prune the
// cold blocks, so the other threads finish almost immediately) while morsel
// workers keep stealing hot morsels.
//
// Methodology: raw multi-threaded wall time conflates scheduling quality
// with however many cores the benchmark host happens to have (on a 1-core
// container every scheduler "ties"). Instead — in the spirit of the
// simulated-GPU benches reporting modeled seconds — each morsel is drained
// serially and timed without thread contention, and the parallel wall is
// modeled as the schedule makespan at kWorkers workers: static pins
// kWorkers contiguous groups of morsels to one worker each (max over the
// groups' summed costs), morsel hands each next morsel to the earliest-free
// worker (greedy work stealing).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/workloads.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "sql/physical_planner.h"
#include "sql/query_engine.h"

namespace indbml::benchlib {
namespace {

constexpr int kWorkers = 8;
constexpr int64_t kMorselRows = 4096;

storage::TablePtr MakeWorkloadTable(int64_t rows, bool skewed) {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"marker", exec::DataType::kFloat},
                                          {"a", exec::DataType::kFloat},
                                          {"b", exec::DataType::kFloat}});
  Random rng(42);
  const int64_t hot_begin = rows * 8 / 10;
  const int64_t hot_end = hot_begin + rows / 10;
  for (int64_t i = 0; i < rows; ++i) {
    // 10% of rows survive the filter in both workloads; only their placement
    // differs.
    bool hot = skewed ? (i >= hot_begin && i < hot_end) : (i % 10 == 0);
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(hot ? 1.0f : 0.0f),
                                  storage::Value::Float(rng.NextFloat(-2, 2)),
                                  storage::Value::Float(rng.NextFloat(-2, 2))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

/// Per-morsel busy seconds: one worker plan drains every morsel in row
/// order, timed individually (min of `reps` passes). Both schedules are
/// modeled from these costs.
Result<std::vector<double>> MorselCosts(sql::QueryEngine* engine,
                                        const sql::LogicalOp& plan,
                                        const sql::PlanAnalysis& analysis,
                                        int reps, int64_t* rows_out) {
  sql::PhysicalPlanner planner(&plan, analysis, kWorkers, nullptr, nullptr);
  INDBML_RETURN_NOT_OK(planner.Prepare());
  auto morsels = exec::MakeMorsels(*analysis.partitioned_table, kMorselRows);
  std::vector<double> costs(morsels.size(), 1e100);
  *rows_out = 0;
  for (int rep = 0; rep < reps; ++rep) {
    INDBML_ASSIGN_OR_RETURN(auto root, planner.Instantiate());
    exec::ExecContext ctx;
    ctx.catalog = engine->catalog();
    INDBML_RETURN_NOT_OK(root->Open(&ctx));
    int64_t rows = 0;
    for (size_t m = 0; m < morsels.size(); ++m) {
      ctx.morsel_begin = morsels[m].begin;
      ctx.morsel_end = morsels[m].end;
      ctx.morsel_index = static_cast<int64_t>(m);
      exec::QueryResult batch;
      batch.types = std::vector<exec::DataType>(root->output_types());
      Stopwatch watch;
      INDBML_RETURN_NOT_OK(root->Rewind(&ctx));
      INDBML_RETURN_NOT_OK(exec::DrainAppend(root.get(), &ctx, &batch));
      costs[m] = std::min(costs[m], watch.ElapsedSeconds());
      rows += batch.num_rows;
    }
    root->Close(&ctx);
    *rows_out = rows;
  }
  return costs;
}

/// Makespan of static partitioning: the morsels split into `workers`
/// contiguous, balanced groups, group w pinned to worker w.
double StaticMakespan(const std::vector<double>& costs, int workers) {
  const size_t n = static_cast<size_t>(workers);
  const size_t per = (costs.size() + n - 1) / n;
  double makespan = 0;
  for (size_t begin = 0; begin < costs.size(); begin += per) {
    const size_t end = std::min(begin + per, costs.size());
    double group = 0;
    for (size_t m = begin; m < end; ++m) group += costs[m];
    makespan = std::max(makespan, group);
  }
  return makespan;
}

/// Makespan of greedy work stealing: each next unit goes to the worker that
/// frees up first — exactly what pulling from the shared morsel cursor does.
double StealingMakespan(const std::vector<double>& costs, int workers) {
  std::vector<double> free_at(static_cast<size_t>(workers), 0.0);
  for (double c : costs) {
    *std::min_element(free_at.begin(), free_at.end()) += c;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

int Run() {
  ScaleConfig scale = ScaleConfig::FromEnv();
  const int64_t rows = scale.paper_scale ? 8000000 : 2000000;
  const int reps = 3;

  ReportTable table("ablation_scheduling",
                    {"workload", "scheduler", "modeled_wall",
                     "speedup_vs_static"});

  const std::string query =
      "SELECT f.id AS g, SUM(f.a * f.b + f.a) AS s, "
      "SUM(f.a * f.a - f.b) AS t, COUNT(*) AS c "
      "FROM fact f WHERE f.marker >= 0.5 GROUP BY f.id";

  for (bool skewed : {false, true}) {
    const char* workload = skewed ? "skewed" : "uniform";
    sql::QueryEngine engine;
    INDBML_CHECK(
        engine.catalog()->CreateTable(MakeWorkloadTable(rows, skewed)).ok());
    auto plan = engine.PlanQuery(query);
    INDBML_CHECK(plan.ok()) << plan.status().ToString();
    sql::Optimizer optimizer(engine.options().optimizer);
    sql::PlanAnalysis analysis = optimizer.Analyze(**plan);
    INDBML_CHECK(analysis.parallel_safe);

    int64_t result_rows = 0;
    auto costs = MorselCosts(&engine, **plan, analysis, reps, &result_rows);
    INDBML_CHECK(costs.ok()) << costs.status().ToString();

    double static_wall = StaticMakespan(*costs, kWorkers);
    double morsel_wall = StealingMakespan(*costs, kWorkers);
    double speedup = static_wall / morsel_wall;

    table.AddRow({workload, "static", FormatSeconds(static_wall), "1.00x"});
    table.AddRow({workload, "morsel", FormatSeconds(morsel_wall),
                  StrFormat("%.2fx", speedup)});
    std::printf(
        "[scheduling] %-8s rows=%lld  static %8.4fs  morsel %8.4fs  (%.2fx "
        "at %d workers)\n",
        workload, static_cast<long long>(result_rows), static_wall,
        morsel_wall, speedup, kWorkers);
  }
  table.Finish();
  return 0;
}

}  // namespace
}  // namespace indbml::benchlib

int main() { return indbml::benchlib::Run(); }
