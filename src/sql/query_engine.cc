#include "sql/query_engine.h"

#include <limits>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "common/validation.h"
#include "exec/morsel.h"
#include "sql/parser.h"
#include "sql/plan_validate.h"

namespace indbml::sql {

namespace {

int WorkersFor(const QueryEngine::Options& opts) {
  return opts.worker_threads > 0 ? opts.worker_threads : HardwareConcurrency();
}

}  // namespace

QueryEngine::QueryEngine() : QueryEngine(Options()) {}

QueryEngine::QueryEngine(Options options) : options_(options) {
  // A model DEPLOY (Register) is a DDL-like mutation: bump the catalog
  // version so cached plans bound against the old model metadata re-resolve
  // (server/plan_cache.h keys on the version).
  models_.SetMutationCallback([this] { catalog_.BumpVersion(); });
}

QueryEngine::~QueryEngine() = default;

QueryEngine::Options QueryEngine::options() const {
  MutexLock lock(options_mu_);
  return options_;
}

void QueryEngine::set_options(const Options& options) {
  MutexLock lock(options_mu_);
  options_ = options;
}

int QueryEngine::EffectiveWorkers() const { return WorkersFor(options()); }

Result<exec::QueryResult> QueryEngine::RunJob(exec::JobSpec spec, int threads) {
  std::shared_ptr<exec::SharedExecutor> executor;
  {
    std::shared_ptr<exec::SharedExecutor> retired;  // joined after unlocking
    MutexLock lock(executor_mu_);
    if (executor_ == nullptr || executor_->num_threads() != threads) {
      // The bare engine has no admission control: every query runs at once.
      exec::SharedExecutor::Options options;
      options.worker_threads = threads;
      options.max_inflight = std::numeric_limits<int>::max();
      options.max_queued = 0;
      retired = std::move(executor_);
      executor_ = std::make_shared<exec::SharedExecutor>(options);
    }
    executor = executor_;
  }
  // Holding `executor` keeps it alive until this job finished, even if a
  // concurrent query re-sized the engine's executor meanwhile.
  INDBML_ASSIGN_OR_RETURN(auto handle, executor->Submit(std::move(spec)));
  return handle->Wait();
}

Result<LogicalOpPtr> QueryEngine::PlanQuery(const std::string& sql,
                                            const Options& opts) {
  INDBML_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  Binder binder(&catalog_, &models_);
  INDBML_ASSIGN_OR_RETURN(auto plan, binder.Bind(*stmt));
  Optimizer optimizer(opts.optimizer);
  return optimizer.Optimize(std::move(plan));
}

Result<LogicalOpPtr> QueryEngine::PlanQuery(const std::string& sql) {
  return PlanQuery(sql, options());
}

Result<exec::QueryResult> QueryEngine::ExecuteQuery(const std::string& sql,
                                                    exec::QueryProfile* profile) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  return ExecutePlan(*plan, opts, profile);
}

Result<exec::JobSpec> QueryEngine::PrepareJob(
    std::shared_ptr<const LogicalOp> plan, const Options& opts, int max_workers,
    exec::QueryProfile* profile) {
  Optimizer optimizer(opts.optimizer);
  const PlanAnalysis analysis = optimizer.Analyze(*plan);
  // The planner lowers a plan that is not parallel-safe for one worker, so
  // `max_workers` is only a ceiling; one worker means a whole-plan drain.
  auto planner = std::make_shared<PhysicalPlanner>(
      plan.get(), analysis, max_workers, modeljoin_state_factory_,
      modeljoin_operator_factory_, profile, opts.shared_models, opts.inference);
  INDBML_RETURN_NOT_OK(planner->Prepare());
  exec::JobSpec spec;
  spec.num_instances = planner->num_workers();
  if (planner->num_workers() > 1) {
    if (validation::Enabled()) {
      INDBML_RETURN_NOT_OK(ValidateMorselSafety(*plan, analysis));
    }
    // Every morsel may be pruned: the job then drains one morsel-bound
    // instance, which yields the empty result with the plan's schema.
    spec.morsels = exec::MakeMorsels(*analysis.partitioned_table, opts.morsel_rows,
                                     analysis.partition_predicates);
  }
  spec.factory = [planner, plan](int) { return planner->Instantiate(); };
  spec.catalog = &catalog_;
  return spec;
}

Result<exec::QueryResult> QueryEngine::ExecutePlan(const LogicalOp& plan,
                                                   exec::QueryProfile* profile) {
  return ExecutePlan(plan, options(), profile);
}

Result<exec::QueryResult> QueryEngine::ExecutePlan(const LogicalOp& plan,
                                                   const Options& opts,
                                                   exec::QueryProfile* profile) {
  trace::Span query_span("query");
  const int workers = WorkersFor(opts);
  // Not owned: the job finishes before this call returns.
  std::shared_ptr<const LogicalOp> unowned(std::shared_ptr<const LogicalOp>(),
                                           &plan);
  INDBML_ASSIGN_OR_RETURN(auto spec,
                          PrepareJob(std::move(unowned), opts, workers, profile));

  // Peak tracked memory is process-wide; the reset makes the recorded peak
  // per-query as long as queries don't overlap (Table 3 methodology).
  if (profile != nullptr) MemoryTracker::Global().ResetPeak();
  Stopwatch stopwatch;
  auto result = RunJob(std::move(spec), workers);

  int64_t wall_micros = stopwatch.ElapsedMicros();
  metrics::Registry& registry = metrics::Registry::Global();
  registry.counter("engine.queries")->Increment();
  registry.histogram("engine.query_micros")->Record(wall_micros);
  if (profile != nullptr) {
    int64_t peak = MemoryTracker::Global().peak_bytes();
    profile->set_wall_nanos(wall_micros * 1000);
    profile->set_peak_memory_bytes(peak);
    registry.gauge("memory.query_peak_bytes")->Set(peak);
  }
  return result;
}

Result<std::string> QueryEngine::ExplainAnalyze(const std::string& sql) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  exec::QueryProfile profile;
  INDBML_ASSIGN_OR_RETURN(auto result, ExecutePlan(*plan, opts, &profile));
  (void)result;
  return profile.ToString();
}

Result<std::string> QueryEngine::Explain(const std::string& sql) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  Optimizer optimizer(opts.optimizer);
  PlanAnalysis analysis = optimizer.Analyze(*plan);
  std::string out = plan->ToString();
  out += analysis.parallel_safe ? "[parallel-safe]\n" : "[serial]\n";
  return out;
}

}  // namespace indbml::sql
