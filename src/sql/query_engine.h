#ifndef INDBML_SQL_QUERY_ENGINE_H_
#define INDBML_SQL_QUERY_ENGINE_H_

#include <memory>
#include <string>

#include "common/config.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "sql/binder.h"
#include "sql/optimizer.h"
#include "sql/physical_planner.h"

namespace indbml::sql {

/// \brief The database engine facade: catalog + model registry + SQL
/// execution with morsel-driven parallelism (the stand-in for Actian Vector
/// in the paper's evaluation, see DESIGN.md §2).
///
/// Concurrency contract: the engine is safe to share across threads.
/// Options are read as an immutable per-query snapshot taken when the query
/// is submitted — a concurrent set_options() affects later queries, never a
/// running one. Every query runs as one job on an engine-owned
/// exec::SharedExecutor without admission limits. For multi-query
/// *scheduling* (admission control, priorities, cancellation, plan/model
/// caches) use the serving stack in src/server/, which layers sessions over
/// this engine.
class QueryEngine {
 public:
  struct Options {
    /// Pipeline worker threads; 0 = one per hardware thread. Parallel-safe
    /// plans run morsel-driven on this many workers; 1 = serial execution
    /// on the calling thread. Honored on the next query when changed.
    int worker_threads = 0;
    /// Rows per morsel handed out by the work-stealing scheduler.
    int64_t morsel_rows = kDefaultMorselRows;
    /// Resolve ModelJoin models through the process-wide
    /// SharedModelRegistry: the first query over a (model, device) pair
    /// builds it once, later and concurrent queries block-share the built
    /// weights (MorphingDB-style model management). False (default) keeps
    /// the paper's per-query build — the cost Figures 8/9 measure. Server
    /// sessions default this to true.
    bool shared_models = false;
    /// Inference batching/cache knobs handed to the ModelJoin operators
    /// (see InferenceExecOptions). Defaults leave batching and the result
    /// cache off — single-query latency must not pay for a batch partner
    /// that never comes; QueryServer::Options turns them on for serving.
    InferenceExecOptions inference;
    OptimizerOptions optimizer;
  };

  QueryEngine();
  explicit QueryEngine(Options options);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  storage::Catalog* catalog() { return &catalog_; }
  ModelMetaRegistry* models() { return &models_; }

  /// Snapshot copy of the current options (thread-safe). Queries already
  /// running keep the snapshot they were submitted with.
  Options options() const INDBML_EXCLUDES(options_mu_);
  void set_options(const Options& options) INDBML_EXCLUDES(options_mu_);

  /// Parses, binds, optimizes and runs one SELECT; returns the materialised
  /// result. With a non-null `profile`, per-operator statistics (rows,
  /// chunks, Open/Next/Close time, operator phase timings) and the query's
  /// peak tracked memory are collected into it.
  Result<exec::QueryResult> ExecuteQuery(const std::string& sql,
                                         exec::QueryProfile* profile = nullptr);

  /// Parses/binds/optimizes only (tests and EXPLAIN). The no-options
  /// overload snapshots the engine options.
  Result<LogicalOpPtr> PlanQuery(const std::string& sql);
  Result<LogicalOpPtr> PlanQuery(const std::string& sql, const Options& opts);

  /// Optimized plan rendering ("EXPLAIN").
  Result<std::string> Explain(const std::string& sql);

  /// Runs the query with profiling and renders the annotated plan tree:
  /// per-operator row/chunk counts, cumulative Open/Next/Close time and
  /// operator-specific phase timings (ModelJoin build vs. inference,
  /// C-API layout conversion, UDF marshalling), plus the query's wall time
  /// and peak tracked memory.
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Registers the native ModelJoin implementation (called by the modeljoin
  /// module's RegisterModelJoin). Call before the first query.
  void SetModelJoinFactories(ModelJoinStateFactory state_factory,
                             ModelJoinOperatorFactory operator_factory) {
    modeljoin_state_factory_ = std::move(state_factory);
    modeljoin_operator_factory_ = std::move(operator_factory);
  }

  /// Executes a pre-bound plan (used by approach drivers that build plans
  /// programmatically); `profile` as in ExecuteQuery. The options overload
  /// runs under the given immutable snapshot (the serving layer's per-query
  /// snapshot semantics); the other snapshots the engine options.
  Result<exec::QueryResult> ExecutePlan(const LogicalOp& plan,
                                        exec::QueryProfile* profile = nullptr);
  Result<exec::QueryResult> ExecutePlan(const LogicalOp& plan, const Options& opts,
                                        exec::QueryProfile* profile);

  /// Analyzes `plan` and lowers it under the given options snapshot into
  /// one executor job: for `max_workers` morsel-driven instances over the
  /// plan's morsels when the plan is parallel-safe and `max_workers` > 1,
  /// or when it has a cut (then with a merge and a finalize stage, see
  /// exec::JobSpec), for one whole-plan instance otherwise. ModelJoin shared state is
  /// created here (registry lookup when `opts.shared_models`). The job's
  /// factory keeps `plan` and the lowered planner alive until the job is
  /// gone. Used by ExecutePlan and by the serving path (server/session.cc),
  /// which submits the job to the server's executor.
  Result<exec::JobSpec> PrepareJob(std::shared_ptr<const LogicalOp> plan,
                                   const Options& opts, int max_workers,
                                   exec::QueryProfile* profile);

  /// Runs `spec` on the engine's executor, sized at `threads` workers, and
  /// waits for its result. The executor is created on first use and
  /// re-created when `threads` changes; a running job keeps the executor
  /// it was submitted to. It never queues or rejects a job.
  Result<exec::QueryResult> RunJob(exec::JobSpec spec, int threads)
      INDBML_EXCLUDES(executor_mu_);

  /// Effective worker count: `worker_threads` if set, one per
  /// hardware thread otherwise.
  int EffectiveWorkers() const;
  static int WorkersFor(const Options& opts);

 private:
  mutable Mutex options_mu_;
  Options options_ INDBML_GUARDED_BY(options_mu_);
  storage::Catalog catalog_;
  ModelMetaRegistry models_;
  ModelJoinStateFactory modeljoin_state_factory_;
  ModelJoinOperatorFactory modeljoin_operator_factory_;
  /// Declared last: destroyed (its workers joined) before the catalog.
  Mutex executor_mu_;
  std::shared_ptr<exec::SharedExecutor> executor_ INDBML_GUARDED_BY(executor_mu_);
};

}  // namespace indbml::sql

#endif  // INDBML_SQL_QUERY_ENGINE_H_
