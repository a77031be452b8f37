#ifndef INDBML_SQL_PHYSICAL_PLANNER_H_
#define INDBML_SQL_PHYSICAL_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/morsel.h"
#include "exec/operator.h"
#include "exec/profile.h"
#include "sql/logical_plan.h"
#include "sql/optimizer.h"

namespace indbml::sql {

/// Inference-path knobs carried through the planner into the ModelJoin
/// operator factory. A plain struct (not inference::InferenceOptions): the
/// SQL layer sits below src/inference in the include layering, so the
/// modeljoin factory converts it at the boundary.
struct InferenceExecOptions {
  /// Cross-query coalescing window (µs) of the inference batcher; 0
  /// disables batching (engine default — the serving server turns it on).
  int64_t batch_window_us = 0;
  /// Row bound per coalesced inference launch.
  int64_t max_batch_rows = 4096;
  /// Memoize per-tuple predictions in the inference result cache.
  bool result_cache = false;
};

/// Everything the native ModelJoin operator implementation needs from the
/// planner for one worker's instance.
struct ModelJoinPhysicalArgs {
  exec::OperatorPtr child;
  storage::TablePtr model_table;
  /// Positions of the model input columns in the child's output chunk.
  std::vector<int> input_column_indexes;
  nn::ModelMeta meta;
  std::string device;
  std::vector<std::string> prediction_names;
  /// Query-wide state shared by all worker instances (the shared model
  /// of the parallel build phase, paper §5.2). Created once per query by
  /// the registered state factory.
  std::shared_ptr<void> shared_state;
  /// Batching/cache knobs for this query (QueryEngine::Options::inference).
  InferenceExecOptions inference;
};

/// Everything the ModelJoin state factory needs to create (or look up) the
/// shared model of one ModelJoin node.
struct ModelJoinStateArgs {
  nn::ModelMeta meta;
  std::string device;
  /// The deployed relational model representation (registry identity: a
  /// replaced model table invalidates the cached model).
  storage::TablePtr model_table;
  /// True = resolve through the process-wide SharedModelRegistry so
  /// concurrent queries over the same (model, device) build it once and the
  /// state arrives pre-built. False = the classic per-query state whose
  /// build runs cooperatively inside the instances' Open calls.
  bool shared = false;
};

/// Creates the per-query (or registry-shared, see ModelJoinStateArgs::shared)
/// state of the native ModelJoin.
using ModelJoinStateFactory =
    std::function<Result<std::shared_ptr<void>>(const ModelJoinStateArgs&)>;

/// Creates the per-worker native ModelJoin operator.
using ModelJoinOperatorFactory =
    std::function<Result<exec::OperatorPtr>(ModelJoinPhysicalArgs args)>;

/// \brief Lowers an optimized logical plan to per-worker operator trees.
///
/// Column references (binder ids) are rewritten to chunk positions. In a
/// morsel-driven plan, the scans of the partitioned table identified by
/// the PlanAnalysis are built morsel-bound (empty until the pipeline
/// executor assigns them a row range via Rewind); otherwise they read the
/// whole table. Every other scan reads its full table in each worker.
///
/// A plan with a cut (PlanAnalysis::cut) lowers in three parts: the
/// per-worker trees below the cut (Instantiate), the breaker's partial
/// state (MakeMerge), and the operators above the cut over the merged rows
/// (InstantiateAboveCut), whose scans read whole tables.
class PhysicalPlanner {
 public:
  /// With a non-null `profile`, Prepare() registers every plan node in it
  /// and Instantiate() wraps each operator in an exec::ProfiledOperator
  /// writing that profile (EXPLAIN ANALYZE); with null, plans execute with
  /// zero profiling overhead.
  PhysicalPlanner(const LogicalOp* plan, const PlanAnalysis& analysis,
                  int requested_workers, ModelJoinStateFactory state_factory,
                  ModelJoinOperatorFactory operator_factory,
                  exec::QueryProfile* profile = nullptr,
                  bool shared_models = false,
                  InferenceExecOptions inference = {});

  /// Effective worker count (1 if the plan is not parallel-safe).
  int num_workers() const { return num_workers_; }

  /// True if the plan runs over morsels: it has a cut, or it is
  /// parallel-safe and lowered for several workers.
  bool morsel_driven() const { return morsel_driven_; }

  /// Builds the private operator tree of one executor instance: the whole
  /// plan, or the part below the cut. Thread-safe: called concurrently by
  /// lazily created instances after Prepare() succeeded.
  Result<exec::OperatorPtr> Instantiate();

  /// The partial state of the cut's breaker over `num_morsels` morsels.
  /// Requires a cut.
  Result<std::shared_ptr<exec::MorselMerge>> MakeMerge(int64_t num_morsels) const;

  /// Builds the operators above the cut, reading the cut's rows from
  /// `merged`. Requires a cut.
  Result<exec::OperatorPtr> InstantiateAboveCut(std::shared_ptr<exec::QueryResult> merged);

  /// Creates shared state (ModelJoin) once; must be called before the first
  /// Instantiate.
  Status Prepare();

 private:
  /// `merged` is null when building per-morsel trees; above the cut it
  /// holds the merged rows that replace the cut's subtree.
  Result<exec::OperatorPtr> Build(const LogicalOp& node,
                                  const std::shared_ptr<exec::QueryResult>* merged);
  Result<exec::OperatorPtr> BuildNode(const LogicalOp& node,
                                      const std::shared_ptr<exec::QueryResult>* merged);
  /// Fuses a [Project(column refs)] [Filter]* Scan chain rooted at `node`
  /// into one FusedTableScanOperator. Returns nullptr (OK) when the chain
  /// does not qualify; the caller falls through to discrete operators.
  Result<exec::OperatorPtr> TryBuildFused(const LogicalOp& node, bool above_cut);
  /// True if `table` is the partitioned table and a scan of it at this
  /// place takes its row range from each morsel: the plan is morsel-driven
  /// and the scan is not above the cut.
  bool MorselBound(const storage::TablePtr& table, bool above_cut) const;
  void RegisterProfileNodes(const LogicalOp& node, int depth);

  const LogicalOp* plan_;
  PlanAnalysis analysis_;
  int num_workers_;
  bool morsel_driven_;
  bool shared_models_;
  InferenceExecOptions inference_;
  ModelJoinStateFactory state_factory_;
  ModelJoinOperatorFactory operator_factory_;
  exec::QueryProfile* profile_;
  /// Profile node ids per plan node (filled by Prepare when profiling).
  std::unordered_map<const LogicalOp*, int> profile_node_ids_;
  /// Shared states per ModelJoin node (keyed by node pointer).
  std::unordered_map<const LogicalOp*, std::shared_ptr<void>> modeljoin_states_;
};

}  // namespace indbml::sql

#endif  // INDBML_SQL_PHYSICAL_PLANNER_H_
