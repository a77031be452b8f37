#ifndef INDBML_SQL_OPTIMIZER_H_
#define INDBML_SQL_OPTIMIZER_H_

#include "common/status.h"
#include "sql/logical_plan.h"

namespace indbml::sql {

/// Toggleable optimizations, defaults matching the paper's final setup
/// (§4.4). The ablation bench switches these off individually.
struct OptimizerOptions {
  /// Split WHERE conjuncts and push them towards (and into) scans;
  /// simple comparisons become zone-map scan predicates.
  bool predicate_pushdown = true;
  /// Turn Filter(CrossJoin) equality conjuncts into hash joins.
  bool join_conversion = true;
  /// Remove columns that no ancestor needs (late projection on the
  /// 16-column model table).
  bool projection_pruning = true;
  /// Replace hash aggregation with the sorted-prefix streaming aggregation
  /// when the input order allows it.
  bool ordered_aggregation = true;
};

/// Post-optimization facts the physical planner needs.
struct PlanAnalysis {
  /// True if the plan decomposes over contiguous partitions of the
  /// partitioned table (every aggregate groups by the partition column,
  /// joins between partitioned branches align on it, no global sort/limit
  /// conflicts).
  bool parallel_safe = false;
  /// The table whose scans are partitioned across threads (the fact table
  /// at the leftmost-deepest leaf); null if the plan has no scan.
  const storage::Table* partitioned_table = nullptr;
  /// Pushed predicates of that leftmost-deepest scan. Morsel generation
  /// drops the morsels whose blocks they reject: in a parallel-safe plan
  /// every join is an inner join probed from this scan and every aggregate
  /// groups on the partition column, so a morsel where the scan emits
  /// nothing contributes no output row.
  std::vector<exec::ScanPredicate> partition_predicates;
};

/// \brief Rule-based optimizer over the bound logical plan.
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {}) : options_(options) {}

  /// Rewrites `plan` in place (ownership returned).
  Result<LogicalOpPtr> Optimize(LogicalOpPtr plan);

  /// Analyses order/partition properties; call after Optimize.
  PlanAnalysis Analyze(const LogicalOp& plan) const;

 private:
  OptimizerOptions options_;
};

}  // namespace indbml::sql

#endif  // INDBML_SQL_OPTIMIZER_H_
