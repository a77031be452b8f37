#ifndef INDBML_SQL_OPTIMIZER_H_
#define INDBML_SQL_OPTIMIZER_H_

#include <string>
#include <vector>

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
  /// True if the plan runs morsel-driven over contiguous partitions of the
  /// partitioned table: wholly (every aggregate groups by the partition
  /// column, joins between partitioned branches align on it, a sort leads
  /// with it), or below `cut`.
  bool parallel_safe = false;
  /// The plan's lowest pipeline breaker whose output does not decompose
  /// over partitions: a GROUP BY on other keys, a global aggregate, an
  /// ORDER BY not led by the ascending partition column, or a LIMIT. Null
  /// when there is none. The plan below it runs per morsel into the
  /// breaker's partial state; the states merge in morsel order and the
  /// operators above it run once over the merged rows (exec/merge.h). It
  /// always lies on the leftmost path, so every partitioned scan of the
  /// plan is below it or runs above it as a whole-table scan.
  const LogicalOp* cut = nullptr;
  /// Why the plan runs serially (empty when parallel_safe): a property no
  /// merge of per-morsel states can repair.
  std::string serial_reason;
  /// The table whose scans are partitioned across threads (the fact table
  /// at the leftmost-deepest leaf); null if the plan has no scan.
  const storage::Table* partitioned_table = nullptr;
  /// Pushed predicates of that leftmost-deepest scan. Morsel generation
  /// drops the morsels whose blocks they reject: below the cut (or in a
  /// plan without one) every join is an inner join probed from this scan
  /// and every aggregate groups on the partition column, so a morsel where
  /// the scan emits nothing contributes no row.
  std::vector<exec::ScanPredicate> partition_predicates;

  /// EXPLAIN's execution line: "parallel", "parallel, merge at Aggregate"
  /// or "serial: <reason>".
  std::string Describe() const;
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
