#include "sql/physical_planner.h"

#include <cmath>
#include <unordered_map>

#include "common/string_util.h"
#include "common/validation.h"
#include "exec/aggregate.h"
#include "exec/basic_operators.h"
#include "exec/fused_scan.h"
#include "exec/join.h"
#include "exec/merge.h"
#include "exec/scan.h"
#include "exec/validate.h"

namespace indbml::sql {

using exec::ExprPtr;
using exec::OperatorPtr;

namespace {

/// Mapping from binder column ids to chunk positions of an operator output.
std::unordered_map<int64_t, int64_t> PositionMap(const std::vector<BoundColumn>& cols,
                                                 int64_t offset = 0) {
  std::unordered_map<int64_t, int64_t> map;
  for (size_t i = 0; i < cols.size(); ++i) {
    map[cols[i].id] = offset + static_cast<int64_t>(i);
  }
  return map;
}

Result<ExprPtr> Remap(const exec::Expr& expr,
                      const std::unordered_map<int64_t, int64_t>& mapping) {
  ExprPtr clone = exec::CloneExpr(expr);
  if (!exec::RemapColumnIds(clone.get(), mapping)) {
    return Status::Internal("expression references a column missing from the child: " +
                            expr.ToString());
  }
  return clone;
}

/// Division and modulo can fail per row (divide by zero). The fused scan
/// evaluates residual conditions over all window rows, not just prior
/// survivors, so only conditions that cannot fail row-wise are fusable.
bool ExprHasDivOrMod(const exec::Expr& e) {
  if (e.kind == exec::ExprKind::kBinary &&
      (e.bin_op == exec::BinaryOp::kDiv || e.bin_op == exec::BinaryOp::kMod)) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ExprHasDivOrMod(*c)) return true;
  }
  return false;
}

/// True if `node`'s output may legitimately hold a non-finite float: a
/// ModelJoin in its subtree computed it, or a table column it scans stores
/// one (storage/csv.cc parses "nan" and "inf"), as the block stats record.
bool MayCarryNonFinite(const LogicalOp& node) {
  if (node.kind == LogicalKind::kModelJoin) return true;
  // An unfinalized table has no block stats; its scan fails to open anyway.
  if (node.kind == LogicalKind::kScan && node.table->finalized()) {
    for (int c : node.scan_columns) {
      if (node.table->column(c).type() != storage::DataType::kFloat) continue;
      for (const storage::BlockStats& stats : node.table->block_stats(c)) {
        if (stats.has_nan || std::isinf(stats.min.f) || std::isinf(stats.max.f)) {
          return true;
        }
      }
    }
  }
  for (const auto& child : node.children) {
    if (MayCarryNonFinite(*child)) return true;
  }
  return false;
}

/// Lowers an aggregate's group keys and aggregate specs onto its child's
/// chunk positions.
Status LowerAggregate(const LogicalOp& node, std::vector<ExprPtr>* groups,
                      std::vector<std::string>* group_names,
                      std::vector<exec::AggregateSpec>* aggs) {
  auto mapping = PositionMap(node.children[0]->outputs);
  for (size_t g = 0; g < node.groups.size(); ++g) {
    INDBML_ASSIGN_OR_RETURN(auto e, Remap(*node.groups[g], mapping));
    groups->push_back(std::move(e));
    group_names->push_back(node.outputs[g].name);
  }
  for (const auto& a : node.aggregates) {
    exec::AggregateSpec spec;
    spec.function = a.function;
    spec.result_type = a.result_type;
    spec.name = a.name;
    if (a.argument) {
      INDBML_ASSIGN_OR_RETURN(spec.argument, Remap(*a.argument, mapping));
    }
    aggs->push_back(std::move(spec));
  }
  return Status::OK();
}

}  // namespace

PhysicalPlanner::PhysicalPlanner(const LogicalOp* plan, const PlanAnalysis& analysis,
                                 int requested_workers,
                                 ModelJoinStateFactory state_factory,
                                 ModelJoinOperatorFactory operator_factory,
                                 exec::QueryProfile* profile, bool shared_models,
                                 InferenceExecOptions inference)
    : plan_(plan),
      analysis_(analysis),
      num_workers_(analysis.parallel_safe ? std::max(1, requested_workers) : 1),
      // A cut plan runs its morsels even on one worker: its float sums and
      // group order then match any other worker count bit for bit.
      morsel_driven_(analysis.cut != nullptr || num_workers_ > 1),
      shared_models_(shared_models),
      inference_(inference),
      state_factory_(std::move(state_factory)),
      operator_factory_(std::move(operator_factory)),
      profile_(profile) {}

bool PhysicalPlanner::MorselBound(const storage::TablePtr& table, bool above_cut) const {
  return morsel_driven_ && !above_cut && table.get() == analysis_.partitioned_table;
}

void PhysicalPlanner::RegisterProfileNodes(const LogicalOp& node, int depth) {
  profile_node_ids_[&node] = profile_->RegisterNode(node.NodeString(), depth);
  for (const auto& child : node.children) {
    RegisterProfileNodes(*child, depth + 1);
  }
}

Status PhysicalPlanner::Prepare() {
  if (profile_ != nullptr) {
    RegisterProfileNodes(*plan_, 0);
    profile_->SetNumWorkers(num_workers_);
  }
  // Create shared ModelJoin state once per ModelJoin node, serially.
  struct Visitor {
    PhysicalPlanner* planner;
    Status Visit(const LogicalOp& node) {
      for (const auto& child : node.children) {
        INDBML_RETURN_NOT_OK(Visit(*child));
      }
      if (node.kind == LogicalKind::kModelJoin) {
        if (planner->state_factory_ == nullptr) {
          return Status::NotImplemented(
              "no native ModelJoin implementation registered with this engine");
        }
        ModelJoinStateArgs state_args;
        state_args.meta = node.modeljoin.meta;
        state_args.device = node.modeljoin.device;
        state_args.model_table = node.modeljoin.model_table;
        state_args.shared = planner->shared_models_;
        INDBML_ASSIGN_OR_RETURN(auto state,
                                planner->state_factory_(state_args));
        planner->modeljoin_states_[&node] = std::move(state);
      }
      return Status::OK();
    }
  };
  Visitor visitor{this};
  return visitor.Visit(*plan_);
}

Result<OperatorPtr> PhysicalPlanner::Instantiate() {
  return Build(analysis_.cut != nullptr ? *analysis_.cut->children[0] : *plan_, nullptr);
}

Result<OperatorPtr> PhysicalPlanner::InstantiateAboveCut(
    std::shared_ptr<exec::QueryResult> merged) {
  INDBML_CHECK(analysis_.cut != nullptr) << "InstantiateAboveCut on a plan without a cut";
  return Build(*plan_, &merged);
}

Result<std::shared_ptr<exec::MorselMerge>> PhysicalPlanner::MakeMerge(
    int64_t num_morsels) const {
  const LogicalOp& cut = *analysis_.cut;
  std::vector<std::string> names;
  std::vector<exec::DataType> types;
  for (const auto& c : cut.outputs) {
    names.push_back(c.name);
    types.push_back(c.type);
  }
  switch (cut.kind) {
    case LogicalKind::kAggregate: {
      std::vector<ExprPtr> groups;
      std::vector<std::string> group_names;
      std::vector<exec::AggregateSpec> aggs;
      INDBML_RETURN_NOT_OK(LowerAggregate(cut, &groups, &group_names, &aggs));
      return exec::MakeAggregateMerge(num_morsels, std::move(groups),
                                      std::move(group_names), std::move(aggs));
    }
    case LogicalKind::kSort: {
      auto mapping = PositionMap(cut.children[0]->outputs);
      std::vector<ExprPtr> keys;
      for (const auto& k : cut.sort_keys) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, mapping));
        keys.push_back(std::move(e));
      }
      return exec::MakeSortMerge(num_morsels, std::move(keys), cut.ascending,
                                 std::move(names), std::move(types));
    }
    case LogicalKind::kLimit:
      return exec::MakeLimitMerge(num_morsels, cut.limit, std::move(names),
                                  std::move(types));
    default:
      return Status::Internal("plan cut at an operator that is not a pipeline breaker");
  }
}

Result<OperatorPtr> PhysicalPlanner::Build(const LogicalOp& node,
                                           const std::shared_ptr<exec::QueryResult>* merged) {
  INDBML_ASSIGN_OR_RETURN(auto op, BuildNode(node, merged));
  if (validation::Enabled()) {
    // Model predictions and stored values may legitimately be non-finite;
    // any other operator emitting a NaN is propagating a corrupted
    // intermediate.
    op = std::make_unique<exec::ValidatingOperator>(
        std::move(op), node.NodeString(), MayCarryNonFinite(node));
  }
  if (profile_ != nullptr) {
    op = std::make_unique<exec::ProfiledOperator>(std::move(op), profile_,
                                                  profile_node_ids_.at(&node));
  }
  return op;
}

Result<OperatorPtr> PhysicalPlanner::TryBuildFused(const LogicalOp& node, bool above_cut) {
  // Profiled plans keep the discrete operators so EXPLAIN ANALYZE reports
  // true per-operator row counts and timings.
  if (profile_ != nullptr) return OperatorPtr();
  const LogicalOp* cur = &node;
  const LogicalOp* project = nullptr;
  if (cur->kind == LogicalKind::kProject) {
    // Only pure column-selection projects fuse; computed expressions keep
    // the discrete ProjectOperator.
    for (const auto& e : cur->exprs) {
      if (e->kind != exec::ExprKind::kColumnRef) return OperatorPtr();
    }
    project = cur;
    cur = cur->children[0].get();
  }
  std::vector<const LogicalOp*> filters;  // chain root first
  while (cur->kind == LogicalKind::kFilter) {
    if (ExprHasDivOrMod(*cur->condition)) return OperatorPtr();
    filters.push_back(cur);
    cur = cur->children[0].get();
  }
  if (cur->kind != LogicalKind::kScan) return OperatorPtr();
  const LogicalOp& scan = *cur;
  // A bare scan with no predicates gains nothing from fusion.
  if (filters.empty() && scan.pushed.empty()) return OperatorPtr();

  // Filter conditions and the projection both reference the scan's outputs
  // (filters preserve their child's columns), so one map serves all.
  auto scan_map = PositionMap(scan.outputs);
  std::vector<ExprPtr> residuals;
  for (auto it = filters.rbegin(); it != filters.rend(); ++it) {
    INDBML_ASSIGN_OR_RETURN(auto cond, Remap(*(*it)->condition, scan_map));
    residuals.push_back(std::move(cond));
  }
  std::vector<int> projection;
  std::vector<std::string> names;
  if (project != nullptr) {
    for (size_t i = 0; i < project->exprs.size(); ++i) {
      auto it = scan_map.find(project->exprs[i]->column_id);
      if (it == scan_map.end()) return OperatorPtr();
      projection.push_back(static_cast<int>(it->second));
      names.push_back(project->outputs[i].name);
    }
  } else {
    for (size_t i = 0; i < scan.outputs.size(); ++i) {
      projection.push_back(static_cast<int>(i));
      names.push_back(scan.outputs[i].name);
    }
  }

  if (MorselBound(scan.table, above_cut)) {
    return OperatorPtr(std::make_unique<exec::FusedTableScanOperator>(
        exec::FusedTableScanOperator::MorselBound{}, scan.table,
        scan.scan_columns, scan.pushed, std::move(residuals),
        std::move(projection), std::move(names)));
  }
  return OperatorPtr(std::make_unique<exec::FusedTableScanOperator>(
      scan.table, storage::PartitionRange{0, scan.table->num_rows()},
      scan.scan_columns, scan.pushed, std::move(residuals),
      std::move(projection), std::move(names)));
}

Result<OperatorPtr> PhysicalPlanner::BuildNode(
    const LogicalOp& node, const std::shared_ptr<exec::QueryResult>* merged) {
  const bool above_cut = merged != nullptr;
  if (above_cut && &node == analysis_.cut) {
    return OperatorPtr(std::make_unique<exec::ChunkSourceOperator>(*merged));
  }
  switch (node.kind) {
    case LogicalKind::kScan: {
      INDBML_ASSIGN_OR_RETURN(auto fused, TryBuildFused(node, above_cut));
      if (fused != nullptr) return fused;
      if (MorselBound(node.table, above_cut)) {
        // Morsel-bound: starts empty; the morsel executor re-targets the
        // scan's row range per claimed morsel via Rewind.
        return OperatorPtr(std::make_unique<exec::TableScanOperator>(
            exec::TableScanOperator::MorselBound{}, node.table, node.scan_columns,
            node.pushed));
      }
      return OperatorPtr(std::make_unique<exec::TableScanOperator>(
          node.table, storage::PartitionRange{0, node.table->num_rows()},
          node.scan_columns, node.pushed));
    }
    case LogicalKind::kFilter: {
      INDBML_ASSIGN_OR_RETURN(auto fused, TryBuildFused(node, above_cut));
      if (fused != nullptr) return fused;
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      auto mapping = PositionMap(node.children[0]->outputs);
      INDBML_ASSIGN_OR_RETURN(auto cond, Remap(*node.condition, mapping));
      return OperatorPtr(
          std::make_unique<exec::FilterOperator>(std::move(child), std::move(cond)));
    }
    case LogicalKind::kProject: {
      INDBML_ASSIGN_OR_RETURN(auto fused, TryBuildFused(node, above_cut));
      if (fused != nullptr) return fused;
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      auto mapping = PositionMap(node.children[0]->outputs);
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < node.exprs.size(); ++i) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*node.exprs[i], mapping));
        exprs.push_back(std::move(e));
        names.push_back(node.outputs[i].name);
      }
      return OperatorPtr(std::make_unique<exec::ProjectOperator>(
          std::move(child), std::move(exprs), std::move(names)));
    }
    case LogicalKind::kHashJoin: {
      INDBML_ASSIGN_OR_RETURN(auto probe, Build(*node.children[0], merged));
      INDBML_ASSIGN_OR_RETURN(auto build, Build(*node.children[1], merged));
      auto probe_map = PositionMap(node.children[0]->outputs);
      auto build_map = PositionMap(node.children[1]->outputs);
      std::vector<ExprPtr> probe_keys;
      std::vector<ExprPtr> build_keys;
      for (const auto& k : node.probe_keys) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, probe_map));
        probe_keys.push_back(std::move(e));
      }
      for (const auto& k : node.build_keys) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, build_map));
        build_keys.push_back(std::move(e));
      }
      return OperatorPtr(std::make_unique<exec::HashJoinOperator>(
          std::move(probe), std::move(build), std::move(probe_keys),
          std::move(build_keys)));
    }
    case LogicalKind::kCrossJoin: {
      INDBML_ASSIGN_OR_RETURN(auto left, Build(*node.children[0], merged));
      INDBML_ASSIGN_OR_RETURN(auto right, Build(*node.children[1], merged));
      return OperatorPtr(std::make_unique<exec::CrossJoinOperator>(std::move(left),
                                                                   std::move(right)));
    }
    case LogicalKind::kAggregate: {
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      std::vector<ExprPtr> groups;
      std::vector<std::string> group_names;
      std::vector<exec::AggregateSpec> aggs;
      INDBML_RETURN_NOT_OK(LowerAggregate(node, &groups, &group_names, &aggs));
      if (node.streaming) {
        return OperatorPtr(std::make_unique<exec::StreamingAggregateOperator>(
            std::move(child), std::move(groups), std::move(group_names),
            std::move(aggs), node.streaming_prefix));
      }
      return OperatorPtr(std::make_unique<exec::HashAggregateOperator>(
          std::move(child), std::move(groups), std::move(group_names),
          std::move(aggs)));
    }
    case LogicalKind::kSort: {
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      auto mapping = PositionMap(node.children[0]->outputs);
      std::vector<ExprPtr> keys;
      for (const auto& k : node.sort_keys) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, mapping));
        keys.push_back(std::move(e));
      }
      return OperatorPtr(std::make_unique<exec::SortOperator>(
          std::move(child), std::move(keys), node.ascending));
    }
    case LogicalKind::kLimit: {
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      return OperatorPtr(
          std::make_unique<exec::LimitOperator>(std::move(child), node.limit));
    }
    case LogicalKind::kModelJoin: {
      if (operator_factory_ == nullptr) {
        return Status::NotImplemented(
            "no native ModelJoin implementation registered with this engine");
      }
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], merged));
      auto mapping = PositionMap(node.children[0]->outputs);
      ModelJoinPhysicalArgs args;
      for (int64_t id : node.modeljoin.input_column_ids) {
        auto it = mapping.find(id);
        if (it == mapping.end()) {
          return Status::Internal("ModelJoin input column pruned away");
        }
        args.input_column_indexes.push_back(static_cast<int>(it->second));
      }
      args.child = std::move(child);
      args.model_table = node.modeljoin.model_table;
      args.meta = node.modeljoin.meta;
      args.device = node.modeljoin.device;
      size_t child_width = node.children[0]->outputs.size();
      for (size_t i = child_width; i < node.outputs.size(); ++i) {
        args.prediction_names.push_back(node.outputs[i].name);
      }
      args.shared_state = modeljoin_states_.at(&node);
      args.inference = inference_;
      return operator_factory_(std::move(args));
    }
  }
  return Status::Internal("unhandled logical operator");
}

}  // namespace indbml::sql
