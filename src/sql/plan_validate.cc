#include "sql/plan_validate.h"

#include <unordered_set>

#include "common/string_util.h"

namespace indbml::sql {

namespace {

using exec::Expr;
using exec::ExprPtr;

/// Label for error messages. Deliberately NOT LogicalOp::NodeString(): that
/// renders expressions, and a malformed node (the thing we are reporting)
/// may hold null expression pointers.
std::string SafeLabel(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalKind::kScan:
      return op.table != nullptr ? "Scan " + op.table->name() : "Scan";
    case LogicalKind::kFilter:
      return "Filter";
    case LogicalKind::kProject:
      return "Project";
    case LogicalKind::kHashJoin:
      return "HashJoin";
    case LogicalKind::kCrossJoin:
      return "CrossJoin";
    case LogicalKind::kAggregate:
      return "Aggregate";
    case LogicalKind::kSort:
      return "Sort";
    case LogicalKind::kLimit:
      return "Limit";
    case LogicalKind::kModelJoin:
      return "ModelJoin";
  }
  return "?";
}

Status Fail(const LogicalOp& op, const std::string& what) {
  return Status::Internal("logical plan validation failed at " +
                          SafeLabel(op) + ": " + what);
}

std::unordered_set<int64_t> OutputIds(const LogicalOp& op) {
  std::unordered_set<int64_t> ids;
  for (const auto& c : op.outputs) ids.insert(c.id);
  return ids;
}

Status CheckExprRefs(const LogicalOp& op, const Expr& e,
                     const std::unordered_set<int64_t>& visible,
                     const char* role) {
  std::vector<int64_t> refs;
  exec::CollectColumnIds(e, &refs);
  for (int64_t r : refs) {
    if (visible.count(r) == 0) {
      return Fail(op, StrFormat("%s references column id %lld not produced "
                                "by any child",
                                role, static_cast<long long>(r)));
    }
  }
  return Status::OK();
}

Status CheckChildCount(const LogicalOp& op, size_t expected) {
  if (op.children.size() != expected) {
    return Fail(op, StrFormat("expected %lld children, found %lld",
                              static_cast<long long>(expected),
                              static_cast<long long>(op.children.size())));
  }
  for (const auto& child : op.children) {
    if (child == nullptr) return Fail(op, "null child");
  }
  return Status::OK();
}

/// Pass-through operators must forward their child's output columns
/// unchanged (same ids, same order).
Status CheckPassThroughOutputs(const LogicalOp& op, size_t prefix_only) {
  const LogicalOp& child = *op.children[0];
  size_t n = prefix_only > 0 ? prefix_only : op.outputs.size();
  if (prefix_only == 0 && op.outputs.size() != child.outputs.size()) {
    return Fail(op, StrFormat("%lld outputs but child produces %lld",
                              static_cast<long long>(op.outputs.size()),
                              static_cast<long long>(child.outputs.size())));
  }
  for (size_t i = 0; i < n; ++i) {
    if (op.outputs[i].id != child.outputs[i].id) {
      return Fail(op, StrFormat("output %lld id %lld != child output id %lld",
                                static_cast<long long>(i),
                                static_cast<long long>(op.outputs[i].id),
                                static_cast<long long>(child.outputs[i].id)));
    }
  }
  return Status::OK();
}

Status ValidateNode(const LogicalOp& op) {
  for (const auto& child : op.children) {
    if (child != nullptr) INDBML_RETURN_IF_ERROR(ValidateNode(*child));
  }
  if (op.outputs.empty()) return Fail(op, "operator produces no columns");

  switch (op.kind) {
    case LogicalKind::kScan: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 0));
      if (op.table == nullptr) return Fail(op, "scan without a table");
      if (op.scan_columns.size() != op.outputs.size()) {
        return Fail(op, "scan_columns out of sync with outputs");
      }
      for (int c : op.scan_columns) {
        if (c < 0 || c >= static_cast<int>(op.table->num_columns())) {
          return Fail(op, StrFormat("scan column index %d outside table", c));
        }
      }
      for (const auto& pred : op.pushed) {
        if (pred.column < 0 ||
            pred.column >= static_cast<int>(op.table->num_columns())) {
          return Fail(op, "pushed predicate on a column outside the table");
        }
      }
      return Status::OK();
    }
    case LogicalKind::kFilter: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.condition == nullptr) return Fail(op, "filter without condition");
      INDBML_RETURN_IF_ERROR(
          CheckExprRefs(op, *op.condition, OutputIds(*op.children[0]),
                        "filter condition"));
      return CheckPassThroughOutputs(op, 0);
    }
    case LogicalKind::kProject: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.exprs.size() != op.outputs.size()) {
        return Fail(op, "projection exprs out of sync with outputs");
      }
      auto visible = OutputIds(*op.children[0]);
      for (const auto& e : op.exprs) {
        if (e == nullptr) return Fail(op, "null projection expression");
        INDBML_RETURN_IF_ERROR(CheckExprRefs(op, *e, visible, "projection"));
      }
      return Status::OK();
    }
    case LogicalKind::kHashJoin:
    case LogicalKind::kCrossJoin: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 2));
      if (op.probe_keys.size() != op.build_keys.size()) {
        return Fail(op, "probe/build key count mismatch");
      }
      if (op.kind == LogicalKind::kHashJoin && op.probe_keys.empty()) {
        return Fail(op, "hash join without keys");
      }
      auto probe_ids = OutputIds(*op.children[0]);
      auto build_ids = OutputIds(*op.children[1]);
      for (size_t i = 0; i < op.probe_keys.size(); ++i) {
        INDBML_RETURN_IF_ERROR(
            CheckExprRefs(op, *op.probe_keys[i], probe_ids, "probe key"));
        INDBML_RETURN_IF_ERROR(
            CheckExprRefs(op, *op.build_keys[i], build_ids, "build key"));
      }
      size_t total = op.children[0]->outputs.size() +
                     op.children[1]->outputs.size();
      if (op.outputs.size() != total) {
        return Fail(op, "join outputs out of sync with children");
      }
      return Status::OK();
    }
    case LogicalKind::kAggregate: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.outputs.size() != op.groups.size() + op.aggregates.size()) {
        return Fail(op, "aggregate outputs out of sync with groups+aggregates");
      }
      auto visible = OutputIds(*op.children[0]);
      for (const auto& g : op.groups) {
        if (g == nullptr) return Fail(op, "null group expression");
        INDBML_RETURN_IF_ERROR(CheckExprRefs(op, *g, visible, "group key"));
      }
      for (const auto& a : op.aggregates) {
        if (a.argument != nullptr) {
          INDBML_RETURN_IF_ERROR(
              CheckExprRefs(op, *a.argument, visible, "aggregate argument"));
        }
      }
      if (op.streaming && (op.streaming_prefix <= 0 ||
                           op.streaming_prefix >
                               static_cast<int>(op.groups.size()))) {
        return Fail(op, "streaming prefix outside the group keys");
      }
      return Status::OK();
    }
    case LogicalKind::kSort: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.sort_keys.empty()) return Fail(op, "sort without keys");
      if (op.sort_keys.size() != op.ascending.size()) {
        return Fail(op, "sort keys out of sync with directions");
      }
      auto visible = OutputIds(*op.children[0]);
      for (const auto& k : op.sort_keys) {
        INDBML_RETURN_IF_ERROR(CheckExprRefs(op, *k, visible, "sort key"));
      }
      return CheckPassThroughOutputs(op, 0);
    }
    case LogicalKind::kLimit: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.limit < 0) return Fail(op, "negative limit");
      return CheckPassThroughOutputs(op, 0);
    }
    case LogicalKind::kModelJoin: {
      INDBML_RETURN_IF_ERROR(CheckChildCount(op, 1));
      if (op.modeljoin.model_table == nullptr) {
        return Fail(op, "model join without a model table");
      }
      if (op.modeljoin.input_column_ids.empty()) {
        return Fail(op, "model join without input columns");
      }
      auto visible = OutputIds(*op.children[0]);
      for (int64_t id : op.modeljoin.input_column_ids) {
        if (visible.count(id) == 0) {
          return Fail(op, StrFormat("model input column id %lld not produced "
                                    "by the child",
                                    static_cast<long long>(id)));
        }
      }
      if (op.outputs.size() <= op.children[0]->outputs.size()) {
        return Fail(op, "model join adds no prediction columns");
      }
      // Predictions follow the child's columns.
      return CheckPassThroughOutputs(op, op.children[0]->outputs.size());
    }
  }
  return Fail(op, "unknown operator kind");
}

bool ContainsKind(const LogicalOp& op, LogicalKind kind) {
  if (op.kind == kind) return true;
  for (const auto& child : op.children) {
    if (child != nullptr && ContainsKind(*child, kind)) return true;
  }
  return false;
}

}  // namespace

Status ValidateLogicalPlan(const LogicalOp& plan) { return ValidateNode(plan); }

Status ValidateMorselSafety(const LogicalOp& plan, const PlanAnalysis& analysis) {
  if (!analysis.parallel_safe) {
    return Status::Internal(
        "morsel-driven execution requested for a plan the analysis marked "
        "serial-only");
  }
  if (analysis.partitioned_table == nullptr) {
    return Status::Internal(
        "morsel-driven execution requested without a partitioned table");
  }
  // Only the part below the cut runs per morsel; the cut's breaker merges
  // across morsels and needs no alignment.
  const LogicalOp& per_morsel =
      analysis.cut != nullptr ? *analysis.cut->children[0] : plan;
  bool order_sensitive = ContainsKind(per_morsel, LogicalKind::kAggregate) ||
                         ContainsKind(per_morsel, LogicalKind::kSort);
  if (order_sensitive) {
    const storage::Table& table = *analysis.partitioned_table;
    const std::string& id_name = table.unique_id_column();
    if (id_name.empty()) {
      return Status::Internal(
          "morsel-driven aggregation/sort over table '" + table.name() +
          "' which declares no unique-id column to align morsels on");
    }
    auto index = table.ColumnIndex(id_name);
    if (!index.ok() ||
        table.column(*index).type() != storage::DataType::kInt64) {
      return Status::Internal(
          "unique-id column '" + id_name + "' of table '" + table.name() +
          "' does not resolve to an Int64 column; morsel alignment impossible");
    }
  }
  return Status::OK();
}

}  // namespace indbml::sql
