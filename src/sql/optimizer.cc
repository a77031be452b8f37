#include "sql/optimizer.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "common/validation.h"
#include "sql/plan_validate.h"

namespace indbml::sql {

using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;

namespace {

/// Flattens an AND tree into conjuncts.
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->bin_op == exec::BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->children[0]), out);
    SplitConjuncts(std::move(expr->children[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (auto& c : conjuncts) {
    result = result == nullptr
                 ? std::move(c)
                 : exec::MakeBinary(exec::BinaryOp::kAnd, std::move(result),
                                    std::move(c));
  }
  return result;
}

std::unordered_set<int64_t> OutputIdSet(const LogicalOp& op) {
  std::unordered_set<int64_t> ids;
  for (const auto& c : op.outputs) ids.insert(c.id);
  return ids;
}

bool RefsSubsetOf(const Expr& e, const std::unordered_set<int64_t>& ids) {
  std::vector<int64_t> refs;
  exec::CollectColumnIds(e, &refs);
  for (int64_t r : refs) {
    if (ids.count(r) == 0) return false;
  }
  return true;
}

/// If `e` is `<colref> cmp <const>` (either side, including negated integer
/// constants like `-1`), extracts the pieces for a scan predicate.
bool MatchSimpleComparison(const Expr& e, int64_t* column_id, exec::BinaryOp* op,
                           exec::Value* value) {
  if (e.kind != ExprKind::kBinary || !exec::IsComparison(e.bin_op)) return false;
  const Expr& lhs = *e.children[0];
  const Expr& rhs = *e.children[1];
  auto flip = [](exec::BinaryOp o) {
    switch (o) {
      case exec::BinaryOp::kLt:
        return exec::BinaryOp::kGt;
      case exec::BinaryOp::kLe:
        return exec::BinaryOp::kGe;
      case exec::BinaryOp::kGt:
        return exec::BinaryOp::kLt;
      case exec::BinaryOp::kGe:
        return exec::BinaryOp::kLe;
      default:
        return o;
    }
  };
  auto as_const = [](const Expr& x, exec::Value* v) {
    if (x.kind == ExprKind::kConstant) {
      *v = x.constant;
      return true;
    }
    if (x.kind == ExprKind::kUnary && x.un_op == exec::UnaryOp::kNegate &&
        x.children[0]->kind == ExprKind::kConstant) {
      exec::Value inner = x.children[0]->constant;
      if (inner.type == exec::DataType::kInt64) {
        *v = exec::Value::Int64(-inner.i);
      } else {
        *v = exec::Value::Float(-inner.f);
      }
      return true;
    }
    return false;
  };
  exec::Value v;
  if (lhs.kind == ExprKind::kColumnRef && as_const(rhs, &v)) {
    *column_id = lhs.column_id;
    *op = e.bin_op;
    *value = v;
    return true;
  }
  if (rhs.kind == ExprKind::kColumnRef && as_const(lhs, &v)) {
    *column_id = rhs.column_id;
    *op = flip(e.bin_op);
    *value = v;
    return true;
  }
  return false;
}

/// Is the projection a pure rename (every expr a plain column ref)?
bool IsRenameOnlyProject(const LogicalOp& op) {
  for (const auto& e : op.exprs) {
    if (e->kind != ExprKind::kColumnRef) return false;
  }
  return true;
}

/// Puts `conj` in a new Filter between `*slot` and its parent.
void InsertFilter(LogicalOpPtr* slot, ExprPtr conj) {
  auto filter = std::make_unique<LogicalOp>();
  filter->kind = LogicalKind::kFilter;
  filter->condition = std::move(conj);
  filter->outputs = (*slot)->outputs;
  filter->children.push_back(std::move(*slot));
  *slot = std::move(filter);
}

/// Attempts to absorb `conj` somewhere at-or-below `node`; returns true if
/// the conjunct was consumed.
bool TryPushConjunct(LogicalOp* node, ExprPtr& conj, bool allow_join_conversion) {
  switch (node->kind) {
    case LogicalKind::kScan: {
      int64_t column_id;
      exec::BinaryOp op;
      exec::Value value;
      if (!MatchSimpleComparison(*conj, &column_id, &op, &value)) return false;
      for (size_t i = 0; i < node->outputs.size(); ++i) {
        if (node->outputs[i].id == column_id) {
          exec::ScanPredicate pred;
          pred.column = node->scan_columns[i];
          pred.op = op;
          pred.value = value;
          node->pushed.push_back(pred);
          return true;
        }
      }
      return false;
    }
    case LogicalKind::kFilter: {
      if (TryPushConjunct(node->children[0].get(), conj, allow_join_conversion)) {
        return true;
      }
      node->condition = exec::MakeBinary(exec::BinaryOp::kAnd,
                                         std::move(node->condition), std::move(conj));
      return true;
    }
    case LogicalKind::kCrossJoin:
    case LogicalKind::kHashJoin: {
      for (int side = 0; side < 2; ++side) {
        LogicalOp* child = node->children[static_cast<size_t>(side)].get();
        if (!RefsSubsetOf(*conj, OutputIdSet(*child))) continue;
        if (TryPushConjunct(child, conj, allow_join_conversion)) return true;
        InsertFilter(&node->children[static_cast<size_t>(side)], std::move(conj));
        return true;
      }
      // An equality spanning both sides becomes a(nother) hash-join key —
      // this also upgrades nested cross joins reached through pushdown.
      if (allow_join_conversion && conj->kind == ExprKind::kBinary &&
          conj->bin_op == exec::BinaryOp::kEq) {
        auto left_ids = OutputIdSet(*node->children[0]);
        auto right_ids = OutputIdSet(*node->children[1]);
        Expr* a = conj->children[0].get();
        Expr* b = conj->children[1].get();
        std::vector<int64_t> a_refs, b_refs;
        exec::CollectColumnIds(*a, &a_refs);
        exec::CollectColumnIds(*b, &b_refs);
        if (!a_refs.empty() && !b_refs.empty()) {
          if (RefsSubsetOf(*a, left_ids) && RefsSubsetOf(*b, right_ids)) {
            node->probe_keys.push_back(std::move(conj->children[0]));
            node->build_keys.push_back(std::move(conj->children[1]));
            node->kind = LogicalKind::kHashJoin;
            return true;
          }
          if (RefsSubsetOf(*a, right_ids) && RefsSubsetOf(*b, left_ids)) {
            node->probe_keys.push_back(std::move(conj->children[1]));
            node->build_keys.push_back(std::move(conj->children[0]));
            node->kind = LogicalKind::kHashJoin;
            return true;
          }
        }
      }
      return false;
    }
    case LogicalKind::kModelJoin: {
      // Selection below inference: a conjunct over the child's columns
      // filters the rows before they are scored; one that reads a
      // prediction column stays above.
      LogicalOp* child = node->children[0].get();
      if (!RefsSubsetOf(*conj, OutputIdSet(*child))) return false;
      if (TryPushConjunct(child, conj, allow_join_conversion)) return true;
      InsertFilter(&node->children[0], std::move(conj));
      return true;
    }
    case LogicalKind::kProject: {
      if (!IsRenameOnlyProject(*node)) return false;
      std::unordered_map<int64_t, int64_t> mapping;
      for (size_t i = 0; i < node->exprs.size(); ++i) {
        mapping[node->outputs[i].id] = node->exprs[i]->column_id;
      }
      ExprPtr rewritten = exec::CloneExpr(*conj);
      if (!exec::RemapColumnIds(rewritten.get(), mapping)) return false;
      if (TryPushConjunct(node->children[0].get(), rewritten,
                          allow_join_conversion)) {
        return true;
      }
      InsertFilter(&node->children[0], std::move(rewritten));
      return true;
    }
    default:
      return false;
  }
}

void RecomputeJoinOutputs(LogicalOp* join) {
  join->outputs = join->children[0]->outputs;
  for (const auto& c : join->children[1]->outputs) join->outputs.push_back(c);
}

}  // namespace

Result<LogicalOpPtr> Optimizer::Optimize(LogicalOpPtr plan) {
  // With INDBML_VALIDATE=1 the plan is re-validated after every rewrite
  // pass, so a broken rule fails here with the pass named instead of
  // corrupting execution downstream.
  const bool validate = validation::Enabled();
  auto check = [&](const char* pass) -> Status {
    if (!validate) return Status::OK();
    Status status = ValidateLogicalPlan(*plan);
    if (!status.ok()) {
      return Status::Internal(std::string("optimizer pass '") + pass +
                              "' produced an invalid plan: " + status.message());
    }
    return Status::OK();
  };
  INDBML_RETURN_IF_ERROR(check("input"));

  // --- Pass 1: filter pushdown + join conversion (combined, bottom-up) ---
  struct Rewriter {
    const OptimizerOptions& options;

    LogicalOpPtr Rewrite(LogicalOpPtr op) {
      for (auto& child : op->children) child = Rewrite(std::move(child));

      if (op->kind != LogicalKind::kFilter) return op;
      LogicalOp* child = op->children[0].get();

      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(std::move(op->condition), &conjuncts);

      if (options.join_conversion && child->kind == LogicalKind::kCrossJoin) {
        auto left_ids = OutputIdSet(*child->children[0]);
        auto right_ids = OutputIdSet(*child->children[1]);
        std::vector<ExprPtr> keep;
        for (auto& c : conjuncts) {
          bool used = false;
          if (c->kind == ExprKind::kBinary && c->bin_op == exec::BinaryOp::kEq) {
            Expr* a = c->children[0].get();
            Expr* b = c->children[1].get();
            std::vector<int64_t> a_refs, b_refs;
            exec::CollectColumnIds(*a, &a_refs);
            exec::CollectColumnIds(*b, &b_refs);
            if (!a_refs.empty() && !b_refs.empty()) {
              bool a_left = RefsSubsetOf(*a, left_ids);
              bool a_right = RefsSubsetOf(*a, right_ids);
              bool b_left = RefsSubsetOf(*b, left_ids);
              bool b_right = RefsSubsetOf(*b, right_ids);
              if (a_left && b_right) {
                child->probe_keys.push_back(std::move(c->children[0]));
                child->build_keys.push_back(std::move(c->children[1]));
                used = true;
              } else if (a_right && b_left) {
                child->probe_keys.push_back(std::move(c->children[1]));
                child->build_keys.push_back(std::move(c->children[0]));
                used = true;
              }
            }
          }
          if (!used) keep.push_back(std::move(c));
        }
        if (!child->probe_keys.empty()) {
          child->kind = LogicalKind::kHashJoin;
        }
        conjuncts = std::move(keep);
      }

      if (options.predicate_pushdown) {
        std::vector<ExprPtr> keep;
        for (auto& c : conjuncts) {
          if (!TryPushConjunct(child, c, options.join_conversion)) {
            keep.push_back(std::move(c));
          }
        }
        conjuncts = std::move(keep);
      }

      if (conjuncts.empty()) {
        return std::move(op->children[0]);
      }
      op->condition = CombineConjuncts(std::move(conjuncts));
      return op;
    }
  };
  Rewriter rewriter{options_};
  plan = rewriter.Rewrite(std::move(plan));
  INDBML_RETURN_IF_ERROR(check("pushdown+join-conversion"));

  // --- Pass 2: projection pruning ---
  if (options_.projection_pruning) {
    struct Pruner {
      void Prune(LogicalOp* op, const std::unordered_set<int64_t>& needed) {
        switch (op->kind) {
          case LogicalKind::kScan: {
            std::vector<BoundColumn> outputs;
            std::vector<int> scan_columns;
            for (size_t i = 0; i < op->outputs.size(); ++i) {
              if (needed.count(op->outputs[i].id) > 0) {
                outputs.push_back(op->outputs[i]);
                scan_columns.push_back(op->scan_columns[i]);
              }
            }
            if (outputs.empty() && !op->outputs.empty()) {
              outputs.push_back(op->outputs[0]);
              scan_columns.push_back(op->scan_columns[0]);
            }
            op->outputs = std::move(outputs);
            op->scan_columns = std::move(scan_columns);
            return;
          }
          case LogicalKind::kFilter: {
            auto child_needed = needed;
            Collect(*op->condition, &child_needed);
            Prune(op->children[0].get(), child_needed);
            op->outputs = op->children[0]->outputs;
            return;
          }
          case LogicalKind::kProject: {
            std::vector<BoundColumn> outputs;
            std::vector<ExprPtr> exprs;
            std::unordered_set<int64_t> child_needed;
            for (size_t i = 0; i < op->exprs.size(); ++i) {
              if (needed.count(op->outputs[i].id) == 0) continue;
              Collect(*op->exprs[i], &child_needed);
              outputs.push_back(op->outputs[i]);
              exprs.push_back(std::move(op->exprs[i]));
            }
            if (exprs.empty()) {
              for (auto& e : op->exprs) {
                if (e != nullptr) {
                  Collect(*e, &child_needed);
                  outputs.push_back(op->outputs[0]);
                  exprs.push_back(std::move(e));
                  break;
                }
              }
            }
            op->outputs = std::move(outputs);
            op->exprs = std::move(exprs);
            Prune(op->children[0].get(), child_needed);
            return;
          }
          case LogicalKind::kHashJoin:
          case LogicalKind::kCrossJoin: {
            std::unordered_set<int64_t> probe_needed;
            std::unordered_set<int64_t> build_needed;
            auto probe_ids = OutputIdSet(*op->children[0]);
            for (int64_t id : needed) {
              if (probe_ids.count(id) > 0) {
                probe_needed.insert(id);
              } else {
                build_needed.insert(id);
              }
            }
            for (const auto& k : op->probe_keys) Collect(*k, &probe_needed);
            for (const auto& k : op->build_keys) Collect(*k, &build_needed);
            Prune(op->children[0].get(), probe_needed);
            Prune(op->children[1].get(), build_needed);
            RecomputeJoinOutputs(op);
            return;
          }
          case LogicalKind::kAggregate: {
            std::unordered_set<int64_t> child_needed;
            for (const auto& g : op->groups) Collect(*g, &child_needed);
            for (const auto& a : op->aggregates) {
              if (a.argument) Collect(*a.argument, &child_needed);
            }
            Prune(op->children[0].get(), child_needed);
            return;
          }
          case LogicalKind::kSort: {
            auto child_needed = needed;
            for (const auto& k : op->sort_keys) Collect(*k, &child_needed);
            Prune(op->children[0].get(), child_needed);
            op->outputs = op->children[0]->outputs;
            return;
          }
          case LogicalKind::kLimit: {
            Prune(op->children[0].get(), needed);
            op->outputs = op->children[0]->outputs;
            return;
          }
          case LogicalKind::kModelJoin: {
            std::unordered_set<int64_t> child_needed;
            auto child_ids = OutputIdSet(*op->children[0]);
            for (int64_t id : needed) {
              if (child_ids.count(id) > 0) child_needed.insert(id);
            }
            for (int64_t id : op->modeljoin.input_column_ids) {
              child_needed.insert(id);
            }
            Prune(op->children[0].get(), child_needed);
            std::vector<BoundColumn> predictions;
            for (const auto& c : op->outputs) {
              if (child_ids.count(c.id) == 0) predictions.push_back(c);
            }
            op->outputs = op->children[0]->outputs;
            for (const auto& c : predictions) op->outputs.push_back(c);
            return;
          }
        }
      }

      static void Collect(const Expr& e, std::unordered_set<int64_t>* ids) {
        std::vector<int64_t> refs;
        exec::CollectColumnIds(e, &refs);
        ids->insert(refs.begin(), refs.end());
      }
    };
    Pruner pruner;
    std::unordered_set<int64_t> all;
    for (const auto& c : plan->outputs) all.insert(c.id);
    pruner.Prune(plan.get(), all);
    INDBML_RETURN_IF_ERROR(check("projection-pruning"));
  }

  // --- Pass 3: ordered aggregation ---
  if (options_.ordered_aggregation) {
    struct OrderRule {
      std::vector<int64_t> Apply(LogicalOp* op) {
        std::vector<std::vector<int64_t>> child_orders;
        for (auto& child : op->children) {
          child_orders.push_back(Apply(child.get()));
        }
        switch (op->kind) {
          case LogicalKind::kScan: {
            std::vector<int64_t> order;
            for (const std::string& name : op->table->sorted_by()) {
              bool found = false;
              for (size_t i = 0; i < op->outputs.size(); ++i) {
                if (EqualsIgnoreCase(op->outputs[i].name, name)) {
                  order.push_back(op->outputs[i].id);
                  found = true;
                  break;
                }
              }
              if (!found) break;
            }
            return order;
          }
          case LogicalKind::kFilter:
          case LogicalKind::kLimit:
          case LogicalKind::kModelJoin:
            return child_orders[0];
          case LogicalKind::kProject: {
            std::vector<int64_t> order;
            for (int64_t id : child_orders[0]) {
              bool mapped = false;
              for (size_t i = 0; i < op->exprs.size(); ++i) {
                if (op->exprs[i]->kind == ExprKind::kColumnRef &&
                    op->exprs[i]->column_id == id) {
                  order.push_back(op->outputs[i].id);
                  mapped = true;
                  break;
                }
              }
              if (!mapped) break;
            }
            return order;
          }
          case LogicalKind::kHashJoin:
            return child_orders[0];  // probe order preserved
          case LogicalKind::kCrossJoin: {
            std::vector<int64_t> order = child_orders[0];
            for (int64_t id : child_orders[1]) order.push_back(id);
            return order;
          }
          case LogicalKind::kSort: {
            std::vector<int64_t> order;
            for (size_t i = 0; i < op->sort_keys.size(); ++i) {
              if (op->sort_keys[i]->kind != ExprKind::kColumnRef ||
                  !op->ascending[i]) {
                break;
              }
              order.push_back(op->sort_keys[i]->column_id);
            }
            return order;
          }
          case LogicalKind::kAggregate: {
            std::vector<int64_t> group_ids(op->groups.size(), -1);
            for (size_t g = 0; g < op->groups.size(); ++g) {
              if (op->groups[g]->kind == ExprKind::kColumnRef) {
                group_ids[g] = op->groups[g]->column_id;
              }
            }
            std::vector<size_t> prefix_groups;
            for (int64_t id : child_orders[0]) {
              auto it = std::find(group_ids.begin(), group_ids.end(), id);
              if (it == group_ids.end()) break;
              size_t g = static_cast<size_t>(it - group_ids.begin());
              if (std::find(prefix_groups.begin(), prefix_groups.end(), g) !=
                  prefix_groups.end()) {
                break;
              }
              prefix_groups.push_back(g);
            }
            if (prefix_groups.empty()) return {};
            // Reorder groups (and matching output columns) so the sorted
            // prefix comes first; the streaming operator requires it.
            std::vector<size_t> new_order = prefix_groups;
            for (size_t g = 0; g < op->groups.size(); ++g) {
              if (std::find(prefix_groups.begin(), prefix_groups.end(), g) ==
                  prefix_groups.end()) {
                new_order.push_back(g);
              }
            }
            std::vector<ExprPtr> groups;
            std::vector<BoundColumn> outputs;
            for (size_t g : new_order) {
              groups.push_back(std::move(op->groups[g]));
              outputs.push_back(op->outputs[g]);
            }
            for (size_t i = op->groups.size(); i < op->outputs.size(); ++i) {
              outputs.push_back(op->outputs[i]);
            }
            op->groups = std::move(groups);
            op->outputs = std::move(outputs);
            op->streaming = true;
            op->streaming_prefix = static_cast<int>(prefix_groups.size());
            std::vector<int64_t> order;
            for (size_t i = 0; i < prefix_groups.size(); ++i) {
              order.push_back(op->outputs[i].id);
            }
            return order;
          }
        }
        return {};
      }
    };
    OrderRule rule;
    rule.Apply(plan.get());
    INDBML_RETURN_IF_ERROR(check("ordered-aggregation"));
  }

  return plan;
}

namespace {

const char* BreakerName(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kAggregate:
      return "Aggregate";
    case LogicalKind::kSort:
      return "Sort";
    case LogicalKind::kLimit:
      return "Limit";
    default:
      return "?";
  }
}

}  // namespace

std::string PlanAnalysis::Describe() const {
  if (!parallel_safe) return "serial: " + serial_reason;
  if (cut == nullptr) return "parallel";
  return std::string("parallel, merge at ") + BreakerName(cut->kind);
}

PlanAnalysis Optimizer::Analyze(const LogicalOp& plan) const {
  PlanAnalysis analysis;

  // The partitioned table is the one scanned by the leftmost-deepest leaf
  // (the fact table in the generated ModelJoin queries). Every scan of that
  // table below the cut — it may appear on several join branches, e.g. the
  // LSTM kernel and recurrent paths — is partitioned identically, so
  // id-equijoins between branches stay partition-aligned.
  const LogicalOp* leaf = &plan;
  while (!leaf->children.empty()) leaf = leaf->children[0].get();
  if (leaf->kind != LogicalKind::kScan) {
    analysis.serial_reason = "no table scan at the leftmost leaf to partition";
    return analysis;
  }
  analysis.partitioned_table = leaf->table.get();
  analysis.partition_predicates = leaf->pushed;

  // Partition-property propagation, bottom-up. `has` marks a subtree
  // containing a partitioned scan; `col` is the binding id of the partition
  // (unique-id) column in the subtree's output, or -1 if it was projected
  // away; `cut` marks a subtree holding the plan's cut, above which
  // everything runs once over merged rows and needs no partition property.
  struct PInfo {
    bool has = false;
    int64_t col = -1;
    bool cut = false;
  };
  struct Walker {
    const storage::Table* target;
    const LogicalOp* cut = nullptr;
    std::string reason;  ///< first property no merge can repair

    void Fail(std::string why) {
      if (reason.empty()) reason = std::move(why);
    }

    /// `op` is a breaker whose output does not decompose over partitions.
    /// On the leftmost path over a subtree that decomposes it becomes the
    /// cut; elsewhere its per-morsel output would have to be merged before
    /// a join that runs per morsel, which one cut per plan cannot do.
    PInfo Break(const LogicalOp* op, bool leftmost, PInfo info) {
      if (!leftmost) {
        Fail(std::string(BreakerName(op->kind)) +
             " over the partitioned table on a join's build side");
        return info;
      }
      if (!reason.empty()) return info;  // the subtree below is serial
      cut = op;
      info.cut = true;
      return info;
    }

    PInfo Walk(const LogicalOp* op, bool leftmost) {
      switch (op->kind) {
        case LogicalKind::kScan: {
          PInfo info;
          if (op->table.get() != target) return info;
          info.has = true;
          const std::string& unique_col = op->table->unique_id_column();
          if (!unique_col.empty()) {
            for (const auto& c : op->outputs) {
              if (EqualsIgnoreCase(c.name, unique_col)) {
                info.col = c.id;
                break;
              }
            }
          }
          return info;
        }
        case LogicalKind::kFilter:
        case LogicalKind::kModelJoin:
          return Walk(op->children[0].get(), leftmost);
        case LogicalKind::kLimit: {
          PInfo info = Walk(op->children[0].get(), leftmost);
          if (info.cut || !info.has) return info;
          return Break(op, leftmost, info);  // a global LIMIT
        }
        case LogicalKind::kProject: {
          PInfo info = Walk(op->children[0].get(), leftmost);
          if (info.cut || !info.has || info.col < 0) return info;
          int64_t mapped = -1;
          for (size_t i = 0; i < op->exprs.size(); ++i) {
            if (op->exprs[i]->kind == ExprKind::kColumnRef &&
                op->exprs[i]->column_id == info.col) {
              mapped = op->outputs[i].id;
              break;
            }
          }
          info.col = mapped;
          return info;
        }
        case LogicalKind::kHashJoin: {
          PInfo l = Walk(op->children[0].get(), leftmost);
          if (l.cut) return l;
          PInfo r = Walk(op->children[1].get(), false);
          if (l.has && r.has) {
            // Both branches are partitioned: a join key must align them on
            // the partition column or partition-crossing matches get lost.
            bool aligned = false;
            for (size_t i = 0; i < op->probe_keys.size(); ++i) {
              if (op->probe_keys[i]->kind == ExprKind::kColumnRef &&
                  op->probe_keys[i]->column_id == l.col && l.col >= 0 &&
                  op->build_keys[i]->kind == ExprKind::kColumnRef &&
                  op->build_keys[i]->column_id == r.col && r.col >= 0) {
                aligned = true;
                break;
              }
            }
            if (!aligned) {
              Fail("join of two partitioned branches not aligned on the partition column");
            }
            return l;
          }
          if (l.has) return l;
          if (r.has) return r;
          return {};
        }
        case LogicalKind::kCrossJoin: {
          PInfo l = Walk(op->children[0].get(), leftmost);
          if (l.cut) return l;
          PInfo r = Walk(op->children[1].get(), false);
          if (l.has && r.has) {
            Fail("cross join of two partitioned branches");
            return l;
          }
          return l.has ? l : r;
        }
        case LogicalKind::kSort: {
          PInfo info = Walk(op->children[0].get(), leftmost);
          if (info.cut || !info.has) return info;
          // Concatenating per-partition results is only a global sort when
          // the leading key is the (ascending) partition column.
          if (op->sort_keys.empty() ||
              op->sort_keys[0]->kind != ExprKind::kColumnRef ||
              op->sort_keys[0]->column_id != info.col || info.col < 0 ||
              !op->ascending[0]) {
            return Break(op, leftmost, info);
          }
          return info;
        }
        case LogicalKind::kAggregate: {
          PInfo info = Walk(op->children[0].get(), leftmost);
          if (info.cut || !info.has) return info;
          for (size_t g = 0; g < op->groups.size(); ++g) {
            if (op->groups[g]->kind == ExprKind::kColumnRef &&
                op->groups[g]->column_id == info.col && info.col >= 0) {
              info.col = op->outputs[g].id;
              return info;
            }
          }
          return Break(op, leftmost, info);  // groups may span partitions
        }
      }
      return {};
    }
  };
  Walker walker{analysis.partitioned_table, nullptr, {}};
  PInfo root = walker.Walk(&plan, true);
  if (walker.cut != nullptr) {
    analysis.parallel_safe = true;
    analysis.cut = walker.cut;
  } else if (!walker.reason.empty()) {
    analysis.serial_reason = walker.reason;
  } else if (!root.has) {
    // Every partition would emit an identical copy of the root's rows.
    analysis.serial_reason = "the plan's output does not come from the partitioned scan";
  } else {
    analysis.parallel_safe = true;
  }
  return analysis;
}

}  // namespace indbml::sql
