#include "exec/fused_scan.h"

#include <algorithm>

#include "common/metrics.h"

namespace indbml::exec {

namespace {

metrics::Counter* FusedScansCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Global().counter("exec.fused_scans");
  return counter;
}

}  // namespace

FusedTableScanOperator::FusedTableScanOperator(
    storage::TablePtr table, storage::PartitionRange range,
    std::vector<int> columns, std::vector<ScanPredicate> predicates,
    std::vector<ExprPtr> residual_conditions, std::vector<int> projection,
    std::vector<std::string> names)
    : table_(std::move(table)),
      range_(range),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)),
      residual_conditions_(std::move(residual_conditions)),
      projection_(std::move(projection)),
      names_(std::move(names)) {
  for (int c : columns_) {
    scan_types_.push_back(table_->fields()[static_cast<size_t>(c)].type);
  }
  for (int p : projection_) {
    types_.push_back(scan_types_[static_cast<size_t>(p)]);
  }
}

FusedTableScanOperator::FusedTableScanOperator(
    MorselBound, storage::TablePtr table, std::vector<int> columns,
    std::vector<ScanPredicate> predicates,
    std::vector<ExprPtr> residual_conditions, std::vector<int> projection,
    std::vector<std::string> names)
    : FusedTableScanOperator(std::move(table), storage::PartitionRange{0, 0},
                             std::move(columns), std::move(predicates),
                             std::move(residual_conditions),
                             std::move(projection), std::move(names)) {
  morsel_bound_ = true;
}

Status FusedTableScanOperator::Open(ExecContext*) {
  if (!table_->finalized()) {
    return Status::Internal("scanning a non-finalized table: " + table_->name());
  }
  if (morsel_bound_) range_ = {0, 0};
  cursor_ = range_.begin;
  stats_ = {};
  FusedScansCounter()->Increment();
  return Status::OK();
}

Status FusedTableScanOperator::Rewind(ExecContext* ctx) {
  if (morsel_bound_) {
    range_ = {ctx->morsel_begin, ctx->morsel_end};
  }
  cursor_ = range_.begin;
  return Status::OK();
}

void FusedTableScanOperator::ApplyPredicate(const ScanPredicate& p,
                                            int64_t begin, int64_t rows) {
  const storage::Column& col = table_->column(p.column);
  const float v = p.value.AsFloat();
  uint8_t* mask = mask_.data();
  switch (col.type()) {
    case DataType::kFloat:
      AndMaskCompareConstFloat(p.op, col.float_data() + begin, v, rows, mask);
      return;
    case DataType::kInt64: {
      const int64_t* d = col.int_data() + begin;
      if (ComparesInt64(*table_, p)) {
        AndMaskCompareConstInt64(p.op, d, p.value.i, rows, mask);
      } else {
        for (int64_t i = 0; i < rows; ++i) {
          mask[i] = mask[i] &
                    (CompareScalars(static_cast<float>(d[i]), p.op, v) ? 1 : 0);
        }
      }
      return;
    }
    case DataType::kBool: {
      const uint8_t* d = col.bool_data() + begin;
      for (int64_t i = 0; i < rows; ++i) {
        mask[i] = mask[i] & (CompareScalars(d[i] != 0 ? 1.0f : 0.0f, p.op, v) ? 1 : 0);
      }
      return;
    }
  }
}

Status FusedTableScanOperator::ApplyResiduals(int64_t begin, int64_t rows) {
  window_.Reset(scan_types_);
  for (size_t ci = 0; ci < columns_.size(); ++ci) {
    const storage::Column& col = table_->column(columns_[ci]);
    window_.column(static_cast<int64_t>(ci)) =
        Vector::View(col.type(), col.buffer(), begin, rows);
  }
  window_.size = rows;
  uint8_t* mask = mask_.data();
  for (const ExprPtr& cond : residual_conditions_) {
    INDBML_RETURN_NOT_OK(EvaluateExpr(*cond, window_, &cond_));
    cond_.Flatten();
    const uint8_t* c = std::as_const(cond_).bools();
    for (int64_t i = 0; i < rows; ++i) {
      mask[i] = mask[i] & (c[i] != 0 ? 1 : 0);
    }
  }
  return Status::OK();
}

Status FusedTableScanOperator::Next(ExecContext*, DataChunk* out, bool* eof) {
  const int64_t rows_per_block = table_->rows_per_block();
  const bool filtering = !predicates_.empty() || !residual_conditions_.empty();
  while (cursor_ < range_.end) {
    // Zone-map block pruning, identical to the unfused scan: only pushed
    // predicates prune (residual conditions are arbitrary expressions).
    if (!predicates_.empty()) {
      int64_t block = cursor_ / rows_per_block;
      int64_t block_end = std::min((block + 1) * rows_per_block, range_.end);
      if (cursor_ % rows_per_block == 0 && block_end <= range_.end) {
        ++stats_.blocks_total;
        if (ZoneMapRejectsBlock(*table_, block, predicates_)) {
          ++stats_.blocks_pruned;
          cursor_ = block_end;
          continue;
        }
      }
    }

    int64_t window_end = std::min(cursor_ + kDefaultVectorSize, range_.end);
    if (!predicates_.empty()) {
      window_end = std::min(window_end,
                            ((cursor_ / rows_per_block) + 1) * rows_per_block);
    }
    const int64_t window_rows = window_end - cursor_;

    SelectionPtr sel;
    if (filtering) {
      mask_.assign(static_cast<size_t>(window_rows), 1);
      for (const ScanPredicate& p : predicates_) {
        ApplyPredicate(p, cursor_, window_rows);
      }
      INDBML_RETURN_NOT_OK(ApplyResiduals(cursor_, window_rows));
      passing_.clear();
      passing_.reserve(static_cast<size_t>(window_rows));
      AppendMaskIndices(mask_.data(), window_rows, 0, &passing_);
      if (passing_.empty()) {
        cursor_ = window_end;
        continue;
      }
      sel = std::make_shared<const SelectionVector>(passing_);
    }

    for (size_t oi = 0; oi < projection_.size(); ++oi) {
      const storage::Column& col =
          table_->column(columns_[static_cast<size_t>(projection_[oi])]);
      Vector view = Vector::View(col.type(), col.buffer(), cursor_, window_rows);
      out->column(static_cast<int64_t>(oi)) =
          sel != nullptr ? view.WithSelection(sel) : std::move(view);
    }
    out->size = sel != nullptr ? sel->size() : window_rows;
    cursor_ = window_end;
    stats_.rows_emitted += out->size;
    *eof = cursor_ >= range_.end;
    return Status::OK();
  }
  *eof = true;
  return Status::OK();
}

}  // namespace indbml::exec
