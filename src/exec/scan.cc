#include "exec/scan.h"

#include <algorithm>

namespace indbml::exec {

namespace {

/// Can any value in [lo, hi] satisfy `x op v`?
template <typename T>
bool RangeMayMatch(T lo, T hi, BinaryOp op, T v) {
  switch (op) {
    case BinaryOp::kEq:
      return lo <= v && v <= hi;
    case BinaryOp::kNe:
      return !(lo == v && hi == v);
    case BinaryOp::kLt:
      return lo < v;
    case BinaryOp::kLe:
      return lo <= v;
    case BinaryOp::kGt:
      return hi > v;
    case BinaryOp::kGe:
      return hi >= v;
    default:
      return true;
  }
}

}  // namespace

bool ZoneMapRejectsBlock(const storage::Table& table, int64_t block,
                         const std::vector<ScanPredicate>& predicates) {
  for (const ScanPredicate& p : predicates) {
    const storage::BlockStats& bs =
        table.block_stats(p.column)[static_cast<size_t>(block)];
    if (bs.has_nan && p.op == BinaryOp::kNe) continue;
    // Int64-to-float rounding is monotone, so the float bounds still
    // enclose every row's float value.
    const bool may_match =
        ComparesInt64(table, p)
            ? RangeMayMatch(bs.min.i, bs.max.i, p.op, p.value.i)
            : RangeMayMatch(bs.min.AsFloat(), bs.max.AsFloat(), p.op,
                            p.value.AsFloat());
    if (!may_match) return true;
  }
  return false;
}

TableScanOperator::TableScanOperator(storage::TablePtr table,
                                     storage::PartitionRange range,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates)
    : table_(std::move(table)),
      range_(range),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)) {
  for (int c : columns_) {
    types_.push_back(table_->fields()[static_cast<size_t>(c)].type);
    names_.push_back(table_->fields()[static_cast<size_t>(c)].name);
  }
}

TableScanOperator::TableScanOperator(MorselBound, storage::TablePtr table,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates)
    : TableScanOperator(std::move(table), storage::PartitionRange{0, 0},
                        std::move(columns), std::move(predicates)) {
  morsel_bound_ = true;
}

Status TableScanOperator::Open(ExecContext*) {
  if (!table_->finalized()) {
    return Status::Internal("scanning a non-finalized table: " + table_->name());
  }
  if (morsel_bound_) range_ = {0, 0};
  cursor_ = range_.begin;
  stats_ = {};  // stats accumulate across Rewinds, reset only here
  return Status::OK();
}

Status TableScanOperator::Rewind(ExecContext* ctx) {
  if (morsel_bound_) {
    range_ = {ctx->morsel_begin, ctx->morsel_end};
  }
  cursor_ = range_.begin;
  return Status::OK();
}

bool TableScanOperator::RowPasses(int64_t r) const {
  for (const ScanPredicate& p : predicates_) {
    const storage::Column& col = table_->column(p.column);
    if (ComparesInt64(*table_, p)) {
      if (!CompareScalars(col.GetInt64(r), p.op, p.value.i)) return false;
      continue;
    }
    float v;
    switch (col.type()) {
      case DataType::kInt64:
        v = static_cast<float>(col.GetInt64(r));
        break;
      case DataType::kFloat:
        v = col.GetFloat(r);
        break;
      default:
        v = col.GetBool(r) ? 1.0f : 0.0f;
        break;
    }
    if (!CompareScalars(v, p.op, p.value.AsFloat())) return false;
  }
  return true;
}

Status TableScanOperator::Next(ExecContext*, DataChunk* out, bool* eof) {
  const int64_t rows_per_block = table_->rows_per_block();
  while (cursor_ < range_.end) {
    // Block pruning: at a block boundary, consult the zone maps before
    // touching rows.
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

    // One contiguous window per Next: up to kDefaultVectorSize base rows,
    // clipped to the block when predicates are present so pruning decisions
    // stay per-block.
    int64_t window_end = std::min(cursor_ + kDefaultVectorSize, range_.end);
    if (!predicates_.empty()) {
      window_end = std::min(window_end,
                            ((cursor_ / rows_per_block) + 1) * rows_per_block);
    }
    const int64_t window_rows = window_end - cursor_;

    SelectionPtr sel;
    if (!predicates_.empty()) {
      std::vector<int32_t> passing;
      for (int64_t r = cursor_; r < window_end; ++r) {
        if (RowPasses(r)) passing.push_back(static_cast<int32_t>(r - cursor_));
      }
      if (passing.empty()) {
        cursor_ = window_end;
        continue;  // nothing survived this window; keep scanning
      }
      sel = std::make_shared<const SelectionVector>(std::move(passing));
    }

    // Emit views over the table's column buffers — no row data is copied.
    for (size_t ci = 0; ci < columns_.size(); ++ci) {
      const storage::Column& col = table_->column(columns_[ci]);
      Vector view = Vector::View(col.type(), col.buffer(), cursor_, window_rows);
      out->column(static_cast<int64_t>(ci)) =
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
