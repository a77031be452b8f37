#include "exec/basic_operators.h"

#include <algorithm>
#include <utility>

#include "common/config.h"

namespace indbml::exec {

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr condition)
    : child_(std::move(child)), condition_(std::move(condition)) {}

Status FilterOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  while (out->size == 0) {
    in_.Reset(child_->output_types());
    bool child_eof = false;
    INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &child_eof));
    if (in_.size > 0) {
      Vector mask(DataType::kBool);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*condition_, in_, &mask));
      // A bare column-ref condition yields a view that may carry the
      // input's selection; flatten so the mask scan is one linear pass.
      mask.Flatten();
      const uint8_t* m = std::as_const(mask).bools();
      std::vector<int32_t> passing;
      passing.reserve(static_cast<size_t>(in_.size));
      AppendMaskIndices(m, in_.size, 0, &passing);
      // Survivors become a selection over the input's views — no row data
      // moves; WithSelection composes with any selection already present.
      if (!passing.empty()) {
        auto sel = std::make_shared<const SelectionVector>(std::move(passing));
        for (int64_t c = 0; c < in_.num_columns(); ++c) {
          out->column(c) = in_.column(c).WithSelection(sel);
        }
        out->size = sel->size();
      }
    }
    if (child_eof) {
      *eof = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

ProjectOperator::ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)), names_(std::move(names)) {
  for (const auto& e : exprs_) types_.push_back(e->type);
}

Status ProjectOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  in_.Reset(child_->output_types());
  INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, eof));
  if (in_.size == 0) return Status::OK();
  for (size_t i = 0; i < exprs_.size(); ++i) {
    INDBML_RETURN_NOT_OK(
        EvaluateExpr(*exprs_[i], in_, &out->column(static_cast<int64_t>(i))));
  }
  out->size = in_.size;
  return Status::OK();
}

Status LimitOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (remaining_ <= 0) {
    *eof = true;
    return Status::OK();
  }
  INDBML_RETURN_NOT_OK(child_->Next(ctx, out, eof));
  if (out->size > remaining_) {
    out->SetCardinality(remaining_);
  }
  remaining_ -= out->size;
  if (remaining_ <= 0) *eof = true;
  return Status::OK();
}

SortOperator::SortOperator(OperatorPtr child, std::vector<ExprPtr> keys,
                           std::vector<bool> ascending)
    : child_(std::move(child)), keys_(std::move(keys)), ascending_(std::move(ascending)) {}

Status SortOperator::Open(ExecContext* ctx) {
  sorted_ = false;
  return child_->Open(ctx);
}

Status SortOperator::Rewind(ExecContext* ctx) {
  run_ = SortedRun();
  cursor_ = 0;
  sorted_ = false;
  return child_->Rewind(ctx);
}

Status SortOperator::Materialize(ExecContext* ctx) {
  QueryResult rows;
  rows.names = child_->output_names();
  rows.types = child_->output_types();
  INDBML_RETURN_NOT_OK(DrainAppend(child_.get(), ctx, &rows));
  INDBML_RETURN_NOT_OK(SortRows(keys_, ascending_, std::move(rows), &run_));
  cursor_ = 0;
  sorted_ = true;
  return Status::OK();
}

Status SortOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (!sorted_) INDBML_RETURN_NOT_OK(Materialize(ctx));
  const size_t end = std::min(run_.order.size(),
                              cursor_ + static_cast<size_t>(kDefaultVectorSize));
  if (cursor_ < end) {
    std::vector<std::pair<const DataChunk*, int32_t>> rows;
    rows.reserve(end - cursor_);
    for (; cursor_ < end; ++cursor_) {
      const auto [c, r] = run_.order[cursor_];
      rows.emplace_back(&run_.rows.chunks[static_cast<size_t>(c)], r);
    }
    GatherRows(rows, out);
  }
  *eof = cursor_ >= run_.order.size();
  return Status::OK();
}

}  // namespace indbml::exec
