#ifndef INDBML_EXEC_BASIC_OPERATORS_H_
#define INDBML_EXEC_BASIC_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/merge.h"
#include "exec/operator.h"

namespace indbml::exec {

/// \brief Row filter: emits only rows for which `condition` is true.
class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr condition);

  const std::vector<DataType>& output_types() const override {
    return child_->output_types();
  }
  const std::vector<std::string>& output_names() const override {
    return child_->output_names();
  }

  Status Open(ExecContext* ctx) override { return child_->Open(ctx); }
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override { return child_->Rewind(ctx); }
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  OperatorPtr child_;
  ExprPtr condition_;
  DataChunk in_;  ///< reused input buffer (no per-batch reallocation)
};

/// \brief Projection: computes one expression per output column.
class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                  std::vector<std::string> names);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override { return child_->Open(ctx); }
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override { return child_->Rewind(ctx); }
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
  DataChunk in_;  ///< reused input buffer (no per-batch reallocation)
};

/// \brief LIMIT n.
class LimitOperator final : public Operator {
 public:
  LimitOperator(OperatorPtr child, int64_t limit) : child_(std::move(child)), limit_(limit) {}

  const std::vector<DataType>& output_types() const override {
    return child_->output_types();
  }
  const std::vector<std::string>& output_names() const override {
    return child_->output_names();
  }

  Status Open(ExecContext* ctx) override {
    remaining_ = limit_;
    return child_->Open(ctx);
  }
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override {
    remaining_ = limit_;
    return child_->Rewind(ctx);
  }
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t remaining_ = 0;
};

/// \brief Replays a materialised QueryResult (derived tables, tests, and
/// the client-transfer baseline's re-ingest path).
class ChunkSourceOperator final : public Operator {
 public:
  explicit ChunkSourceOperator(std::shared_ptr<QueryResult> result)
      : result_(std::move(result)) {}

  const std::vector<DataType>& output_types() const override { return result_->types; }
  const std::vector<std::string>& output_names() const override {
    return result_->names;
  }

  Status Open(ExecContext*) override {
    index_ = 0;
    return Status::OK();
  }
  Status Next(ExecContext*, DataChunk* out, bool* eof) override {
    if (index_ >= result_->chunks.size()) {
      *eof = true;
      return Status::OK();
    }
    *out = result_->chunks[index_++];
    *eof = false;
    return Status::OK();
  }
  Status Rewind(ExecContext*) override {
    index_ = 0;
    return Status::OK();
  }

 private:
  std::shared_ptr<QueryResult> result_;
  size_t index_ = 0;
};

/// \brief ORDER BY: materialises the input and emits it stably sorted
/// (exec/merge.h SortRows; NaN sorts above every number).
class SortOperator final : public Operator {
 public:
  /// `ascending[i]` pairs with `keys[i]`.
  SortOperator(OperatorPtr child, std::vector<ExprPtr> keys, std::vector<bool> ascending);

  const std::vector<DataType>& output_types() const override {
    return child_->output_types();
  }
  const std::vector<std::string>& output_names() const override {
    return child_->output_names();
  }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  /// Drains the (already open) child and computes the output order. Runs
  /// lazily on the first Next after Open/Rewind, so a Rewind between
  /// morsels only re-sorts the new morsel's rows.
  Status Materialize(ExecContext* ctx);

  OperatorPtr child_;
  std::vector<ExprPtr> keys_;
  std::vector<bool> ascending_;
  SortedRun run_;
  size_t cursor_ = 0;  ///< next position in run_.order
  bool sorted_ = false;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_BASIC_OPERATORS_H_
