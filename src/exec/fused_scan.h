#ifndef INDBML_EXEC_FUSED_SCAN_H_
#define INDBML_EXEC_FUSED_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/scan.h"

namespace indbml::exec {

/// \brief Scan + filter + project collapsed into one operator
/// (planner-selected for [Project(column refs)] [Filter]* Scan chains, see
/// sql/physical_planner).
///
/// A morsel goes from the table's column buffers to an output chunk in one
/// pass: the window's survivor set is computed as a byte mask — pushed
/// predicates via the vectorized compare-against-constant kernels, residual
/// filter conditions via one expression evaluation over the flat window —
/// and the mask becomes a single selection vector over direct views of
/// table storage. No intermediate chunks, no per-operator selection
/// composition, no flatten copies between the operators it replaces.
///
/// Semantics are bit-identical to the unfused chain: pushed predicates use
/// the scan's comparison rule (ComparesInt64: int64 when both sides are
/// Int64, float otherwise; float columns through the 8-lane compare kernel),
/// residual conditions use the expression evaluator itself. Residual
/// conditions are evaluated on all window rows (survivors of the mask AND
/// are unchanged because conditions are row-local); the planner only fuses
/// conditions that cannot fail per-row (no div/mod).
class FusedTableScanOperator final : public Operator {
 public:
  /// Tag type selecting the morsel-bound constructor.
  struct MorselBound {};

  /// `columns`: table column indexes scanned (the fused chain's working
  /// set, in the scan node's output order). `residual_conditions`:
  /// bool-typed expressions over scan output *positions*. `projection`:
  /// scan output positions to emit, with `names` labeling them.
  FusedTableScanOperator(storage::TablePtr table, storage::PartitionRange range,
                         std::vector<int> columns,
                         std::vector<ScanPredicate> predicates,
                         std::vector<ExprPtr> residual_conditions,
                         std::vector<int> projection,
                         std::vector<std::string> names);

  FusedTableScanOperator(MorselBound, storage::TablePtr table,
                         std::vector<int> columns,
                         std::vector<ScanPredicate> predicates,
                         std::vector<ExprPtr> residual_conditions,
                         std::vector<int> projection,
                         std::vector<std::string> names);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override {
    return names_;
  }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return morsel_bound_; }

  const ScanStats& stats() const { return stats_; }

 private:
  /// ANDs predicate `p` over window rows [begin, begin + rows) into mask_.
  void ApplyPredicate(const ScanPredicate& p, int64_t begin, int64_t rows);
  /// ANDs all residual conditions over the window into mask_.
  Status ApplyResiduals(int64_t begin, int64_t rows);

  storage::TablePtr table_;
  storage::PartitionRange range_;
  std::vector<int> columns_;
  std::vector<ScanPredicate> predicates_;
  std::vector<ExprPtr> residual_conditions_;
  std::vector<int> projection_;
  std::vector<DataType> types_;        // projected output types
  std::vector<std::string> names_;     // projected output names
  std::vector<DataType> scan_types_;   // all scanned columns' types
  bool morsel_bound_ = false;
  int64_t cursor_ = 0;
  ScanStats stats_;
  // Per-window scratch, reused across Next calls.
  std::vector<uint8_t> mask_;
  std::vector<int32_t> passing_;
  DataChunk window_;
  Vector cond_{DataType::kBool};
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_FUSED_SCAN_H_
