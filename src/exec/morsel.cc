#include "exec/morsel.h"

#include <algorithm>

#include "common/config.h"
#include "common/metrics.h"

namespace indbml::exec {

std::vector<storage::PartitionRange> MakeMorsels(
    const storage::Table& table, int64_t morsel_rows,
    const std::vector<ScanPredicate>& predicates) {
  if (morsel_rows <= 0) morsel_rows = kDefaultMorselRows;
  const int64_t n = table.num_rows();
  std::vector<storage::PartitionRange> morsels;
  if (n == 0) return morsels;
  morsels.reserve(static_cast<size_t>((n + morsel_rows - 1) / morsel_rows));

  // Group alignment: never split a run of equal ids across morsels (§4.4's
  // repartitioning-free guarantee depends on id groups staying within one
  // worker's row range).
  const storage::Column* id = nullptr;
  if (!table.unique_id_column().empty()) {
    Result<int> idx = table.ColumnIndex(table.unique_id_column());
    if (idx.ok() &&
        table.column(idx.ValueOrDie()).type() == storage::DataType::kInt64) {
      id = &table.column(idx.ValueOrDie());
    }
  }

  // True if the zone maps reject every block overlapping [begin, end).
  const int64_t rows_per_block = table.rows_per_block();
  // A table that was never finalized has no zone maps; its scans report
  // the error when they open.
  auto pruned = [&](int64_t begin, int64_t end) {
    if (predicates.empty() || !table.finalized()) return false;
    for (int64_t b = begin / rows_per_block; b <= (end - 1) / rows_per_block; ++b) {
      if (!ZoneMapRejectsBlock(table, b, predicates)) return false;
    }
    return true;
  };

  int64_t begin = 0;
  int64_t num_pruned = 0;
  while (begin < n) {
    int64_t end = std::min<int64_t>(begin + morsel_rows, n);
    if (id != nullptr) {
      while (end < n && id->GetInt64(end) == id->GetInt64(end - 1)) ++end;
    }
    if (pruned(begin, end)) {
      ++num_pruned;
    } else {
      morsels.push_back({begin, end});
    }
    begin = end;
  }
  if (num_pruned > 0) {
    static metrics::Counter* const counter =
        metrics::Registry::Global().counter("exec.morsels_pruned");
    counter->Increment(num_pruned);
  }
  return morsels;
}

}  // namespace indbml::exec
