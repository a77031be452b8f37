#ifndef INDBML_EXEC_MERGE_H_
#define INDBML_EXEC_MERGE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/morsel.h"
#include "exec/operator.h"

namespace indbml::exec {

// Partial states of the pipeline breaker at a plan's cut (sql/optimizer.h,
// PlanAnalysis::cut). The plan below the cut runs per morsel and ends in
// one of these merges instead of the result collector; the merged rows then
// feed the operators above the cut once (exec/executor.h, JobSpec).
//
// Every merge folds its morsel slots in morsel-index order. Morsels depend
// only on the table, the morsel size and the pushed predicates, so a query
// gives bit-identical rows — float sums included — at any worker count.

/// Partial aggregate: each morsel folds its rows into its own GroupTable
/// (SUM/COUNT/MIN/MAX; AVG as sum and count); Merge folds the tables in
/// morsel order and finalizes every group.
std::shared_ptr<MorselMerge> MakeAggregateMerge(int64_t num_morsels,
                                                std::vector<ExprPtr> groups,
                                                std::vector<std::string> group_names,
                                                std::vector<AggregateSpec> aggregates);

/// Sorted runs: each morsel stably sorts its rows; Merge k-way merges the
/// runs, breaking ties by morsel index — the stable sort of the rows in
/// morsel (= table) order.
std::shared_ptr<MorselMerge> MakeSortMerge(int64_t num_morsels, std::vector<ExprPtr> keys,
                                           std::vector<bool> ascending,
                                           std::vector<std::string> names,
                                           std::vector<DataType> types);

/// Local limits: each morsel keeps its first `limit` rows; Merge takes the
/// first `limit` rows in morsel order. Satisfied once the consumed morsels
/// with the lowest indexes, without a gap, hold `limit` rows: the executor
/// then stops handing out morsels.
std::shared_ptr<MorselMerge> MakeLimitMerge(int64_t num_morsels, int64_t limit,
                                            std::vector<std::string> names,
                                            std::vector<DataType> types);

/// \brief Materialised rows in ORDER BY order.
struct SortedRun {
  QueryResult rows;
  /// (chunk, row) of each output row, in sorted order.
  std::vector<std::pair<int32_t, int32_t>> order;
  /// Encoded sort keys of order[i] at [i * num_keys + k]: unsigned
  /// lexicographic order is ORDER BY's total order (integers compare
  /// exactly, -0.0 equals 0.0, NaN sorts above every number).
  std::vector<uint64_t> keys;
};

/// Stably sorts `rows` by `keys` into `run`. Shared by SortOperator and the
/// sort merge, so both order rows alike.
Status SortRows(const std::vector<ExprPtr>& keys, const std::vector<bool>& ascending,
                QueryResult rows, SortedRun* run);

/// Replaces `out`'s rows (already Reset to the source types) by the listed
/// (chunk, row) source rows, one typed gather per column.
void GatherRows(const std::vector<std::pair<const DataChunk*, int32_t>>& rows,
                DataChunk* out);

}  // namespace indbml::exec

#endif  // INDBML_EXEC_MERGE_H_
