#ifndef INDBML_EXEC_AGGREGATE_H_
#define INDBML_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace indbml::exec {

enum class AggFunction { kSum, kCount, kMin, kMax, kAvg };

const char* AggFunctionName(AggFunction fn);

/// One aggregate to compute: FUNCTION(argument). For COUNT(*) the argument
/// is null.
struct AggregateSpec {
  AggFunction function;
  ExprPtr argument;  ///< nullable for COUNT(*)
  DataType result_type;
  std::string name;
};

/// Running state of one aggregate within one group. Sums accumulate in
/// double precision so float summation matches the BLAS reference closely.
struct AggState {
  double sum = 0;
  int64_t count = 0;
  double min = 0;
  double max = 0;
  bool seen = false;

  void Update(double v) {
    sum += v;
    ++count;
    if (!seen || v < min) min = v;
    if (!seen || v > max) max = v;
    seen = true;
  }
  /// Folds another state of the same aggregate into this one (a partial
  /// aggregate merged across morsels; AVG merges as its sum and count).
  void Merge(const AggState& other) {
    if (!other.seen) return;
    sum += other.sum;
    count += other.count;
    if (!seen || other.min < min) min = other.min;
    if (!seen || other.max > max) max = other.max;
    seen = true;
  }
  Value Finalize(AggFunction fn, DataType result_type) const;
};

/// \brief Groups and their aggregate states, kept in first-seen order.
///
/// The table of HashAggregateOperator and the per-morsel partial aggregate
/// of a plan cut at an aggregate (exec/merge.h). Keys compare by their bit
/// patterns, so equal keys always land in one group (NaN keys of one bit
/// pattern included). The group order depends only on the order rows and
/// merged tables arrive in, never on hashing, so merging per-morsel tables
/// in morsel order gives the same groups, order and sums however many
/// workers produced them.
class GroupTable {
 public:
  GroupTable(std::vector<DataType> key_types, size_t num_aggregates);

  /// Evaluates the group keys and aggregate arguments over `in` and folds
  /// its rows into their groups.
  Status AddChunk(const std::vector<ExprPtr>& groups,
                  const std::vector<AggregateSpec>& aggregates, const DataChunk& in);

  /// Folds `other` (same keys and aggregates) into this table, taking its
  /// new groups in `other`'s order.
  void Merge(const GroupTable& other);

  /// A global aggregate (no keys) over no rows still yields one row: adds
  /// that row's empty group if the table has no keys and no groups.
  void EnsureGlobalGroup();

  int64_t num_groups() const { return static_cast<int64_t>(hashes_.size()); }

  /// Appends group `g` as one row of `out`: its key values, then each
  /// aggregate finalized.
  void EmitRow(int64_t g, const std::vector<AggregateSpec>& aggregates,
               DataChunk* out) const;

  /// Approximate bytes held (memory experiments and tracking).
  int64_t Bytes() const;

 private:
  /// The group of the key `parts` (hash `h`), created if new.
  int64_t FindOrInsert(const uint64_t* parts, uint64_t h);
  void Grow();

  std::vector<DataType> key_types_;
  size_t num_keys_;
  size_t num_aggs_;
  std::vector<uint64_t> keys_;    ///< [group * num_keys + k] key bit patterns
  std::vector<uint64_t> hashes_;  ///< per group
  std::vector<AggState> states_;  ///< [group * num_aggs + a]
  std::vector<int32_t> slots_;    ///< open addressing: group index or -1
  // Scratch reused across AddChunk calls.
  std::vector<Vector> key_vecs_;
  std::vector<Vector> arg_vecs_;
  std::vector<uint64_t> parts_;
};

/// \brief Hash-based grouped aggregation (pipeline breaker): the default
/// physical choice when the input carries no usable order. Emits its groups
/// in first-seen order.
class HashAggregateOperator final : public Operator {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> groups,
                        std::vector<std::string> group_names,
                        std::vector<AggregateSpec> aggregates);
  ~HashAggregateOperator() override;

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return child_->MorselDriven(); }

  /// Approximate bytes held by the hash table (memory experiments).
  int64_t HashTableBytes() const { return table_.Bytes(); }

 private:
  /// Drains the (already open) child into the group table. Runs lazily on
  /// the first Next after Open/Rewind so each morsel aggregates only its
  /// own rows.
  Status Consume(ExecContext* ctx);
  void ResetTable();

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;

  GroupTable table_;
  int64_t emit_cursor_ = 0;
  int64_t tracked_bytes_ = 0;
  bool consumed_ = false;
  DataChunk in_;  ///< reused input buffer (no per-batch reallocation)
};

/// \brief Order-based (streaming) aggregation (paper §4.4).
///
/// The first `prefix_count` group keys are guaranteed by the optimizer to be
/// a sorted/grouped prefix of the input (all rows with equal prefix values
/// arrive contiguously, e.g. the unique tuple ID after an order-preserving
/// join). The remaining keys are hashed *within* the current prefix group,
/// and all groups of a prefix are emitted as soon as the prefix changes.
///
/// With prefix_count == #groups this degenerates to a classic order-based
/// aggregation with O(1) state; with a shorter prefix the state is bounded
/// by the number of distinct remaining-key values per prefix group (one
/// layer's node count in the ModelJoin queries) instead of the whole input —
/// which is what makes the generated inference pipeline low-memory and
/// fully pipelined.
class StreamingAggregateOperator final : public Operator {
 public:
  StreamingAggregateOperator(OperatorPtr child, std::vector<ExprPtr> groups,
                             std::vector<std::string> group_names,
                             std::vector<AggregateSpec> aggregates, int prefix_count);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return child_->MorselDriven(); }

  /// Peak number of concurrently-held groups (memory observability).
  int64_t peak_group_count() const { return peak_group_count_; }

 private:
  struct GroupEntry {
    std::vector<Value> rest_key;
    std::vector<AggState> states;
  };

  void FlushPrefixGroup(DataChunk* out);

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
  int prefix_count_;

  bool group_active_ = false;
  bool input_eof_ = false;
  std::vector<Value> current_prefix_;
  std::unordered_map<uint64_t, std::vector<GroupEntry>> rest_groups_;
  std::vector<uint64_t> rest_insertion_order_;
  int64_t peak_group_count_ = 0;
  DataChunk in_;  ///< reused input buffer (no per-batch reallocation)
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_AGGREGATE_H_
