#ifndef INDBML_EXEC_MORSEL_H_
#define INDBML_EXEC_MORSEL_H_

#include <atomic>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "storage/table.h"

namespace indbml::exec {

/// One unit of scheduling work: a contiguous row range of the partitioned
/// base table, plus its position in global row order (used by the
/// ResultCollector to reassemble the serial row order).
struct Morsel {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive
  int64_t index = 0;
};

/// Splits `table` into contiguous morsels of ~`morsel_rows` rows each.
///
/// When the table declares a unique-id column of type Int64, each morsel
/// boundary is extended forward while the id value does not change, so rows
/// sharing an id (e.g. the per-(id, node) model-table layout of paper §4.2)
/// never straddle two morsels. That keeps id-rooted streaming aggregation
/// over a morsel row-identical to serial execution: every group is fully
/// contained in exactly one morsel.
///
/// `predicates` are the pushed predicates of the plan's partitioned scan.
/// A morsel is dropped when the zone maps reject every block it overlaps
/// (ZoneMapRejectsBlock), so a selective range query dispatches only the
/// morsels that can return rows; a partly matching block keeps its morsel.
/// The kept morsels stay in table order. Dropped morsels are counted in the
/// `exec.morsels_pruned` counter.
std::vector<storage::PartitionRange> MakeMorsels(
    const storage::Table& table, int64_t morsel_rows,
    const std::vector<ScanPredicate>& predicates = {});

/// \brief Shared work queue of morsels with an atomic claim cursor.
///
/// All instances of a query pull from the same source until it runs dry —
/// the morsel-driven scheduling of Leis et al. (exec/executor.h). Each morsel is handed out exactly once.
/// Not movable/copyable (atomics); build the morsel vector with MakeMorsels
/// and pass it in.
class MorselSource {
 public:
  explicit MorselSource(std::vector<storage::PartitionRange> morsels)
      : morsels_(std::move(morsels)) {}

  MorselSource(const MorselSource&) = delete;
  MorselSource& operator=(const MorselSource&) = delete;

  /// Claims the next morsel. Returns false when the queue is dry or the
  /// source was aborted (a worker failed; the rest stop pulling).
  bool Next(Morsel* out) {
    if (aborted_.load(std::memory_order_acquire)) return false;
    int64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= static_cast<int64_t>(morsels_.size())) return false;
    out->begin = morsels_[static_cast<size_t>(i)].begin;
    out->end = morsels_[static_cast<size_t>(i)].end;
    out->index = i;
    return true;
  }

  /// Stops further hand-outs: a worker failed, the query was cancelled, or
  /// a LIMIT already holds its rows (MorselMerge::Satisfied).
  void Abort() { aborted_.store(true, std::memory_order_release); }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  int64_t num_morsels() const { return static_cast<int64_t>(morsels_.size()); }

 private:
  std::vector<storage::PartitionRange> morsels_;  ///< immutable after ctor
  /// lock-free: cursor_ hands out each index exactly once via relaxed
  /// fetch_add (morsels_ is immutable, so no ordering is needed for the
  /// read). aborted_ uses release/acquire so whatever the aborting worker
  /// wrote before Abort() is visible to workers that observe the stop.
  std::atomic<int64_t> cursor_{0};
  std::atomic<bool> aborted_{false};
};

/// \brief How a job's per-morsel outputs become its result.
///
/// The executor drains each claimed morsel's operator tree into
/// Consume(morsel index), and calls Merge once after the job's last
/// dispatch. One state slot per morsel, written only by the worker that
/// claimed that morsel (slots are disjoint, so no per-slot locking; the
/// executor's dispatch bookkeeping under its mutex provides the
/// happens-before edge to Merge). Merge folds the slots in morsel-index
/// order, so the result does not depend on which worker ran which morsel,
/// nor on how many workers there were.
///
/// ResultCollector concatenates (a plan that decomposes over morsels);
/// exec/merge.h holds the partial aggregates, sorted runs and local limits
/// of a plan cut at a pipeline breaker.
class MorselMerge {
 public:
  virtual ~MorselMerge() = default;

  /// Drains the open tree `root`, already Rewound to morsel `index`, into
  /// that morsel's slot. Called concurrently for distinct indexes.
  virtual Status Consume(int64_t index, Operator* root, ExecContext* ctx) = 0;

  /// True once the morsels consumed so far decide the result, so no further
  /// morsel needs to run (a LIMIT whose morsel-order prefix holds its rows).
  virtual bool Satisfied() const { return false; }

  /// Folds every slot in morsel-index order into the rows of the result.
  /// Call once, after the last Consume returned (consumes the slots).
  virtual QueryResult Merge() = 0;
};

/// \brief Reassembles per-morsel output batches into global row order.
///
/// The result schema is recorded once, from the first consumed tree.
class ResultCollector final : public MorselMerge {
 public:
  explicit ResultCollector(int64_t num_morsels)
      : batches_(static_cast<size_t>(num_morsels)) {}

  Status Consume(int64_t index, Operator* root, ExecContext* ctx) override
      INDBML_EXCLUDES(mu_);

  /// Concatenates all batches in morsel order.
  QueryResult Merge() override INDBML_EXCLUDES(mu_);

 private:
  struct Batch {
    std::vector<DataChunk> chunks;
    int64_t rows = 0;
  };

  /// Deliberately *not* guarded: see MorselMerge.
  std::vector<Batch> batches_;
  Mutex mu_;
  bool have_schema_ INDBML_GUARDED_BY(mu_) = false;
  std::vector<std::string> names_ INDBML_GUARDED_BY(mu_);
  std::vector<DataType> types_ INDBML_GUARDED_BY(mu_);
};

/// \brief First-error-wins sink shared by concurrent pipeline workers.
///
/// Local `std::mutex` + `Status` pairs cannot carry thread-safety
/// annotations (only members can be GUARDED_BY), so the executor uses this
/// small annotated class instead.
class FirstError {
 public:
  /// Records `s` if it is the first non-OK status seen.
  void Record(const Status& s) INDBML_EXCLUDES(mu_) {
    if (s.ok()) return;
    MutexLock lock(mu_);
    if (first_.ok()) first_ = s;
  }

  /// The first recorded error, or OK. Call after workers are joined for an
  /// authoritative answer.
  Status Get() const INDBML_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return first_;
  }

 private:
  mutable Mutex mu_;
  Status first_ INDBML_GUARDED_BY(mu_);
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_MORSEL_H_
