#ifndef INDBML_EXEC_EXECUTOR_H_
#define INDBML_EXEC_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace indbml::exec {

class SharedExecutor;

/// One query's unit of admission to the shared executor.
struct JobSpec {
  /// Builds the private operator tree of instance `instance` (bound to the
  /// prepared physical plan; shared state such as a ModelJoin's shared
  /// model is captured inside). Instances are created lazily, one per
  /// concurrently scheduled morsel, up to `num_instances`.
  std::function<Result<OperatorPtr>(int instance)> factory;
  /// Upper bound on concurrently running instances (the planner's worker
  /// count).
  int num_instances = 1;
  /// The query's morsels. Empty without a `merge` means one dispatch that
  /// drains instance 0 end to end: a plan lowered for one worker, or a
  /// morsel-driven plan whose morsels were all pruned (it yields the empty
  /// result with its schema).
  std::vector<storage::PartitionRange> morsels;
  /// Set for a plan cut at a pipeline breaker (sql/optimizer.h
  /// PlanAnalysis::cut): each morsel's rows go into the breaker's partial
  /// state (exec/merge.h) instead of the result collector, and `above_cut`
  /// must be set too. Such a job always runs its morsels, even on one
  /// instance, so its result does not depend on the worker count; with no
  /// morsels it runs no instance at all, only the finalize stage.
  std::shared_ptr<MorselMerge> merge;
  /// The finalize stage of a cut plan: builds the operators above the cut
  /// over a source of the merged breaker rows. Run once, by the worker that
  /// finalizes the job after its last dispatch.
  std::function<Result<OperatorPtr>(std::shared_ptr<QueryResult> merged)> above_cut;
  /// Stride-scheduling weight: a priority-2 query receives ~2x the morsel
  /// dispatches of a priority-1 query under contention. Clamped to >= 1.
  int priority = 1;
  storage::Catalog* catalog = nullptr;
  /// Runs once in QueryHandle::Cancel after morsel hand-outs stopped; the
  /// serving layer uses it to wake workers blocked outside the executor
  /// (the inference batcher's coalescing wait).
  std::function<void()> on_cancel;
};

/// \brief Caller-side handle on one submitted query.
///
/// Returned by SharedExecutor::Submit. Wait() blocks until the query
/// finished (or was cancelled) and consumes the result — call it once.
/// Cancel() aborts the query's MorselSource so in-flight workers stop
/// claiming morsels mid-query; the query then completes with
/// StatusCode::kCancelled.
class QueryHandle {
 public:
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  /// Blocks until the query finished; returns the assembled result or the
  /// first error (kCancelled after Cancel). Consumes the result.
  Result<QueryResult> Wait() INDBML_EXCLUDES(done_mu_);

  /// Requests cancellation: stops morsel hand-outs immediately (running
  /// morsels finish; the query never wedges the executor) and completes the
  /// query with kCancelled. Idempotent, callable from any thread.
  void Cancel();

  bool done() const INDBML_EXCLUDES(done_mu_);
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  friend class SharedExecutor;

  /// One lazily created worker-plan instance. The executor hands an
  /// instance to at most one dispatch at a time (free-list), so its
  /// operator tree and context need no locking of their own.
  struct Instance {
    OperatorPtr op;
    ExecContext ctx;
    bool open_ok = false;
  };

  explicit QueryHandle(JobSpec spec);

  /// True when the job has no morsels and runs as one drain of instance 0.
  bool whole_plan() const { return whole_plan_; }

  /// Runs the finalize stage: merges the morsel slots and, for a cut plan,
  /// the operators above the cut.
  Result<QueryResult> Finish();

  JobSpec spec_;  ///< morsels moved out into source_, merge into merge_
  const bool whole_plan_;
  MorselSource source_;
  std::shared_ptr<MorselMerge> merge_;
  FirstError errors_;
  std::atomic<bool> cancelled_{false};

  // --- Scheduling state, guarded by the owning SharedExecutor's mu_ (a
  // member of another object cannot be named in GUARDED_BY; executor.cc
  // only touches these under mu_, except during finalize when the job has
  // been removed from the run queue and has no active dispatches).
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<int> free_instances_;
  int created_instances_ = 0;
  int active_dispatches_ = 0;
  bool no_more_work_ = false;
  int64_t pass_ = 0;
  int64_t stride_ = 0;

  mutable Mutex done_mu_;
  CondVar done_cv_;
  bool done_ INDBML_GUARDED_BY(done_mu_) = false;
  Status status_ INDBML_GUARDED_BY(done_mu_);
  QueryResult result_ INDBML_GUARDED_BY(done_mu_);
};

/// \brief The morsel executor: one fixed set of worker threads interleaving
/// the morsels of every query submitted to it.
///
/// It is the engine's only morsel scheduler. QueryEngine runs each of its
/// queries as one job on an engine-owned instance; the serving stack
/// (server::QueryServer) shares one instance between all sessions.
/// Scheduling is stride-based — each dispatch picks the runnable job with
/// the smallest pass value and advances it by 1/priority — so concurrent
/// queries share the workers fairly and a higher-priority query drains
/// proportionally faster. Dispatch granularity is one morsel, so a long
/// scan never blocks a short query for more than one morsel's worth of
/// work.
///
/// Admission control: at most `max_inflight` jobs run concurrently; up to
/// `max_queued` more wait in FIFO order; beyond that Submit fails fast with
/// kResourceExhausted. Run and wait queue sizes are exported as the
/// server.inflight / server.queue_depth gauges.
///
/// Worker-plan instances are created and Opened lazily on worker threads,
/// so an instance's Open must not wait for another instance to arrive. The
/// one cross-instance step, the per-query ModelJoin build, is barrier-free
/// (inference::SharedModel::Build): every instance that opens joins the
/// build, and none waits for one that has not started.
class SharedExecutor {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread.
    int worker_threads = 0;
    /// Jobs running concurrently before new submits queue.
    int max_inflight = 8;
    /// Queued jobs before Submit rejects with kResourceExhausted.
    int max_queued = 64;
  };

  explicit SharedExecutor(const Options& options);
  ~SharedExecutor();

  SharedExecutor(const SharedExecutor&) = delete;
  SharedExecutor& operator=(const SharedExecutor&) = delete;

  /// Admits one query. Returns the handle to Wait/Cancel on, or
  /// kResourceExhausted when both the run and wait queues are full.
  Result<std::shared_ptr<QueryHandle>> Submit(JobSpec spec)
      INDBML_EXCLUDES(mu_);

  int num_threads() const { return num_threads_; }

 private:
  /// One claimed unit of work: a (job, instance, morsel) triple, the
  /// whole-plan drain of a job without morsels, or a bare finalize pass for
  /// a job that drained.
  struct Dispatch {
    std::shared_ptr<QueryHandle> job;
    Morsel morsel;
    int instance = 0;
    bool finalize_only = false;
    bool instance_dead = false;
  };

  void WorkerLoop() INDBML_EXCLUDES(mu_);
  bool FindWorkLocked(Dispatch* d) INDBML_REQUIRES(mu_);
  void RunDispatch(Dispatch* d);
  /// Returns true when the job fully drained and this worker must finalize.
  bool CompleteDispatchLocked(Dispatch* d) INDBML_REQUIRES(mu_);
  /// Closes and frees the instances, drops the plan, assembles the result
  /// and wakes waiters. Called without mu_ — the job is out of running_
  /// with no active dispatches.
  void FinalizeJob(const std::shared_ptr<QueryHandle>& job);
  int64_t MinPassLocked() const INDBML_REQUIRES(mu_);
  void PublishGaugesLocked() const INDBML_REQUIRES(mu_);

  const Options options_;
  const int num_threads_;
  Mutex mu_;
  CondVar cv_work_;
  std::vector<std::shared_ptr<QueryHandle>> running_ INDBML_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<QueryHandle>> queued_ INDBML_GUARDED_BY(mu_);
  bool shutdown_ INDBML_GUARDED_BY(mu_) = false;
  /// Workers run WorkerLoop as long-lived pool tasks (all engine threads
  /// come from common::ThreadPool); destroyed first in ~SharedExecutor.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_EXECUTOR_H_
