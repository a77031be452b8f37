#include "exec/executor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace indbml::exec {

namespace {

/// Stride numerator: pass advances by kStrideUnit / priority per dispatch,
/// so priorities act as proportional shares (classic stride scheduling).
constexpr int64_t kStrideUnit = 1 << 20;

/// Runs one claimed morsel on an open operator tree: publishes the row
/// range via `ctx`, Rewinds the plan and drains it into the morsel's slot.
Status RunMorsel(Operator* root, ExecContext* ctx, const Morsel& morsel,
                 MorselMerge* merge) {
  ctx->morsel_begin = morsel.begin;
  ctx->morsel_end = morsel.end;
  ctx->morsel_index = morsel.index;
  INDBML_RETURN_NOT_OK(root->Rewind(ctx));
  return merge->Consume(morsel.index, root, ctx);
}

}  // namespace

// ---------------------------------------------------------------- QueryHandle

QueryHandle::QueryHandle(JobSpec spec)
    : spec_(std::move(spec)),
      whole_plan_(spec_.morsels.empty() && spec_.merge == nullptr),
      source_(std::move(spec_.morsels)),
      // A whole-plan job drains into slot 0.
      merge_(spec_.merge != nullptr
                 ? std::move(spec_.merge)
                 : std::make_shared<ResultCollector>(
                       std::max<int64_t>(1, source_.num_morsels()))) {
  if (spec_.priority < 1) spec_.priority = 1;
  if (spec_.num_instances < 1 || whole_plan()) spec_.num_instances = 1;
  stride_ = kStrideUnit / spec_.priority;
  instances_.resize(static_cast<size_t>(spec_.num_instances));
}

void QueryHandle::Cancel() {
  if (cancelled_.exchange(true, std::memory_order_acq_rel)) return;
  // The cancellation token is wired straight to the morsel source: workers
  // observe the abort at their next claim and stop mid-query. Operators
  // that block poll cancelled_ through ExecContext::interrupt.
  source_.Abort();
  if (spec_.on_cancel != nullptr) spec_.on_cancel();
}

bool QueryHandle::done() const {
  MutexLock lock(done_mu_);
  return done_;
}

Result<QueryResult> QueryHandle::Finish() {
  QueryResult merged = merge_->Merge();
  if (spec_.above_cut == nullptr) return merged;
  trace::Span span("executor finalize above cut");
  INDBML_ASSIGN_OR_RETURN(
      OperatorPtr root, spec_.above_cut(std::make_shared<QueryResult>(std::move(merged))));
  ExecContext ctx;
  ctx.catalog = spec_.catalog;
  ctx.interrupt = &cancelled_;
  return DrainOperator(root.get(), &ctx);
}

Result<QueryResult> QueryHandle::Wait() {
  MutexLock lock(done_mu_);
  while (!done_) done_cv_.Wait(done_mu_);
  if (!status_.ok()) return status_;
  return std::move(result_);
}

// -------------------------------------------------------------- SharedExecutor

SharedExecutor::SharedExecutor(const Options& options)
    : options_(options),
      num_threads_(options.worker_threads > 0 ? options.worker_threads
                                              : HardwareConcurrency()) {
  pool_ = std::make_unique<ThreadPool>(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

SharedExecutor::~SharedExecutor() {
  std::vector<std::shared_ptr<QueryHandle>> orphans;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    for (auto& job : running_) {
      job->source_.Abort();
      orphans.push_back(job);
    }
    for (auto& job : queued_) orphans.push_back(job);
    running_.clear();
    queued_.clear();
  }
  cv_work_.NotifyAll();
  pool_.reset();  // joins the worker loops; no dispatch outlives this
  // Jobs stranded by the shutdown complete with kCancelled so a concurrent
  // Wait() never hangs. Workers are gone: finalizing here is single-threaded.
  for (auto& job : orphans) {
    if (!job->done()) FinalizeJob(job);
  }
}

int64_t SharedExecutor::MinPassLocked() const {
  int64_t min_pass = std::numeric_limits<int64_t>::max();
  for (const auto& job : running_) min_pass = std::min(min_pass, job->pass_);
  return min_pass == std::numeric_limits<int64_t>::max() ? 0 : min_pass;
}

void SharedExecutor::PublishGaugesLocked() const {
  metrics::Registry& registry = metrics::Registry::Global();
  registry.gauge("server.inflight")->Set(static_cast<int64_t>(running_.size()));
  registry.gauge("server.queue_depth")->Set(static_cast<int64_t>(queued_.size()));
}

Result<std::shared_ptr<QueryHandle>> SharedExecutor::Submit(JobSpec spec) {
  INDBML_CHECK(spec.factory != nullptr) << "JobSpec without a plan factory";
  auto job = std::shared_ptr<QueryHandle>(new QueryHandle(std::move(spec)));
  {
    MutexLock lock(mu_);
    INDBML_CHECK(!shutdown_) << "Submit on a SharedExecutor being destroyed";
    if (static_cast<int>(running_.size()) < options_.max_inflight) {
      // New jobs enter at the current minimum pass so they compete
      // immediately without erasing the shares already consumed.
      job->pass_ = MinPassLocked();
      running_.push_back(job);
    } else if (static_cast<int>(queued_.size()) < options_.max_queued) {
      queued_.push_back(job);
    } else {
      return Status::ResourceExhausted(
          "serving queue full: " + std::to_string(running_.size()) +
          " in flight, " + std::to_string(queued_.size()) + " queued");
    }
    PublishGaugesLocked();
  }
  cv_work_.NotifyAll();
  return job;
}

bool SharedExecutor::FindWorkLocked(Dispatch* d) {
  QueryHandle* best = nullptr;
  std::shared_ptr<QueryHandle> best_ref;
  for (const auto& job : running_) {
    if (job->no_more_work_) continue;
    if (job->free_instances_.empty() &&
        job->created_instances_ >= job->spec_.num_instances) {
      continue;  // all instances busy; its own dispatches will drain it
    }
    if (best == nullptr || job->pass_ < best->pass_) {
      best = job.get();
      best_ref = job;
    }
  }
  if (best == nullptr) return false;

  d->job = std::move(best_ref);
  best->pass_ += best->stride_;
  best->active_dispatches_++;
  if (best->whole_plan()) {
    best->no_more_work_ = true;  // the single dispatch is the whole query
  } else if (!best->source_.Next(&d->morsel)) {
    // Source dry or aborted (cancellation): this dispatch only carries the
    // finalize duty once the remaining active dispatches finish.
    best->no_more_work_ = true;
    d->finalize_only = true;
    return true;
  }
  if (!best->free_instances_.empty()) {
    d->instance = best->free_instances_.back();
    best->free_instances_.pop_back();
  } else {
    d->instance = best->created_instances_++;
  }
  return true;
}

void SharedExecutor::RunDispatch(Dispatch* d) {
  QueryHandle* job = d->job.get();
  if (d->finalize_only) return;

  // The instance index was claimed exclusively under mu_, so this worker
  // owns instances_[d->instance] until CompleteDispatchLocked returns it to
  // the free list.
  auto& slot = job->instances_[static_cast<size_t>(d->instance)];
  if (slot == nullptr) {
    slot = std::make_unique<QueryHandle::Instance>();
    slot->ctx.catalog = job->spec_.catalog;
    slot->ctx.worker_id = d->instance;
    slot->ctx.interrupt = &job->cancelled_;
    Result<OperatorPtr> op = job->spec_.factory(d->instance);
    if (!op.ok()) {
      job->errors_.Record(op.status());
      job->source_.Abort();
      d->instance_dead = true;
      return;
    }
    slot->op = std::move(op.ValueOrDie());
    Status open_status = slot->op->Open(&slot->ctx);
    if (!open_status.ok()) {
      job->errors_.Record(open_status);
      job->source_.Abort();
      d->instance_dead = true;  // still Closed at finalize (op exists)
      return;
    }
    slot->open_ok = true;
  }
  INDBML_CHECK(slot->open_ok) << "dead instance handed back out";
  Status status;
  if (job->whole_plan()) {
    trace::Span span("executor whole-plan drain");
    status = job->merge_->Consume(0, slot->op.get(), &slot->ctx);
  } else {
    status = RunMorsel(slot->op.get(), &slot->ctx, d->morsel, job->merge_.get());
  }
  if (!status.ok()) {
    job->errors_.Record(status);
    job->source_.Abort();
  } else if (job->merge_->Satisfied()) {
    // A LIMIT already holds its rows: stop handing out morsels. Not an
    // error and not a cancellation — the job finalizes normally.
    job->source_.Abort();
  }
}

bool SharedExecutor::CompleteDispatchLocked(Dispatch* d) {
  QueryHandle* job = d->job.get();
  job->active_dispatches_--;
  if (!d->finalize_only && !d->instance_dead) {
    job->free_instances_.push_back(d->instance);
  }
  if (!(job->no_more_work_ && job->active_dispatches_ == 0)) return false;
  // Fully drained: retire from the run queue and admit the next waiter.
  running_.erase(std::remove_if(running_.begin(), running_.end(),
                                [job](const std::shared_ptr<QueryHandle>& j) {
                                  return j.get() == job;
                                }),
                 running_.end());
  if (!queued_.empty()) {
    std::shared_ptr<QueryHandle> next = std::move(queued_.front());
    queued_.pop_front();
    next->pass_ = MinPassLocked();
    running_.push_back(std::move(next));
    cv_work_.NotifyAll();
  }
  PublishGaugesLocked();
  return true;
}

void SharedExecutor::FinalizeJob(const std::shared_ptr<QueryHandle>& job) {
  // Exclusive access: the job left running_ and has no active dispatches
  // (or the workers are already joined, in the destructor path).
  for (auto& instance : job->instances_) {
    if (instance != nullptr && instance->op != nullptr) {
      instance->op->Close(&instance->ctx);
    }
  }
  job->instances_.clear();
  Status status = job->errors_.Get();
  if (status.ok() && job->cancelled()) {
    status = Status::Cancelled("query cancelled");
  }
  QueryResult result;
  if (status.ok()) {
    Result<QueryResult> finished = job->Finish();
    if (finished.ok()) {
      result = std::move(finished).ValueOrDie();
    } else {
      status = finished.status();
    }
  }
  // Free the partial states and the plan (a per-query shared model with
  // them) before waking the caller: whichever thread drops the last handle
  // reference, the query's memory is released by the time Wait returns.
  job->merge_.reset();
  job->spec_.factory = nullptr;
  job->spec_.above_cut = nullptr;
  MutexLock lock(job->done_mu_);
  job->status_ = std::move(status);
  job->result_ = std::move(result);
  job->done_ = true;
  job->done_cv_.NotifyAll();
}

void SharedExecutor::WorkerLoop() {
  while (true) {
    Dispatch d;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && !FindWorkLocked(&d)) cv_work_.Wait(mu_);
      if (d.job == nullptr) return;  // shutdown; the destructor finalizes
    }
    RunDispatch(&d);
    bool finalize;
    {
      MutexLock lock(mu_);
      finalize = CompleteDispatchLocked(&d);
    }
    if (finalize) FinalizeJob(d.job);
    d.job.reset();
  }
}

}  // namespace indbml::exec
