#include "inference/batcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/stopwatch.h"
#include "inference/cache.h"

namespace indbml::inference {

namespace {

/// Decrements the in-Submit call count on every exit path.
struct ActiveGuard {
  std::atomic<int64_t>& count;
  ~ActiveGuard() { count.fetch_sub(1, std::memory_order_acq_rel); }
};

/// Follower poll interval: completion and cancellation are signalled
/// through NotifyAll (batch done, KickWaiters), this only bounds the wait
/// if a signal is lost to a race. Coarse on purpose — timed wakeups on a
/// saturated machine steal the core from the work the follower is waiting
/// on.
constexpr int64_t kFollowerPollMicros = 1000;

/// Past this many tracked models, arrival entries idle for longer than this
/// are pruned (redeploy churn mints a fresh model id per deploy).
constexpr size_t kMaxArrivalEntries = 4096;
constexpr int64_t kArrivalIdleMicros = 1'000'000;

int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

InferenceBatcher& InferenceBatcher::Global() {
  static InferenceBatcher* batcher = new InferenceBatcher();
  return *batcher;
}

InferenceBatcher::InferenceBatcher()
    : batches_metric_(metrics::Registry::Global().counter("inference.batches")),
      batch_rows_metric_(
          metrics::Registry::Global().histogram("inference.batch_rows")),
      wait_micros_metric_(
          metrics::Registry::Global().histogram("inference.batch_wait_micros")) {}

Status InferenceBatcher::Run(const std::shared_ptr<SharedModel>& model,
                             const float* in, int64_t n, float* out,
                             const InferenceOptions& opts,
                             const std::atomic<bool>* interrupt,
                             InferenceCallStats* stats) {
  if (n == 0) return Status::OK();
  const nn::ModelMeta& meta = model->meta();
  const int64_t d = meta.input_width();
  const int64_t o = meta.output_dim();

  // Cache layer: answer hit rows immediately, run only the misses.
  const float* run_in = in;
  float* run_out = out;
  int64_t run_n = n;
  int64_t hit_count = 0;
  std::vector<char> hits;
  std::vector<float> miss_in;
  std::vector<float> miss_out;
  std::vector<int64_t> miss_idx;
  if (opts.use_cache) {
    hits.assign(static_cast<size_t>(n), 0);
    hit_count = InferenceCache::Global().Lookup(model->model_id(), in, n, d, o,
                                                out, &hits);
    if (stats != nullptr) stats->cache_hits += hit_count;
    if (hit_count == n) return Status::OK();  // the NN is skipped entirely
    if (hit_count > 0) {
      // Compact the miss rows into a dense matrix so the coalesced launch
      // (and the cache insert) sees contiguous columns.
      const int64_t mn = n - hit_count;
      miss_idx.reserve(static_cast<size_t>(mn));
      for (int64_t j = 0; j < n; ++j) {
        if (hits[static_cast<size_t>(j)] == 0) miss_idx.push_back(j);
      }
      miss_in.resize(static_cast<size_t>(d * mn));
      miss_out.resize(static_cast<size_t>(o * mn));
      for (int64_t f = 0; f < d; ++f) {
        for (int64_t j = 0; j < mn; ++j) {
          miss_in[static_cast<size_t>(f * mn + j)] = in[f * n + miss_idx[j]];
        }
      }
      run_in = miss_in.data();
      run_out = miss_out.data();
      run_n = mn;
    }
  }

  INDBML_RETURN_NOT_OK(
      Submit(model, run_in, run_n, run_out, opts, interrupt, stats));

  if (opts.use_cache) {
    InferenceCache::Global().Insert(model->model_id(), run_in, run_n, d, o,
                                    run_out);
    if (hit_count > 0) {
      // Scatter the compacted miss results into their original columns.
      const int64_t mn = run_n;
      for (int64_t p = 0; p < o; ++p) {
        for (int64_t j = 0; j < mn; ++j) {
          out[p * n + miss_idx[j]] = miss_out[static_cast<size_t>(p * mn + j)];
        }
      }
    }
  }
  return Status::OK();
}

Status InferenceBatcher::Submit(const std::shared_ptr<SharedModel>& model,
                                const float* in, int64_t n, float* out,
                                const InferenceOptions& opts,
                                const std::atomic<bool>* interrupt,
                                InferenceCallStats* stats) {
  if (opts.batch_window_us <= 0 || n >= model->vector_size()) {
    // Batching off, or a full vector: the runtime runs blocks of at most
    // vector_size() rows anyway, so coalescing a full chunk gains nothing
    // and would only make the workers feeding it sleep. Run it inline
    // without counting as a batch partner.
    return RunInline(*model, in, n, out, stats);
  }
  active_calls_.fetch_add(1, std::memory_order_acq_rel);
  ActiveGuard guard{active_calls_};

  // Inline fast path: no batch partner is plausible — waiting out the
  // window would then be pure added latency. Partners are
  // plausible when another call is inside the batcher right now, or when
  // any call against this model arrived within the last window. The second
  // signal is what bootstraps coalescing on few-core machines: concurrent
  // queries there run interleaved rather than overlapped, so two calls are
  // almost never inside Submit at the same instant until a leader's window
  // wait yields the core and lets the partners catch up. If leading proves
  // futile (the window expires with no follower), recency is distrusted for
  // the model until real overlap is observed again, so a lone stream of
  // back-to-back calls pays at most one wasted window.
  bool partners_likely = true;
  if (active_calls_.load(std::memory_order_acquire) <= 1) {
    MutexLock lock(mu_);
    const int64_t now = MonotonicMicros();
    if (arrivals_.size() > kMaxArrivalEntries) {
      for (auto it = arrivals_.begin(); it != arrivals_.end();) {
        it = now - it->second.last_micros > kArrivalIdleMicros
                 ? arrivals_.erase(it)
                 : std::next(it);
      }
    }
    ArrivalState& arrival = arrivals_[model->model_id()];
    partners_likely = arrival.last_micros != 0 && !arrival.futile &&
                      now - arrival.last_micros <= opts.batch_window_us;
    arrival.last_micros = now;
  } else {
    MutexLock lock(mu_);
    ArrivalState& arrival = arrivals_[model->model_id()];
    arrival.last_micros = MonotonicMicros();
    arrival.futile = false;  // overlap observed: recency is trustworthy
  }
  if (!partners_likely) return RunInline(*model, in, n, out, stats);

  Request req;
  req.in = in;
  req.n = n;
  req.out = out;
  std::shared_ptr<Batch> batch;

  {
    MutexLock lock(mu_);
    arrivals_[model->model_id()].pending += 1;
    auto it = open_.find(model->model_id());
    if (it != open_.end() && !it->second->closed &&
        it->second->rows + n <= opts.max_batch_rows) {
      // Follower: join the open batch and wait for its leader.
      batch = it->second;
      batch->members.push_back(&req);
      batch->rows += n;
      if (batch->rows + n > opts.max_batch_rows) {
        // Full enough that the next same-sized call couldn't join anyway:
        // launch now instead of waiting out the window.
        batch->closed = true;
      }
      if (batch->closed || arrivals_[model->model_id()].pending ==
                               static_cast<int64_t>(batch->members.size())) {
        // Wake the leader only when this join changes its decision (batch
        // full, or everyone who could join has): every wakeup on a
        // saturated machine steals the core from the scans that would feed
        // this very batch.
        batch->cv.NotifyAll();
      }
      Stopwatch wait_watch;
      while (!batch->done) {
        if (interrupt != nullptr &&
            interrupt->load(std::memory_order_acquire) && !batch->closed) {
          // Detach: the leader has not started reading member buffers (it
          // gathers only after `closed`), so this request can leave the
          // batch and its stack-owned buffers safely.
          auto& members = batch->members;
          members.erase(std::find(members.begin(), members.end(), &req));
          batch->rows -= n;
          arrivals_[model->model_id()].pending -= 1;
          return Status::Cancelled("query cancelled in inference batch wait");
        }
        batch->cv.WaitFor(mu_, kFollowerPollMicros);
      }
      const int64_t waited = wait_watch.ElapsedMicros();
      wait_micros_metric_->Record(waited);
      if (stats != nullptr) {
        stats->wait_micros += waited;
        stats->batch_rows += batch->rows;
      }
      return batch->status;
    }

    // Leader: open a batch, wait out the window (shortened by a full batch
    // or by cancellation — a cancelled leader still launches, followers
    // depend on it), then close and gather while the lock pins membership.
    batch = std::make_shared<Batch>();
    batch->model = model;
    batch->members.push_back(&req);
    batch->rows = n;
    open_[model->model_id()] = batch;
    live_.push_back(batch);
    Stopwatch wait_watch;
    bool yielded = false;
    while (!batch->closed) {
      if (interrupt != nullptr && interrupt->load(std::memory_order_acquire)) {
        break;
      }
      if (yielded && arrivals_[model->model_id()].pending ==
                         static_cast<int64_t>(batch->members.size())) {
        // All-present early close: every batch-path call for this model has
        // joined, so waiting out the rest of the window can only gain
        // brand-new arrivals — and on a saturated few-core machine it would
        // stall the whole worker pool (everyone is blocked right here). The
        // first wait is never skipped: it is the yield that lets partners
        // on the same core catch up at all.
        break;
      }
      const int64_t remaining = opts.batch_window_us - wait_watch.ElapsedMicros();
      if (remaining <= 0) break;
      batch->cv.WaitFor(mu_, remaining);
      yielded = true;
    }
    const int64_t waited = wait_watch.ElapsedMicros();
    wait_micros_metric_->Record(waited);
    if (stats != nullptr) stats->wait_micros += waited;
    batch->closed = true;
    arrivals_[model->model_id()].pending -=
        static_cast<int64_t>(batch->members.size());
    auto oit = open_.find(model->model_id());
    if (oit != open_.end() && oit->second == batch) open_.erase(oit);

    if (batch->members.size() > 1) {
      // Gather member inputs into one feature-major matrix. Under the lock:
      // membership is final but followers' stack buffers must not be read
      // while a detach could still be mid-flight on another core.
      const int64_t total = batch->rows;
      const int64_t d = model->meta().input_width();
      batch->combined.resize(static_cast<size_t>(d * total));
      batch->combined_out.resize(
          static_cast<size_t>(model->meta().output_dim() * total));
      int64_t offset = 0;
      for (Request* member : batch->members) {
        for (int64_t f = 0; f < d; ++f) {
          std::memcpy(batch->combined.data() + f * total + offset,
                      member->in + f * member->n,
                      static_cast<size_t>(member->n) * sizeof(float));
        }
        offset += member->n;
      }
    }
  }

  // Leader launch, outside the lock: followers sleep, other models batch.
  const int64_t total = batch->rows;
  Status run_status;
  if (batch->members.size() == 1) {
    run_status = InferenceRuntime::Global().Run(*model, in, n, out);
  } else {
    run_status = InferenceRuntime::Global().Run(
        *model, batch->combined.data(), total, batch->combined_out.data());
  }
  batches_metric_->Increment(1);
  batch_rows_metric_->Record(total);
  if (stats != nullptr) stats->batch_rows += total;

  {
    MutexLock lock(mu_);
    if (batch->members.size() > 1 && run_status.ok()) {
      // Slice the coalesced result back into each member's output buffer.
      const int64_t o = model->meta().output_dim();
      int64_t offset = 0;
      for (Request* member : batch->members) {
        for (int64_t p = 0; p < o; ++p) {
          std::memcpy(member->out + p * member->n,
                      batch->combined_out.data() + p * total + offset,
                      static_cast<size_t>(member->n) * sizeof(float));
        }
        offset += member->n;
      }
    }
    batch->done = true;
    batch->status = run_status;
    // A solo launch means the window was waited out for nothing: stop
    // trusting arrival recency for this model until overlap is seen again.
    auto ait = arrivals_.find(model->model_id());
    if (ait != arrivals_.end()) ait->second.futile = batch->members.size() == 1;
    batch->cv.NotifyAll();
    live_.erase(std::find(live_.begin(), live_.end(), batch));
  }
  return run_status;
}

Status InferenceBatcher::RunInline(const SharedModel& model, const float* in, int64_t n,
                                   float* out, InferenceCallStats* stats) {
  batches_metric_->Increment(1);
  batch_rows_metric_->Record(n);
  if (stats != nullptr) stats->batch_rows += n;
  return InferenceRuntime::Global().Run(model, in, n, out);
}

void InferenceBatcher::KickWaiters() {
  MutexLock lock(mu_);
  for (const std::shared_ptr<Batch>& batch : live_) batch->cv.NotifyAll();
}

}  // namespace indbml::inference
