#include "server/session.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "inference/batcher.h"
#include "server/server.h"

namespace indbml::server {

Session::Session(QueryServer* server, sql::QueryEngine::Options options)
    : server_(server), options_(std::move(options)) {}

sql::QueryEngine::Options Session::options() const {
  MutexLock lock(mu_);
  return options_;
}

void Session::set_options(const sql::QueryEngine::Options& options) {
  MutexLock lock(mu_);
  options_ = options;
}

int Session::priority() const {
  MutexLock lock(mu_);
  return priority_;
}

void Session::set_priority(int priority) {
  MutexLock lock(mu_);
  priority_ = priority < 1 ? 1 : priority;
}

Result<std::shared_ptr<QueryHandle>> Session::Submit(const std::string& sql) {
  const sql::QueryEngine::Options opts = options();
  const int prio = priority();
  sql::QueryEngine* engine = server_->engine();

  std::shared_ptr<const sql::LogicalOp> plan;
  PlanCache* cache = server_->plan_cache();
  PlanCache::Key key;
  if (cache != nullptr) {
    key.sql = sql;
    key.options_fingerprint = OptionsFingerprint(opts);
    key.catalog_version = engine->catalog()->version();
    plan = cache->Lookup(key);
  }
  if (plan == nullptr) {
    INDBML_ASSIGN_OR_RETURN(auto planned, engine->PlanQuery(sql, opts));
    plan = std::shared_ptr<const sql::LogicalOp>(std::move(planned));
    if (cache != nullptr) cache->Insert(key, plan);
  }
  return SubmitPlan(std::move(plan), opts, prio);
}

Result<std::shared_ptr<QueryHandle>> Session::SubmitPlan(
    std::shared_ptr<const sql::LogicalOp> plan,
    const sql::QueryEngine::Options& opts, int priority) {
  exec::SharedExecutor* executor = server_->executor();
  // The job may outlive this call (non-blocking submit): its factory keeps
  // the planner and the cached logical plan alive until the query finishes.
  // The session's worker_threads caps the query's instances; the shared
  // executor's thread count caps them again.
  const int workers =
      std::min(executor->num_threads(), sql::QueryEngine::WorkersFor(opts));
  INDBML_ASSIGN_OR_RETURN(
      exec::JobSpec spec,
      server_->engine()->PrepareJob(std::move(plan), opts, workers, nullptr));
  spec.priority = priority;
  spec.on_cancel = [] {
    // A worker blocked inside the inference batcher's coalescing wait is
    // not claiming morsels; kick it so it re-checks the interrupt flag and
    // returns promptly.
    inference::InferenceBatcher::Global().KickWaiters();
    metrics::Registry::Global().counter("server.cancellations")->Increment();
  };
  auto handle = executor->Submit(std::move(spec));
  metrics::Registry& registry = metrics::Registry::Global();
  if (handle.ok()) {
    registry.counter("server.queries")->Increment();
  } else if (handle.status().code() == StatusCode::kResourceExhausted) {
    registry.counter("server.admission_rejects")->Increment();
  }
  return handle;
}

Result<exec::QueryResult> Session::ExecuteQuery(const std::string& sql) {
  Stopwatch stopwatch;
  INDBML_ASSIGN_OR_RETURN(auto handle, Submit(sql));
  auto result = handle->Wait();
  metrics::Registry::Global()
      .histogram("server.query_micros")
      ->Record(stopwatch.ElapsedMicros());
  return result;
}

}  // namespace indbml::server
