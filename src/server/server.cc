#include "server/server.h"

#include "inference/cache.h"

namespace indbml::server {

namespace {

exec::SharedExecutor::Options ExecutorOptions(const QueryServer::Options& options) {
  exec::SharedExecutor::Options out;
  out.worker_threads = options.worker_threads;
  out.max_inflight = options.max_inflight_queries;
  out.max_queued = options.max_queued_queries;
  return out;
}

}  // namespace

QueryServer::QueryServer(const Options& options)
    : options_(options),
      engine_(options.engine),
      executor_(ExecutorOptions(options)) {
  if (options_.enable_plan_cache && options_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_capacity);
  }
  // The inference result cache is process-wide (predictions are keyed by
  // model instance, not by server), so the server merely sizes it.
  inference::InferenceCache::Global().set_capacity_bytes(
      options_.inference_cache_mb << 20);
}

std::unique_ptr<Session> QueryServer::CreateSession() {
  return std::unique_ptr<Session>(new Session(this, engine_.options()));
}

}  // namespace indbml::server
