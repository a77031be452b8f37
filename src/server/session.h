#ifndef INDBML_SERVER_SESSION_H_
#define INDBML_SERVER_SESSION_H_

#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "sql/query_engine.h"

namespace indbml::server {

class QueryServer;

/// Sessions hand out the executor's handle on a submitted query.
using exec::QueryHandle;

/// \brief One client connection to the QueryServer.
///
/// A session carries its own mutable copy of the engine options; every
/// query takes an immutable snapshot of them at submit time, so a
/// concurrent set_options (from this or any other thread) never affects a
/// query in flight — the per-query counterpart of QueryEngine's snapshot
/// contract. Submission is non-blocking: Submit returns a QueryHandle
/// immediately (admission permitting) and the shared executor interleaves
/// the query's morsels with every other in-flight query; Cancel on the
/// handle aborts the query's morsel source mid-flight.
///
/// Thread-safe; typically used one per client thread.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses (or plan-cache-loads), prepares and enqueues the query;
  /// non-blocking apart from planning. kResourceExhausted when the server
  /// is saturated past its wait queue.
  Result<std::shared_ptr<QueryHandle>> Submit(const std::string& sql)
      INDBML_EXCLUDES(mu_);

  /// Submit + Wait, recording the end-to-end latency into the
  /// server.query_micros histogram.
  Result<exec::QueryResult> ExecuteQuery(const std::string& sql)
      INDBML_EXCLUDES(mu_);

  /// Per-session options (snapshot copy; applied to queries submitted after
  /// the set_options call).
  sql::QueryEngine::Options options() const INDBML_EXCLUDES(mu_);
  void set_options(const sql::QueryEngine::Options& options)
      INDBML_EXCLUDES(mu_);

  /// Stride-scheduling weight of this session's queries (>= 1).
  int priority() const INDBML_EXCLUDES(mu_);
  void set_priority(int priority) INDBML_EXCLUDES(mu_);

 private:
  friend class QueryServer;

  Session(QueryServer* server, sql::QueryEngine::Options options);

  Result<std::shared_ptr<QueryHandle>> SubmitPlan(
      std::shared_ptr<const sql::LogicalOp> plan,
      const sql::QueryEngine::Options& opts, int priority);

  QueryServer* server_;  ///< not owned; outlives every session
  mutable Mutex mu_;
  sql::QueryEngine::Options options_ INDBML_GUARDED_BY(mu_);
  int priority_ INDBML_GUARDED_BY(mu_) = 1;
};

}  // namespace indbml::server

#endif  // INDBML_SERVER_SESSION_H_
