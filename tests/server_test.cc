// Tests of the serving stack (src/server/): session submit/cancel over the
// shared executor, the prepared-statement plan cache (hit/miss/eviction and
// catalog-version invalidation), the process-wide SharedModelRegistry
// (build-once sharing, invalidation on model redeploy), admission control,
// and result identity with the plain QueryEngine path.

#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib/workloads.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using testutil::I;

int64_t CounterValue(const std::string& name) {
  return metrics::Registry::Global().counter(name)->value();
}

void ExpectRowIdentical(const exec::QueryResult& got,
                        const exec::QueryResult& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.names.size(), want.names.size());
  for (int64_t r = 0; r < want.num_rows; ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      EXPECT_EQ(got.GetValue(r, static_cast<int64_t>(c)).ToString(),
                want.GetValue(r, static_cast<int64_t>(c)).ToString())
          << "row " << r << " col " << c;
    }
  }
}

/// Puts `fact` into the engine's catalog and deploys `model` as `name`.
void DeployModel(sql::QueryEngine* engine, const storage::TablePtr& fact,
                 const nn::Model& model, const std::string& name) {
  engine->catalog()->CreateOrReplaceTable(fact);
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(engine));
  engine->models()->Register(nn::MetaOf(model, name));
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { modeljoin::SharedModelRegistry::Global().Clear(); }

  static std::unique_ptr<server::QueryServer> MakeServer(
      server::QueryServer::Options options = {}) {
    auto srv = std::make_unique<server::QueryServer>(options);
    modeljoin::RegisterNativeModelJoin(srv->engine());
    return srv;
  }

  static void LoadIris(server::QueryServer* srv, int64_t rows) {
    ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", rows)));
  }

  static void DeployDense(server::QueryServer* srv, int64_t width, int64_t depth,
                          const std::string& name) {
    ASSERT_OK_AND_ASSIGN(nn::Model model,
                         nn::MakeDenseBenchmarkModel(width, depth, 21));
    mltosql::MlToSql framework(&model, "m");
    ASSERT_OK(framework.Deploy(srv->engine()));
    srv->engine()->models()->Register(nn::MetaOf(model, name));
  }

  static std::string DenseQuery(const std::string& model) {
    return "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL '" +
           model +
           "' DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
           "petal_width)";
  }
};

TEST_F(ServerTest, SessionResultsMatchEngine) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 4000);
  auto session = srv->CreateSession();
  const std::string query =
      "SELECT class, COUNT(*) AS n, AVG(sepal_length) AS avg_len FROM fact "
      "WHERE sepal_width > 2.5 GROUP BY class ORDER BY class";
  ASSERT_OK_AND_ASSIGN(auto via_session, session->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto via_engine, srv->engine()->ExecuteQuery(query));
  ExpectRowIdentical(via_session, via_engine);
  EXPECT_GT(via_session.num_rows, 0);
}

TEST_F(ServerTest, SerialPlanRunsOnExecutor) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 1000);
  auto session = srv->CreateSession();
  // Global sort + limit is not parallel-safe: exercises the whole-plan job.
  const std::string query =
      "SELECT id, sepal_length FROM fact ORDER BY sepal_length, id LIMIT 7";
  ASSERT_OK_AND_ASSIGN(auto via_session, session->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto via_engine, srv->engine()->ExecuteQuery(query));
  ASSERT_EQ(via_session.num_rows, 7);
  ExpectRowIdentical(via_session, via_engine);
}

TEST_F(ServerTest, EmptyTableQueryKeepsSchema) {
  auto srv = MakeServer();
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", 0)));
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(auto result,
                       session->ExecuteQuery("SELECT id, class FROM fact"));
  EXPECT_EQ(result.num_rows, 0);
  ASSERT_EQ(result.names.size(), 2u);
  EXPECT_EQ(result.names[0], "id");
}

TEST_F(ServerTest, PlanCacheHitSkipsPlanning) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 500);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  const int64_t hits0 = CounterValue("server.plan_cache_hits");
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto first, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
  EXPECT_EQ(CounterValue("server.plan_cache_hits"), hits0);
  ASSERT_OK_AND_ASSIGN(auto second, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_hits"), hits0 + 1);
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
  ExpectRowIdentical(second, first);
  EXPECT_EQ(srv->plan_cache()->size(), 1);
}

TEST_F(ServerTest, PlanCacheEvictsLru) {
  server::QueryServer::Options options;
  options.plan_cache_capacity = 2;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();
  const int64_t evictions0 = CounterValue("server.plan_cache_evictions");
  ASSERT_OK(session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact").status());
  ASSERT_OK(session->ExecuteQuery("SELECT id FROM fact").status());
  ASSERT_OK(session->ExecuteQuery("SELECT class FROM fact").status());
  EXPECT_EQ(srv->plan_cache()->size(), 2);
  EXPECT_EQ(CounterValue("server.plan_cache_evictions"), evictions0 + 1);
}

TEST_F(ServerTest, PlanCacheInvalidatedByCatalogChange) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 200);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  ASSERT_OK_AND_ASSIGN(auto before, session->ExecuteQuery(query));
  EXPECT_EQ(before.GetValue(0, 0).i, 200);
  // Replacing the table bumps the catalog version: the cached plan (bound to
  // the old table) must not be reused.
  srv->catalog()->CreateOrReplaceTable(benchlib::MakeIrisTable("fact", 300));
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(query));
  EXPECT_EQ(after.GetValue(0, 0).i, 300);
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
}

TEST_F(ServerTest, PlanCacheKeyedOnOptionsFingerprint) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  ASSERT_OK(session->ExecuteQuery(query).status());
  auto opts = session->options();
  opts.optimizer.predicate_pushdown = !opts.optimizer.predicate_pushdown;
  session->set_options(opts);
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1)
      << "different options must not share a cached plan";
  EXPECT_EQ(srv->plan_cache()->size(), 2);
}

TEST_F(ServerTest, PlanCacheSharedAcrossExecutionOptions) {
  // PlanQuery reads only the optimizer flags, so sessions that differ only
  // in execution settings must hit each other's cached plans.
  auto srv = MakeServer();
  LoadIris(srv.get(), 100);
  auto first = srv->CreateSession();
  auto second = srv->CreateSession();
  auto opts = second->options();
  opts.morsel_rows = 128;
  second->set_options(opts);
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  ASSERT_OK(first->ExecuteQuery(query).status());
  const int64_t hits0 = CounterValue("server.plan_cache_hits");
  ASSERT_OK_AND_ASSIGN(auto result, second->ExecuteQuery(query));
  EXPECT_EQ(result.GetValue(0, 0).i, 100);
  EXPECT_EQ(CounterValue("server.plan_cache_hits"), hits0 + 1)
      << "execution-only options must not split the plan cache";
  EXPECT_EQ(srv->plan_cache()->size(), 1);
}

TEST_F(ServerTest, SharedModelBuiltExactlyOnceAcrossSessions) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 2000);
  DeployDense(srv.get(), 16, 3, "dense16");
  const std::string query = DenseQuery("dense16");

  const int64_t builds0 = CounterValue("modeljoin.registry_builds");
  // The reference runs through the same registry (server engines default to
  // shared models), so it participates in the build-once accounting.
  ASSERT_OK_AND_ASSIGN(auto reference, srv->engine()->ExecuteQuery(query));
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<server::Session>> sessions;
  std::vector<std::shared_ptr<server::QueryHandle>> handles;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(srv->CreateSession());
    ASSERT_OK_AND_ASSIGN(auto handle, sessions.back()->Submit(query));
    handles.push_back(std::move(handle));
  }
  for (auto& handle : handles) {
    ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
    ExpectRowIdentical(result, reference);
  }
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 1)
      << "concurrent sessions over one model must share one build";
}

TEST_F(ServerTest, RegistryInvalidatedOnModelRedeploy) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 500);
  DeployDense(srv.get(), 8, 2, "dense8");
  auto session = srv->CreateSession();
  const std::string query = DenseQuery("dense8");
  const int64_t builds0 = CounterValue("modeljoin.registry_builds");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 1);
  // Redeploying replaces the model table: the registry must rebuild, not
  // serve the stale weights.
  DeployDense(srv.get(), 8, 2, "dense8");
  const int64_t invalidations0 = CounterValue("modeljoin.registry_invalidations");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 2);
  EXPECT_EQ(CounterValue("modeljoin.registry_invalidations"), invalidations0 + 1);
}

TEST_F(ServerTest, ModelRegisterBumpsCatalogVersion) {
  auto srv = MakeServer();
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 21));
  const int64_t v0 = srv->catalog()->version();
  srv->engine()->models()->Register(nn::MetaOf(model, "dense8"));
  EXPECT_GT(srv->catalog()->version(), v0)
      << "a model DEPLOY must invalidate cached plans via the catalog version";
}

TEST_F(ServerTest, CachedPlanReresolvesRedeployedModel) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 300);
  DeployDense(srv.get(), 8, 2, "dense8");
  auto session = srv->CreateSession();
  const std::string query = DenseQuery("dense8");
  ASSERT_OK(session->ExecuteQuery(query).status());  // plan now cached

  // Redeploy a *different* model under the same name. The cached plan was
  // bound against the old metadata and weights; reusing it would serve the
  // old model's predictions.
  DeployDense(srv.get(), 16, 3, "dense8");
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1)
      << "the redeploy must invalidate the cached plan";
  // The re-resolved plan serves the new model: identical to a fresh
  // engine-path run against the current deployment.
  ASSERT_OK_AND_ASSIGN(auto reference, srv->engine()->ExecuteQuery(query));
  ExpectRowIdentical(after, reference);
}

TEST_F(ServerTest, CancelDuringInferenceWaitReturnsPromptly) {
  server::QueryServer::Options options;
  options.worker_threads = 4;
  auto srv = MakeServer(options);
  // Big enough that inference is still mid-flight when Cancel lands.
  LoadIris(srv.get(), 300000);
  DeployDense(srv.get(), 16, 3, "dense16");
  auto session = srv->CreateSession();
  auto opts = session->options();
  // A pathological window: uncancelled, every coalescing wait could sit for
  // 2 s. Cancel must cut through it.
  opts.inference.batch_window_us = 2'000'000;
  opts.morsel_rows = 512;
  // Every attempt below must reach the batcher: with the result cache on,
  // an attempt that completed would turn the next ones into cache hits.
  opts.inference.result_cache = false;
  session->set_options(opts);

  // Submit-then-cancel races against query completion: a descheduled test
  // thread can let the query finish first and return OK. That outcome is
  // legal — retry until a cancellation lands mid-flight.
  bool cancelled = false;
  for (int attempt = 0; attempt < 10 && !cancelled; ++attempt) {
    Stopwatch watch;
    ASSERT_OK_AND_ASSIGN(auto handle, session->Submit(DenseQuery("dense16")));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    handle->Cancel();
    auto result = handle->Wait();
    EXPECT_LT(watch.ElapsedMicros(), 1'500'000)
        << "cancellation must interrupt the batcher wait, not sit it out";
    if (result.ok()) continue;  // completed before the cancel landed
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    cancelled = true;
  }
  EXPECT_TRUE(cancelled) << "cancel never aborted the query in 10 attempts";

  // The executor and the batcher must keep serving afterwards. Its 512-row
  // morsels give chunks below the model's 1024-row vector size, so they
  // still take the batcher's coalescing wait (full vectors run inline):
  // the path the cancellation above had to cut through.
  metrics::Histogram* waits =
      metrics::Registry::Global().histogram("inference.batch_wait_micros");
  const int64_t waits_before = waits->count();
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(DenseQuery("dense16")));
  EXPECT_EQ(after.num_rows, 300000);
  EXPECT_GT(waits->count(), waits_before)
      << "sub-vector chunks must still reach the batcher's wait path";
}

TEST_F(ServerTest, CancelAbortsMidFlightWithoutWedgingExecutor) {
  server::QueryServer::Options options;
  options.worker_threads = 2;
  auto srv = MakeServer(options);
  // Big enough that the scan cannot finish before Cancel lands; tiny morsels
  // maximise claim checks.
  LoadIris(srv.get(), 400000);
  auto session = srv->CreateSession();
  auto opts = session->options();
  opts.morsel_rows = 64;
  session->set_options(opts);

  // Submit-then-cancel races against query completion: if this thread is
  // descheduled between the two calls (parallel test runs on a loaded
  // machine), the query can finish first and return OK. That outcome is
  // legal — retry until a cancellation lands mid-flight.
  bool cancelled = false;
  for (int attempt = 0; attempt < 10 && !cancelled; ++attempt) {
    ASSERT_OK_AND_ASSIGN(
        auto handle,
        session->Submit("SELECT class, SUM(sepal_length) AS s FROM fact "
                        "GROUP BY class"));
    handle->Cancel();
    auto result = handle->Wait();
    if (result.ok()) continue;  // completed before the cancel landed
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    cancelled = true;
  }
  EXPECT_TRUE(cancelled) << "cancel never aborted the query in 10 attempts";

  // The executor must keep serving after a cancellation.
  ASSERT_OK_AND_ASSIGN(auto after,
                       session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact"));
  EXPECT_EQ(after.GetValue(0, 0).i, 400000);
}

TEST_F(ServerTest, AdmissionControlRejectsWhenSaturated) {
  server::QueryServer::Options options;
  options.worker_threads = 1;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 0;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();

  // Deterministically occupy the only in-flight slot: a job whose factory
  // blocks until the gate opens.
  Mutex gate_mu;
  CondVar gate_cv;
  bool gate_open = false;
  exec::JobSpec blocker;  // no morsels: one whole-plan dispatch
  blocker.factory = [&](int) -> Result<exec::OperatorPtr> {
    MutexLock lock(gate_mu);
    while (!gate_open) gate_cv.Wait(gate_mu);
    return Status::InvalidArgument("blocker done");
  };
  ASSERT_OK_AND_ASSIGN(auto slow, srv->executor()->Submit(std::move(blocker)));

  const int64_t rejects0 = CounterValue("server.admission_rejects");
  auto second = session->Submit("SELECT COUNT(*) AS n FROM fact");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted)
      << second.status().ToString();
  EXPECT_EQ(CounterValue("server.admission_rejects"), rejects0 + 1);

  {
    MutexLock lock(gate_mu);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  EXPECT_FALSE(slow->Wait().ok());  // the blocker reports its sentinel error
  // The slot is free again: the same query is now admitted.
  ASSERT_OK_AND_ASSIGN(auto after,
                       session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact"));
  EXPECT_EQ(after.GetValue(0, 0).i, 100);
}

TEST_F(ServerTest, QueuedQueryRunsAfterInflightFinishes) {
  server::QueryServer::Options options;
  options.worker_threads = 2;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 8;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 50000);
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(
      auto first, session->Submit("SELECT SUM(sepal_length) AS s FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto second,
                       session->Submit("SELECT COUNT(*) AS n FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto r1, first->Wait());
  ASSERT_OK_AND_ASSIGN(auto r2, second->Wait());
  EXPECT_GT(r1.num_rows, 0);
  EXPECT_EQ(r2.GetValue(0, 0).i, 50000);
}

TEST_F(ServerTest, SessionOptionSnapshotIsolatesRunningQueries) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 100000);
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(
      auto handle, session->Submit("SELECT SUM(petal_width) AS s FROM fact"));
  // Flipping options mid-flight must not affect the submitted query.
  auto opts = session->options();
  opts.morsel_rows = 128;
  session->set_options(opts);
  ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
  EXPECT_EQ(result.num_rows, 1);
}

// ---------- range queries over MODEL JOIN: pushdown result identity ----------

/// Same names, types, row count and row order, and equal bits in every cell.
void ExpectBitIdentical(const exec::QueryResult& got,
                        const exec::QueryResult& want) {
  ASSERT_EQ(got.names, want.names);
  ASSERT_EQ(got.types, want.types);
  ASSERT_EQ(got.num_rows, want.num_rows);
  for (int64_t r = 0; r < want.num_rows; ++r) {
    for (size_t c = 0; c < want.types.size(); ++c) {
      const exec::Value a = got.GetValue(r, static_cast<int64_t>(c));
      const exec::Value b = want.GetValue(r, static_cast<int64_t>(c));
      ASSERT_EQ(a.type, b.type) << "row " << r << " col " << c;
      ASSERT_EQ(a.i, b.i) << "row " << r << " col " << c;
      ASSERT_EQ(a.b, b.b) << "row " << r << " col " << c;
      ASSERT_EQ(std::memcmp(&a.f, &b.f, sizeof(float)), 0)
          << "row " << r << " col " << c << ": " << a.f << " vs " << b.f;
    }
  }
}

/// Id-range filters over a ModelJoin run with the filter pushed into the
/// fact scan and the zone-pruned morsels skipped. Every configuration must
/// return exactly what a serial run with pushdown off returns (the filter
/// above the ModelJoin, every row scored): bare engine and served through
/// Session (batcher and result cache on), at 1 and 4 workers.
class PushdownIdentityTest : public ServerTest {
 protected:
  /// Past the first morsel edge at the default morsel size (16384 rows).
  static constexpr int64_t kRows = 20000;

  /// Builds the pushdown-off serial reference and, at 1 and 4 workers, a
  /// bare engine and a server, each holding `fact` and `model`.
  void SetUpEngines(const storage::TablePtr& fact, const nn::Model& model,
                    const std::string& name) {
    sql::QueryEngine::Options ref_options;
    ref_options.worker_threads = 1;
    ref_options.optimizer.predicate_pushdown = false;
    reference_ = std::make_unique<sql::QueryEngine>(ref_options);
    modeljoin::RegisterNativeModelJoin(reference_.get());
    DeployModel(reference_.get(), fact, model, name);
    for (int workers : {1, 4}) {
      sql::QueryEngine::Options options;
      options.worker_threads = workers;
      engines_.push_back(std::make_unique<sql::QueryEngine>(options));
      modeljoin::RegisterNativeModelJoin(engines_.back().get());
      DeployModel(engines_.back().get(), fact, model, name);
      server::QueryServer::Options server_options;
      server_options.worker_threads = workers;
      servers_.push_back(MakeServer(server_options));
      DeployModel(servers_.back()->engine(), fact, model, name);
    }
  }

  /// Runs `sql` on the reference into `*want`, expecting `rows` rows (-1:
  /// at least one), then expects every configuration to return it
  /// bit-identically, twice through a Session (the second run hits the plan
  /// and inference caches).
  void ExpectMatchesReference(const std::string& sql, int64_t rows,
                              exec::QueryResult* want) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(*want, reference_->ExecuteQuery(sql));
    if (rows >= 0) {
      ASSERT_EQ(want->num_rows, rows);
    } else {
      ASSERT_GT(want->num_rows, 0);
    }
    for (size_t i = 0; i < engines_.size(); ++i) {
      SCOPED_TRACE("configuration " + std::to_string(i));
      ASSERT_OK_AND_ASSIGN(auto bare, engines_[i]->ExecuteQuery(sql));
      ExpectBitIdentical(bare, *want);
      auto session = servers_[i]->CreateSession();
      for (int run = 0; run < 2; ++run) {
        ASSERT_OK_AND_ASSIGN(auto served, session->ExecuteQuery(sql));
        ExpectBitIdentical(served, *want);
      }
    }
  }

  /// `residual` is a condition over two model inputs that stays a filter
  /// under the ModelJoin instead of becoming a scan predicate.
  void ExpectIdentical(const storage::TablePtr& fact, const nn::Model& model,
                       const std::string& name, const std::string& inputs,
                       const std::string& residual) {
    SetUpEngines(fact, model, name);
    const std::string select = "SELECT id, prediction FROM " + fact->name() +
                               " MODEL JOIN m USING MODEL '" + name +
                               "' DEVICE 'cpu' PREDICT (" + inputs + ") WHERE ";
    // A prediction threshold that splits the first 3000 rows about evenly.
    ASSERT_OK_AND_ASSIGN(auto head, reference_->ExecuteQuery(select + "id < 3000"));
    std::vector<float> predictions;
    for (int64_t r = 0; r < head.num_rows; ++r) {
      predictions.push_back(head.GetValue(r, 1).f);
    }
    ASSERT_FALSE(predictions.empty());
    std::nth_element(predictions.begin(),
                     predictions.begin() + predictions.size() / 2, predictions.end());
    char threshold[32];
    std::snprintf(threshold, sizeof(threshold), "%.6f",
                  predictions[predictions.size() / 2]);

    struct Case {
      std::string where;
      int64_t rows;  ///< expected row count; -1 = any
    };
    const Case cases[] = {
        {"id >= 4095 AND id <= 4096", 2},             // block edge
        {"id >= 16383 AND id <= 16384", 2},           // morsel edge
        {"id >= 4000 AND id < 17000", 13000},         // spans both edges
        {"id >= 16000 AND id <= 16999 AND " + residual, -1},
        {"id >= 1000000000", 0},                      // matches nothing
        {"id < 3000 AND prediction > " + std::string(threshold), -1},
        {"prediction > " + std::string(threshold), -1},
    };
    for (const Case& c : cases) {
      exec::QueryResult want;
      ExpectMatchesReference(select + c.where, c.rows, &want);
      ASSERT_EQ(want.names, (std::vector<std::string>{"id", "prediction"}));
      ASSERT_EQ(want.types,
                (std::vector<exec::DataType>{exec::DataType::kInt64,
                                             exec::DataType::kFloat}));
    }
  }

  /// Runs each (WHERE, row count) case over MakeMixedTypeTable.
  void ExpectCasesMatch(const std::string& columns,
                        const std::vector<std::pair<std::string, int64_t>>& cases);

  std::unique_ptr<sql::QueryEngine> reference_;
  std::vector<std::unique_ptr<sql::QueryEngine>> engines_;
  std::vector<std::unique_ptr<server::QueryServer>> servers_;
};

TEST_F(PushdownIdentityTest, DenseRangeQueriesMatchUnpushedSerial) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  ExpectIdentical(benchlib::MakeIrisTable("fact", kRows), model, "dense16",
                  "sepal_length, sepal_width, petal_length, petal_width",
                  "sepal_length + sepal_width > 8.5");
}

TEST_F(PushdownIdentityTest, LstmRangeQueriesMatchUnpushedSerial) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(12, 3, 33));
  ExpectIdentical(benchlib::MakeSinusTable("series", kRows, 3), model, "lstm12",
                  "x0, x1, x2", "x0 + x1 > 0.5");
}

/// Two blocks of ids from 2^24 up, y = 2^24 throughout and model input `a`.
/// x is 5 except for two NaNs: the first row of block 0 and the second row
/// of block 1.
storage::TablePtr MakeMixedTypeTable() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto table = std::make_shared<storage::Table>(
      "odd", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                         {"x", exec::DataType::kFloat},
                                         {"y", exec::DataType::kFloat},
                                         {"a", exec::DataType::kFloat}});
  for (int64_t r = 0; r < 2 * kRowsPerBlock; ++r) {
    const bool x_nan = r == 0 || r == kRowsPerBlock + 1;
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64((int64_t{1} << 24) + r),
                                  storage::Value::Float(x_nan ? nan : 5.0f),
                                  storage::Value::Float(16777216.0f),
                                  storage::Value::Float(
                                      static_cast<float>(r % 100) * 0.01f)})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

/// Each WHERE runs over a plain scan of `columns` and over a ModelJoin.
void PushdownIdentityTest::ExpectCasesMatch(
    const std::string& columns,
    const std::vector<std::pair<std::string, int64_t>>& cases) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  SetUpEngines(MakeMixedTypeTable(), model, "dense16");
  const std::string model_join =
      "SELECT id, prediction FROM odd MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE 'cpu' PREDICT (a, a, a, a) WHERE ";
  for (const auto& [where, rows] : cases) {
    exec::QueryResult want;
    ExpectMatchesReference("SELECT " + columns + " FROM odd WHERE " + where, rows,
                           &want);
    ExpectMatchesReference(model_join + where, rows, &want);
  }
}

/// A pushed predicate passes the rows the Filter it replaces passes, which
/// compares an Int64 with a Float in float: there ids 2^24 and 2^24 + 1 are
/// equal, and the constant 16777217 is 2^24.
TEST_F(PushdownIdentityTest, MixedTypePredicatesMatchUnpushedSerial) {
  constexpr int64_t kOddRows = 2 * kRowsPerBlock;
  ExpectCasesMatch("id, y", {{"id > 16777216.0", kOddRows - 2},
                             {"id = 16777216.0", 2},
                             {"y < 16777217", 0},
                             {"y >= 16777217", kOddRows}});
}

/// A NaN row passes only `<>`, wherever it sits in its block: zone maps
/// must not reject a block for the NaN rows' sake, nor keep its NaN rows
/// out of a `<>`.
TEST_F(PushdownIdentityTest, NaNPredicatesMatchUnpushedSerial) {
  constexpr int64_t kOddRows = 2 * kRowsPerBlock;
  ExpectCasesMatch("id, x", {{"x > 1.0", kOddRows - 2},
                             {"x <> 5.0", 2},
                             {"x = 5.0", kOddRows - 2},
                             {"id <= 16777216.0 AND x <> 5.0", 1}});
}

/// A ModelJoin query over `fact` with `model` deployed as `name`.
std::string ModelJoinSql(const storage::TablePtr& fact, const std::string& name,
                         const std::string& inputs) {
  return "SELECT id, prediction FROM " + fact->name() +
         " MODEL JOIN m USING MODEL '" + name + "' DEVICE 'cpu' PREDICT (" +
         inputs + ")";
}

// Without the shared-model registry a served ModelJoin builds its model per
// query, inside the Open of whichever executor instances start it, and runs
// morsel-parallel like any other plan. Predictions match a serial
// bare-engine run bit for bit.
TEST_F(ServerTest, PerQueryBuiltModelJoinsServedMorselParallel) {
  server::QueryServer::Options options;
  options.worker_threads = 4;
  options.engine.shared_models = false;
  options.engine.morsel_rows = 1024;  // ~20 morsels over 4 instances
  auto srv = MakeServer(options);
  sql::QueryEngine::Options serial_options;
  serial_options.worker_threads = 1;
  sql::QueryEngine serial(serial_options);
  modeljoin::RegisterNativeModelJoin(&serial);

  ASSERT_OK_AND_ASSIGN(nn::Model dense, nn::MakeDenseBenchmarkModel(16, 3, 21));
  ASSERT_OK_AND_ASSIGN(nn::Model lstm, nn::MakeLstmBenchmarkModel(12, 3, 33));
  struct Case {
    storage::TablePtr fact;
    const nn::Model* model;
    std::string name;
    std::string inputs;
  };
  const Case cases[] = {
      {benchlib::MakeIrisTable("fact", 20000), &dense, "dense16",
       "sepal_length, sepal_width, petal_length, petal_width"},
      {benchlib::MakeSinusTable("series", 20000, 3), &lstm, "lstm12", "x0, x1, x2"},
  };
  auto session = srv->CreateSession();
  const int64_t builds0 = CounterValue("modeljoin.registry_builds");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DeployModel(srv->engine(), c.fact, *c.model, c.name);
    DeployModel(&serial, c.fact, *c.model, c.name);
    const std::string sql = ModelJoinSql(c.fact, c.name, c.inputs);
    ASSERT_OK_AND_ASSIGN(auto want, serial.ExecuteQuery(sql));
    ASSERT_EQ(want.num_rows, 20000);
    for (int run = 0; run < 2; ++run) {
      ASSERT_OK_AND_ASSIGN(auto served, session->ExecuteQuery(sql));
      ExpectBitIdentical(served, want);
    }
  }
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0)
      << "per-query builds must bypass the registry";
}

// The barrier-free build lets a ModelJoin planned for 4 instances finish on
// an executor with a single thread: the one worker opens one instance,
// builds the whole model and then drains every morsel with it.
TEST(SharedExecutorTest, OneThreadRunsPerQueryModelJoinPlannedForFourInstances) {
  sql::QueryEngine::Options options;
  options.worker_threads = 1;
  options.morsel_rows = 1024;
  sql::QueryEngine engine(options);
  modeljoin::RegisterNativeModelJoin(&engine);
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  storage::TablePtr fact = benchlib::MakeIrisTable("fact", 20000);
  DeployModel(&engine, fact, model, "dense16");
  const std::string sql = ModelJoinSql(
      fact, "dense16", "sepal_length, sepal_width, petal_length, petal_width");

  ASSERT_OK_AND_ASSIGN(auto planned, engine.PlanQuery(sql));
  ASSERT_OK_AND_ASSIGN(
      exec::JobSpec spec,
      engine.PrepareJob(std::shared_ptr<const sql::LogicalOp>(std::move(planned)),
                        options, /*max_workers=*/4, nullptr));
  ASSERT_EQ(spec.num_instances, 4);
  ASSERT_GT(spec.morsels.size(), 4u);
  exec::SharedExecutor::Options one_thread;
  one_thread.worker_threads = 1;
  exec::SharedExecutor executor(one_thread);
  ASSERT_OK_AND_ASSIGN(auto handle, executor.Submit(std::move(spec)));
  ASSERT_OK_AND_ASSIGN(auto got, handle->Wait());

  ASSERT_OK_AND_ASSIGN(auto want, engine.ExecuteQuery(sql));  // serial drain
  ExpectBitIdentical(got, want);
}

TEST(SharedExecutorTest, PriorityClampAndDone) {
  server::QueryServer srv;
  auto session = srv.CreateSession();
  session->set_priority(-3);
  EXPECT_EQ(session->priority(), 1);
  session->set_priority(4);
  EXPECT_EQ(session->priority(), 4);
}

}  // namespace
}  // namespace indbml
