#include "inference/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "benchlib/workloads.h"
#include "common/stopwatch.h"
#include "device/device.h"
#include "inference/batcher.h"
#include "inference/cache.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using inference::InferenceBatcher;
using inference::InferenceCache;
using inference::InferenceCallStats;
using inference::InferenceOptions;
using inference::InferenceRuntime;
using inference::SharedModel;

/// Builds a SharedModel from a generated benchmark model via its table form
/// (the same path the native ModelJoin takes).
std::shared_ptr<SharedModel> BuildShared(const nn::Model& model,
                                         device::Device* device,
                                         int vector_size = 1024) {
  mltosql::MlToSql framework(const_cast<nn::Model*>(&model), "m");
  auto table = framework.BuildModelTable();
  INDBML_CHECK(table.ok()) << table.status().ToString();
  auto shared =
      std::make_shared<SharedModel>(nn::MetaOf(model, "m"), device, vector_size);
  Status built = shared->Build(*table.ValueOrDie());
  INDBML_CHECK(built.ok()) << built.ToString();
  return shared;
}

/// Random feature-major input matrix [d x n].
std::vector<float> RandomInput(int64_t d, int64_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> in(static_cast<size_t>(d * n));
  for (float& v : in) v = dist(rng);
  return in;
}

/// Extracts columns [j0, j0+sn) of a feature-major [d x n] matrix into a
/// dense [d x sn] slice — what a selection-compacted operator chunk looks
/// like to the batcher.
std::vector<float> Slice(const std::vector<float>& in, int64_t d, int64_t n,
                         int64_t j0, int64_t sn) {
  std::vector<float> out(static_cast<size_t>(d * sn));
  for (int64_t f = 0; f < d; ++f) {
    std::memcpy(out.data() + f * sn, in.data() + f * n + j0,
                static_cast<size_t>(sn) * sizeof(float));
  }
  return out;
}

class InferenceRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cpu_ = device::MakeCpuDevice();
    InferenceCache::Global().Clear();
  }
  void TearDown() override {
    InferenceCache::Global().Clear();
    InferenceCache::Global().set_capacity_bytes(32 << 20);
  }
  std::unique_ptr<device::Device> cpu_;
};

// ---------------------------------------------------------------------------
// Bit-identity: coalesced launches vs. per-slice launches. The batcher and
// the cache both rest on this property (column-independent kernels).
// ---------------------------------------------------------------------------

void CheckBatchedMatchesUnbatched(const nn::Model& model, device::Device* cpu,
                                  uint64_t seed) {
  auto shared = BuildShared(model, cpu, 256);
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  // Uneven odd-sized slices straddling the vector size, as selections
  // produce: 300 + 17 + 511 + 172 = 1000 rows.
  const int64_t n = 1000;
  const int64_t sizes[] = {300, 17, 511, 172};
  auto in = RandomInput(d, n, seed);

  std::vector<float> reference(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, in.data(), n,
                                           reference.data()));

  // The same rows, submitted as concurrent per-slice calls through the
  // batcher with a wide-open window so they coalesce whenever the timing
  // allows (the property must hold whether or not they do).
  InferenceOptions opts;
  opts.batch_window_us = 20000;
  opts.max_batch_rows = 4096;
  std::vector<std::vector<float>> slice_in, slice_out;
  int64_t j0 = 0;
  for (int64_t sn : sizes) {
    slice_in.push_back(Slice(in, d, n, j0, sn));
    slice_out.emplace_back(static_cast<size_t>(o * sn));
    j0 += sn;
  }
  std::vector<std::thread> threads;
  std::vector<Status> statuses(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      statuses[static_cast<size_t>(t)] = InferenceBatcher::Global().Run(
          shared, slice_in[static_cast<size_t>(t)].data(), sizes[t],
          slice_out[static_cast<size_t>(t)].data(), opts, nullptr, nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) ASSERT_OK(s);

  j0 = 0;
  for (size_t t = 0; t < 4; ++t) {
    for (int64_t p = 0; p < o; ++p) {
      for (int64_t j = 0; j < sizes[t]; ++j) {
        float batched = slice_out[t][static_cast<size_t>(p * sizes[t] + j)];
        float expected = reference[static_cast<size_t>(p * n + j0 + j)];
        // Bit-exact, not approximate: memcmp through the float bits.
        ASSERT_EQ(0, std::memcmp(&batched, &expected, sizeof(float)))
            << "slice " << t << " output " << p << " row " << j << ": "
            << batched << " vs " << expected;
      }
    }
    j0 += sizes[t];
  }
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedDense) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 7));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 11);
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedLstm) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(12, 3, 9));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 13);
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedGru) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(12, 3, 9));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 17);
}

// Blocking at the vector size: n far above vector_size runs in blocks that
// each match a direct single-block pass.
// Full vectors run inline: concurrent calls of at least vector_size() rows
// never wait in the coalescing window, and their outputs stay bit-identical
// to direct runtime passes.
TEST_F(InferenceRuntimeTest, FullVectorCallsRunInlineWithoutBatchWait) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 7));
  auto shared = BuildShared(model, cpu_.get(), 256);
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  InferenceOptions opts;
  opts.batch_window_us = 2'000'000;  // any wait at all would show
  opts.max_batch_rows = 4096;
  const int64_t sizes[] = {256, 600, 256, 1024};
  metrics::Histogram* waits =
      metrics::Registry::Global().histogram("inference.batch_wait_micros");
  const int64_t waits_before = waits->count();

  std::vector<std::vector<float>> ins, outs, refs;
  for (int t = 0; t < 4; ++t) {
    ins.push_back(RandomInput(d, sizes[t], 50 + t));
    outs.emplace_back(static_cast<size_t>(o * sizes[t]));
    refs.emplace_back(static_cast<size_t>(o * sizes[t]));
    ASSERT_OK(InferenceRuntime::Global().Run(*shared, ins.back().data(), sizes[t],
                                             refs.back().data()));
  }
  std::vector<Status> statuses(4);
  std::vector<InferenceCallStats> stats(4);
  std::vector<std::thread> threads;
  Stopwatch watch;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const size_t i = static_cast<size_t>(t);
      statuses[i] = InferenceBatcher::Global().Run(shared, ins[i].data(), sizes[t],
                                                   outs[i].data(), opts, nullptr, &stats[i]);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LT(watch.ElapsedMicros(), 1'000'000);
  EXPECT_EQ(waits->count(), waits_before) << "a full vector waited for partners";
  for (size_t t = 0; t < 4; ++t) {
    ASSERT_OK(statuses[t]);
    EXPECT_EQ(stats[t].wait_micros, 0);
    EXPECT_EQ(stats[t].batch_rows, sizes[t]) << "a full vector must launch alone";
    ASSERT_EQ(0, std::memcmp(outs[t].data(), refs[t].data(), outs[t].size() * sizeof(float)))
        << "call " << t;
  }
}

TEST_F(InferenceRuntimeTest, RunBlocksAtVectorSize) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  auto shared = BuildShared(model, cpu_.get(), 128);
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  const int64_t n = 1000;  // 7 full blocks of 128 + a 104-row tail
  auto in = RandomInput(d, n, 5);
  std::vector<float> big(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, in.data(), n, big.data()));
  for (int64_t j0 = 0; j0 < n; j0 += 128) {
    int64_t bn = std::min<int64_t>(128, n - j0);
    auto block = Slice(in, d, n, j0, bn);
    std::vector<float> out(static_cast<size_t>(o * bn));
    ASSERT_OK(
        InferenceRuntime::Global().Run(*shared, block.data(), bn, out.data()));
    for (int64_t p = 0; p < o; ++p) {
      for (int64_t j = 0; j < bn; ++j) {
        ASSERT_EQ(out[static_cast<size_t>(p * bn + j)],
                  big[static_cast<size_t>(p * n + j0 + j)]);
      }
    }
  }
}

TEST_F(InferenceRuntimeTest, RejectsUnbuiltModel) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  SharedModel shared(nn::MetaOf(model, "m"), cpu_.get(), 128);
  float in = 0.0f, out = 0.0f;
  Status status = InferenceRuntime::Global().Run(shared, &in, 1, &out);
  EXPECT_FALSE(status.ok());
}

// BuildFromModel (the mlruntime path) must produce the same weights — and
// therefore bit-identical predictions — as the model-table build.
TEST_F(InferenceRuntimeTest, BuildFromModelMatchesTableBuild) {
  for (auto make : {&nn::MakeLstmBenchmarkModel, &nn::MakeGruBenchmarkModel}) {
    ASSERT_OK_AND_ASSIGN(nn::Model model, make(8, 3, 19));
    auto from_table = BuildShared(model, cpu_.get(), 256);
    auto from_model =
        std::make_shared<SharedModel>(nn::MetaOf(model, "m"), cpu_.get(), 256);
    ASSERT_OK(from_model->BuildFromModel(model));

    const int64_t d = model.input_width();
    const int64_t o = model.output_dim();
    const int64_t n = 200;
    auto in = RandomInput(d, n, 23);
    std::vector<float> a(static_cast<size_t>(o * n)), b(a);
    ASSERT_OK(InferenceRuntime::Global().Run(*from_table, in.data(), n, a.data()));
    ASSERT_OK(InferenceRuntime::Global().Run(*from_model, in.data(), n, b.data()));
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

TEST_F(InferenceRuntimeTest, CacheHitsSkipTheRuntimeAndAreExact) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 7));
  auto shared = BuildShared(model, cpu_.get());
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  const int64_t n = 100;
  auto in = RandomInput(d, n, 31);

  InferenceOptions opts;
  opts.use_cache = true;
  std::vector<float> first(static_cast<size_t>(o * n));
  InferenceCallStats stats1;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, first.data(),
                                           opts, nullptr, &stats1));
  EXPECT_EQ(stats1.cache_hits, 0);

  std::vector<float> second(static_cast<size_t>(o * n), -99.0f);
  InferenceCallStats stats2;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, second.data(),
                                           opts, nullptr, &stats2));
  EXPECT_EQ(stats2.cache_hits, n);  // every row answered without the NN
  for (size_t i = 0; i < first.size(); ++i) ASSERT_EQ(first[i], second[i]);

  // Partial overlap: half old rows, half new → exactly n/2 hits, and the
  // scattered mix still matches a fresh full run.
  auto in2 = RandomInput(d, n, 32);
  std::vector<float> mixed_in(static_cast<size_t>(d * n));
  for (int64_t f = 0; f < d; ++f) {
    for (int64_t j = 0; j < n; ++j) {
      mixed_in[static_cast<size_t>(f * n + j)] =
          (j % 2 == 0) ? in[static_cast<size_t>(f * n + j)]
                       : in2[static_cast<size_t>(f * n + j)];
    }
  }
  std::vector<float> mixed_out(static_cast<size_t>(o * n));
  InferenceCallStats stats3;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, mixed_in.data(), n,
                                           mixed_out.data(), opts, nullptr,
                                           &stats3));
  EXPECT_EQ(stats3.cache_hits, n / 2);
  std::vector<float> mixed_ref(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, mixed_in.data(), n,
                                           mixed_ref.data()));
  for (size_t i = 0; i < mixed_out.size(); ++i) {
    ASSERT_EQ(mixed_out[i], mixed_ref[i]);
  }
}

TEST_F(InferenceRuntimeTest, CacheEvictsToCapacityLru) {
  InferenceCache& cache = InferenceCache::Global();
  cache.set_capacity_bytes(4096);
  const int64_t d = 4, o = 1, n = 1;
  float out[1];
  for (int64_t i = 0; i < 1000; ++i) {
    float in[4] = {static_cast<float>(i), 1.0f, 2.0f, 3.0f};
    float result[1] = {static_cast<float>(i) * 2.0f};
    cache.Insert(/*model_id=*/777, in, n, d, o, result);
  }
  auto stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 4096);
  EXPECT_GT(stats.entries, 0);
  // The most recent insert survived; the oldest was evicted.
  float newest[4] = {999.0f, 1.0f, 2.0f, 3.0f};
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(777, newest, n, d, o, out, &hits), 1);
  EXPECT_EQ(out[0], 1998.0f);
  float oldest[4] = {0.0f, 1.0f, 2.0f, 3.0f};
  hits.assign(1, 0);
  EXPECT_EQ(cache.Lookup(777, oldest, n, d, o, out, &hits), 0);
}

TEST_F(InferenceRuntimeTest, CacheInvalidateModelDropsOnlyThatModel) {
  InferenceCache& cache = InferenceCache::Global();
  float in[2] = {1.0f, 2.0f};
  float r1[1] = {10.0f}, r2[1] = {20.0f};
  cache.Insert(1, in, 1, 2, 1, r1);
  cache.Insert(2, in, 1, 2, 1, r2);
  cache.InvalidateModel(1);
  float out[1];
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(1, in, 1, 2, 1, out, &hits), 0);
  hits.assign(1, 0);
  EXPECT_EQ(cache.Lookup(2, in, 1, 2, 1, out, &hits), 1);
  EXPECT_EQ(out[0], 20.0f);
}

TEST_F(InferenceRuntimeTest, CacheCapacityZeroDisables) {
  InferenceCache& cache = InferenceCache::Global();
  cache.set_capacity_bytes(0);
  float in[2] = {1.0f, 2.0f};
  float r[1] = {10.0f};
  cache.Insert(5, in, 1, 2, 1, r);
  float out[1];
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(5, in, 1, 2, 1, out, &hits), 0);
  EXPECT_EQ(cache.GetStats().entries, 0);
}

// The shards' byte shares sum to the capacity: mixed key and value sizes
// never push the summed bytes above it, before or after a shrink.
TEST_F(InferenceRuntimeTest, CacheBytesStayWithinCapacityForMixedSizes) {
  InferenceCache& cache = InferenceCache::Global();
  cache.set_capacity_bytes(10'000);
  std::mt19937 rng(5);
  for (int i = 0; i < 400; ++i) {
    const int64_t d = 1 + static_cast<int64_t>(rng() % 40);
    const int64_t o = 1 + static_cast<int64_t>(rng() % 5);
    const int64_t n = 1 + static_cast<int64_t>(rng() % 8);
    auto in = RandomInput(d, n, static_cast<uint64_t>(i));
    std::vector<float> results(static_cast<size_t>(o * n), 1.0f);
    cache.Insert(/*model_id=*/i % 3, in.data(), n, d, o, results.data());
    ASSERT_LE(cache.GetStats().bytes, 10'000) << "insert " << i;
  }
  EXPECT_GT(cache.GetStats().entries, 0);
  cache.set_capacity_bytes(3'000);
  EXPECT_LE(cache.GetStats().bytes, 3'000);
  EXPECT_EQ(cache.capacity_bytes(), 3'000);
}

// ---------------------------------------------------------------------------
// Cancellation: interrupting calls blocked in batcher waits returns them
// promptly — far inside the 2-second window they would otherwise sit out.
// ---------------------------------------------------------------------------

TEST_F(InferenceRuntimeTest, InterruptedWaitersReturnPromptly) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  auto shared = BuildShared(model, cpu_.get());
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  InferenceOptions opts;
  opts.batch_window_us = 2'000'000;  // a wedge would cost 2 s per launch

  constexpr int kThreads = 4;
  std::atomic<bool> interrupt{false};
  auto in = RandomInput(d, 64 * kThreads, 41);
  std::vector<std::vector<float>> outs(kThreads,
                                       std::vector<float>(static_cast<size_t>(o * 64)));
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      statuses[static_cast<size_t>(t)] = InferenceBatcher::Global().Run(
          shared, in.data() + t * 64, 64, outs[static_cast<size_t>(t)].data(),
          opts, &interrupt, nullptr);
    });
  }
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  interrupt.store(true, std::memory_order_release);
  InferenceBatcher::Global().KickWaiters();
  for (auto& t : threads) t.join();
  // Every call returned — leaders launched despite the interrupt, followers
  // either rode the launch or detached with Cancelled — well inside the
  // window they were prepared to wait.
  EXPECT_LT(watch.ElapsedMicros(), 1'500'000);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCancelled) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// End-to-end through SQL: a filtered ModelJoin under the serving defaults
// (batching + cache on) returns bit-identical predictions to the plain
// engine path, for every model family.
// ---------------------------------------------------------------------------

void CheckSqlBatchingAblation(const char* family) {
  auto make_engine = [&](bool serving_knobs) {
    sql::QueryEngine::Options options;
    if (serving_knobs) {
      options.inference.batch_window_us = 200;
      options.inference.max_batch_rows = 4096;
      options.inference.result_cache = true;
    }
    auto engine = std::make_unique<sql::QueryEngine>(options);
    modeljoin::RegisterNativeModelJoin(engine.get());
    return engine;
  };

  std::string sql;
  nn::Model model;
  storage::TablePtr fact;
  if (std::string(family) == "dense") {
    fact = benchlib::MakeIrisTable("fact", 4000);
    ASSERT_OK_AND_ASSIGN(model, nn::MakeDenseBenchmarkModel(16, 3, 21));
    sql =
        "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'mm' "
        "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
        "petal_width) WHERE sepal_length > 5.0 ORDER BY id";
  } else {
    fact = benchlib::MakeSinusTable("fact", 3000, 3);
    if (std::string(family) == "lstm") {
      ASSERT_OK_AND_ASSIGN(model, nn::MakeLstmBenchmarkModel(12, 3, 33));
    } else {
      ASSERT_OK_AND_ASSIGN(model, nn::MakeGruBenchmarkModel(12, 3, 33));
    }
    sql =
        "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'mm' "
        "DEVICE 'cpu' PREDICT (x0, x1, x2) WHERE x0 > 0.0 ORDER BY id";
  }

  exec::QueryResult results[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto engine = make_engine(pass == 1);
    ASSERT_OK(engine->catalog()->CreateTable(fact));
    mltosql::MlToSql framework(&model, "m");
    ASSERT_OK(framework.Deploy(engine.get()));
    engine->models()->Register(nn::MetaOf(model, "mm"));
    ASSERT_OK_AND_ASSIGN(results[pass], engine->ExecuteQuery(sql));
  }
  ASSERT_EQ(results[0].num_rows, results[1].num_rows);
  ASSERT_GT(results[0].num_rows, 0);
  ASSERT_OK_AND_ASSIGN(int pred_col, results[0].ColumnIndex("prediction"));
  for (int64_t r = 0; r < results[0].num_rows; ++r) {
    float plain = results[0].GetValue(r, pred_col).f;
    float served = results[1].GetValue(r, pred_col).f;
    ASSERT_EQ(0, std::memcmp(&plain, &served, sizeof(float)))
        << family << " row " << r << ": " << plain << " vs " << served;
  }
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalDense) {
  CheckSqlBatchingAblation("dense");
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalLstm) {
  CheckSqlBatchingAblation("lstm");
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalGru) {
  CheckSqlBatchingAblation("gru");
}

}  // namespace
}  // namespace indbml
