// Concurrency stress tests, written to run under ThreadSanitizer
// (-DINDBML_SANITIZE=thread). Each test hammers one of the engine's shared
// concurrency primitives hard enough that a missing happens-before edge
// shows up as a TSan report (or, without TSan, as a flaky count mismatch).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "inference/cache.h"
#include "inference/shared_model.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

// Small under TSan-free builds would finish instantly; sized so a TSan build
// still completes in seconds on one core.
constexpr int kRounds = 50;
constexpr int kTasksPerRound = 64;

/// Submit/WaitIdle churn: a task counted as finished by WaitIdle() must have
/// all its writes visible to the waiter.
TEST(ThreadPoolStressTest, SubmitWaitIdleHammer) {
  ThreadPool pool(4);
  int64_t plain_counter = 0;  // deliberately non-atomic: WaitIdle must order it
  std::atomic<int64_t> atomic_counter{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<int64_t> results(kTasksPerRound, 0);
    for (int t = 0; t < kTasksPerRound; ++t) {
      pool.Submit([&results, &atomic_counter, t] {
        results[static_cast<size_t>(t)] = t + 1;
        atomic_counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.WaitIdle();
    // Every task's write must be visible after WaitIdle returns.
    for (int t = 0; t < kTasksPerRound; ++t) {
      ASSERT_EQ(results[static_cast<size_t>(t)], t + 1) << "round " << round;
      plain_counter += 1;
    }
  }
  EXPECT_EQ(plain_counter, int64_t{kRounds} * kTasksPerRound);
  EXPECT_EQ(atomic_counter.load(), int64_t{kRounds} * kTasksPerRound);
}

/// WaitIdle on an empty pool and zero-task rounds must not hang or race.
TEST(ThreadPoolStressTest, WaitIdleWithoutWork) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) pool.WaitIdle();
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

/// ParallelFor writes to disjoint slots; the implicit wait must publish them.
TEST(ThreadPoolStressTest, ParallelForDisjointWrites) {
  ThreadPool pool(4);
  constexpr int kN = 512;
  std::vector<int64_t> data(kN, 0);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(kN, [&data, round](int i) {
      data[static_cast<size_t>(i)] = int64_t{round} * kN + i;
    });
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(data[static_cast<size_t>(i)], int64_t{round} * kN + i);
    }
  }
}

/// Concurrent metric updates while another thread snapshots the registry.
/// Update paths are relaxed atomics; snapshots take the registry mutex, so
/// the only requirement is absence of data races, not a consistent cut.
TEST(MetricsStressTest, ConcurrentUpdatesAndSnapshots) {
  auto& registry = metrics::Registry::Global();
  metrics::Counter* counter = registry.counter("stress.counter");
  metrics::Gauge* gauge = registry.gauge("stress.gauge");
  metrics::Histogram* histogram = registry.histogram("stress.histogram");
  counter->Reset();
  histogram->Reset();

  constexpr int kWriters = 3;
  constexpr int kUpdates = 5000;
  ThreadPool pool(kWriters + 1);
  std::atomic<bool> done{false};
  // Snapshot reader: exercises TextSnapshot/JsonSnapshot/FlatValues against
  // live writers.
  pool.Submit([&registry, &done] {
    while (!done.load(std::memory_order_acquire)) {
      std::string text = registry.TextSnapshot();
      ASSERT_NE(text.find("stress.counter"), std::string::npos);
      (void)registry.JsonSnapshot();
      (void)registry.FlatValues();
    }
  });
  for (int w = 0; w < kWriters; ++w) {
    pool.Submit([counter, gauge, histogram, w] {
      for (int i = 0; i < kUpdates; ++i) {
        counter->Increment();
        gauge->Set(w * kUpdates + i);
        histogram->Record(i);
      }
    });
  }
  // Writers finish, then release the reader. WaitIdle would deadlock with a
  // spinning reader, so flip the flag once the counter shows all updates.
  while (counter->value() < int64_t{kWriters} * kUpdates) {
  }
  done.store(true, std::memory_order_release);
  pool.WaitIdle();

  EXPECT_EQ(counter->value(), int64_t{kWriters} * kUpdates);
  EXPECT_EQ(histogram->count(), int64_t{kWriters} * kUpdates);
  EXPECT_GE(gauge->max(), kUpdates - 1);
}

/// MorselSource under contention: 8 workers hammer one source of tiny
/// morsels. Every morsel must be handed out exactly once with its correct
/// row range. The per-morsel payload slot is written with a deliberately
/// plain (non-atomic) store — a double hand-out becomes a data race TSan
/// reports, and without TSan the claim counters catch it.
TEST(MorselSourceStressTest, ContendedClaimsAreExactlyOnce) {
  constexpr int kWorkers = 8;
  constexpr int64_t kMorsels = 4096;
  std::vector<storage::PartitionRange> morsels;
  morsels.reserve(static_cast<size_t>(kMorsels));
  for (int64_t i = 0; i < kMorsels; ++i) {
    morsels.push_back({i * 4, i * 4 + 4});
  }
  ThreadPool pool(kWorkers);
  for (int round = 0; round < 10; ++round) {
    exec::MorselSource source(morsels);
    std::vector<std::atomic<int>> claims(static_cast<size_t>(kMorsels));
    for (auto& c : claims) c.store(0, std::memory_order_relaxed);
    std::vector<int64_t> payload(static_cast<size_t>(kMorsels), -1);
    std::atomic<int64_t> range_mismatches{0};
    for (int w = 0; w < kWorkers; ++w) {
      pool.Submit([&source, &claims, &payload, &range_mismatches] {
        exec::Morsel m;
        while (source.Next(&m)) {
          if (m.begin != m.index * 4 || m.end != m.index * 4 + 4) {
            range_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          payload[static_cast<size_t>(m.index)] = m.begin;  // plain write
          claims[static_cast<size_t>(m.index)].fetch_add(
              1, std::memory_order_relaxed);
        }
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(range_mismatches.load(), 0);
    for (int64_t i = 0; i < kMorsels; ++i) {
      ASSERT_EQ(claims[static_cast<size_t>(i)].load(), 1)
          << "morsel " << i << " in round " << round;
      ASSERT_EQ(payload[static_cast<size_t>(i)], i * 4);
    }
    // Dry source keeps returning false without handing out more work.
    exec::Morsel extra;
    EXPECT_FALSE(source.Next(&extra));
  }
}

/// Abort mid-drain: workers racing Next against an Abort must stop without
/// double-claims; an aborted source never hands out another morsel.
TEST(MorselSourceStressTest, AbortStopsHandouts) {
  constexpr int kWorkers = 4;
  std::vector<storage::PartitionRange> morsels;
  for (int64_t i = 0; i < 100000; ++i) morsels.push_back({i, i + 1});
  ThreadPool pool(kWorkers);
  exec::MorselSource source(std::move(morsels));
  std::atomic<int64_t> claimed{0};
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&source, &claimed, w] {
      exec::Morsel m;
      while (source.Next(&m)) {
        if (claimed.fetch_add(1, std::memory_order_relaxed) > 500 && w == 0) {
          source.Abort();
        }
      }
    });
  }
  pool.WaitIdle();
  EXPECT_TRUE(source.aborted());
  EXPECT_LT(claimed.load(), 100000);
  exec::Morsel extra;
  EXPECT_FALSE(source.Next(&extra));
}

/// Concurrent ModelJoin shared-model builds: every caller claims ranges of
/// the model table, parses them into the shared weight matrices and waits
/// for the build to finish. Repeated rounds on fresh models catch missing
/// happens-before edges between the parsers, the uploader and the waiters.
/// Sharded inference cache: 8 threads Lookup, Insert, InvalidateModel and
/// set_capacity_bytes at once. A model id stands for one deployed model
/// version, and every value encodes the (model id, tuple) it was computed
/// for, so a hit can never be stale (another version's value) or torn.
/// Each resize is followed by a check that the summed bytes fit, and once
/// the threads are done nothing inserted is lost.
TEST(InferenceCacheStressTest, ConcurrentLookupInsertInvalidateResize) {
  inference::InferenceCache cache;
  constexpr int kThreads = 8;
  constexpr int64_t kD = 3;
  constexpr int64_t kO = 2;
  constexpr int64_t kN = 48;
  auto predict = [](int64_t model_id, const float* tuple) {
    return std::vector<float>{static_cast<float>(model_id),
                              tuple[0] * 4.0f + tuple[1] * 2.0f + tuple[2]};
  };
  // Tuples from a small domain, so threads hit each other's entries.
  auto make_batch = [](uint64_t seed, std::vector<float>* in) {
    in->resize(static_cast<size_t>(kD * kN));
    for (int64_t j = 0; j < kN; ++j) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      for (int64_t f = 0; f < kD; ++f) {
        (*in)[static_cast<size_t>(f * kN + j)] = static_cast<float>((seed >> (20 + 3 * f)) & 7);
      }
    }
  };
  std::atomic<int64_t> bad{0};
  std::atomic<int64_t> over_capacity{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> in, tuple(kD), out(static_cast<size_t>(kO * kN)),
          results(static_cast<size_t>(kO * kN));
      for (int round = 0; round < kRounds * 4; ++round) {
        const int64_t model_id = 1 + (t + round) % 5;
        make_batch(static_cast<uint64_t>(t * 100003 + round), &in);
        std::vector<char> hits(static_cast<size_t>(kN), 0);
        cache.Lookup(model_id, in.data(), kN, kD, kO, out.data(), &hits);
        for (int64_t j = 0; j < kN; ++j) {
          for (int64_t f = 0; f < kD; ++f) tuple[f] = in[static_cast<size_t>(f * kN + j)];
          const std::vector<float> want = predict(model_id, tuple.data());
          for (int64_t p = 0; p < kO; ++p) {
            if (hits[static_cast<size_t>(j)] != 0 &&
                out[static_cast<size_t>(p * kN + j)] != want[static_cast<size_t>(p)]) {
              bad.fetch_add(1);
            }
            results[static_cast<size_t>(p * kN + j)] = want[static_cast<size_t>(p)];
          }
        }
        cache.Insert(model_id, in.data(), kN, kD, kO, results.data());
        if (t == 0 && round % 7 == 0) cache.InvalidateModel(1 + round % 5);
        if (t == kThreads - 1 && round % 5 == 0) {
          const int64_t capacity = (round / 5) % 3 == 0 ? 0 : 2048 << ((round / 5) % 3);
          cache.set_capacity_bytes(capacity);
          if (cache.GetStats().bytes > capacity) over_capacity.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0) << "a hit returned another key's or version's value";
  EXPECT_EQ(over_capacity.load(), 0);

  // Nothing lost: with room for everything, every inserted tuple hits.
  cache.set_capacity_bytes(1 << 20);
  std::vector<float> in, out(static_cast<size_t>(kO * kN)), results(static_cast<size_t>(kO * kN));
  make_batch(424242, &in);
  for (int64_t j = 0; j < kN; ++j) {
    const float tuple[3] = {in[static_cast<size_t>(j)], in[static_cast<size_t>(kN + j)],
                            in[static_cast<size_t>(2 * kN + j)]};
    const std::vector<float> want = predict(9, tuple);
    for (int64_t p = 0; p < kO; ++p) results[static_cast<size_t>(p * kN + j)] = want[static_cast<size_t>(p)];
  }
  cache.Insert(9, in.data(), kN, kD, kO, results.data());
  std::vector<char> hits(static_cast<size_t>(kN), 0);
  EXPECT_EQ(cache.Lookup(9, in.data(), kN, kD, kO, out.data(), &hits), kN);
  EXPECT_EQ(out, results);
}

TEST(SharedModelStressTest, ConcurrentBuildRounds) {
  auto model_or = nn::MakeDenseBenchmarkModel(/*width=*/12, /*depth=*/3, 7);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  auto table_or = framework.BuildModelTable();
  ASSERT_TRUE(table_or.ok());
  storage::TablePtr table = std::move(table_or).ValueOrDie();
  auto cpu = device::MakeCpuDevice();

  constexpr int kCallers = 5;
  ThreadPool pool(kCallers);
  for (int round = 0; round < 10; ++round) {
    inference::SharedModel shared(nn::MetaOf(model, "m"), cpu.get(), 256);
    std::vector<Status> statuses(kCallers);
    for (int p = 0; p < kCallers; ++p) {
      pool.Submit([&shared, &table, &statuses, p] {
        statuses[static_cast<size_t>(p)] = shared.Build(*table);
      });
    }
    pool.WaitIdle();
    for (const Status& s : statuses) ASSERT_OK(s);
    // Spot-check: every caller's writes are visible after the build.
    const nn::DenseLayer& dense = model.layers()[0].dense;
    const float* w = shared.dense_kernel(0);
    for (int64_t in = 0; in < dense.input_dim; ++in) {
      for (int64_t out = 0; out < dense.units; ++out) {
        ASSERT_FLOAT_EQ(w[out * dense.input_dim + in],
                        dense.kernel.At(in, out));
      }
    }
  }
}

/// Shared-Buffer lifetime under concurrency: a morsel-driven filter query
/// returns chunks that are selection views sharing the base table's column
/// buffers across worker threads. Dropping the table from the catalog,
/// destroying the engine, and releasing the last named TablePtr must leave
/// every view readable — the ref-counted buffers are the only thing keeping
/// the data alive (TSan/ASan guard the reads below).
TEST(SharedBufferStressTest, ResultViewsOutliveEngineAndTable) {
  constexpr int64_t kRows = 50000;
  exec::QueryResult result;
  {
    auto table = std::make_shared<storage::Table>(
        "t", std::vector<storage::Field>{{"id", storage::DataType::kInt64},
                                         {"k", storage::DataType::kInt64},
                                         {"x", storage::DataType::kFloat}});
    table->Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_OK(table->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Int64(i % 5),
                                  storage::Value::Float(static_cast<float>(i))}));
    }
    table->Finalize();
    table->SetUniqueIdColumn("id");
    table->SetSortedBy({"id"});

    sql::QueryEngine::Options options;
    options.worker_threads = 5;
    options.morsel_rows = 64;
    auto engine = std::make_unique<sql::QueryEngine>(options);
    ASSERT_OK(engine->catalog()->CreateTable(table));
    ASSERT_OK_AND_ASSIGN(result, engine->ExecuteQuery(
                                     "SELECT t.id, t.x FROM t WHERE t.k = 3"));
    ASSERT_OK(engine->catalog()->DropTable("t"));
    engine.reset();
    // `table` — the last named owner — dies at scope end.
  }

  ASSERT_EQ(result.num_rows, kRows / 5);
  // Hammer the orphaned views from several threads at once: concurrent
  // readers of the shared immutable buffers must be race-free.
  constexpr int kReaders = 4;
  ThreadPool pool(kReaders);
  std::vector<int64_t> sums(kReaders, 0);
  for (int p = 0; p < kReaders; ++p) {
    pool.Submit([&result, &sums, p] {
      const int64_t stripe = (result.num_rows + kReaders - 1) / kReaders;
      const int64_t begin = p * stripe;
      const int64_t end = std::min(result.num_rows, begin + stripe);
      int64_t sum = 0;
      for (int64_t r = begin; r < end; ++r) sum += result.GetValue(r, 0).i;
      sums[static_cast<size_t>(p)] = sum;
    });
  }
  pool.WaitIdle();
  int64_t total = 0;
  for (int64_t s : sums) total += s;
  // ids ≡ 3 (mod 5) over [0, kRows): 10000 survivors summing to 250005000.
  EXPECT_EQ(total, 250005000);
}

/// The bare engine has no admission control: more concurrent callers than
/// a QueryServer admits by default (8 running + 64 queued) all run at once
/// on the engine's executor. Re-sizing the executor (set_options with a new
/// worker_threads) while queries run must leave each query on the executor
/// it was submitted to, alive until the query finishes.
TEST(EngineExecutorStressTest, UnlimitedCallersAndResizeMidFlight) {
  constexpr int kClients = 80;
  constexpr int64_t kRows = 100000;
  auto table = std::make_shared<storage::Table>(
      "t", std::vector<storage::Field>{{"id", storage::DataType::kInt64},
                                       {"k", storage::DataType::kInt64}});
  table->Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(table->AppendRow(
        {storage::Value::Int64(i), storage::Value::Int64(i % 5)}));
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  sql::QueryEngine::Options options;
  options.worker_threads = 3;
  options.morsel_rows = 256;  // many morsels per query: long enough to overlap
  sql::QueryEngine engine(options);
  ASSERT_OK(engine.catalog()->CreateTable(table));

  // Each client waits at the gate, then runs one query; the sum of the ids
  // that are 3 (mod 5) proves the rows are complete and in place.
  int64_t expected_sum = 0;
  for (int64_t i = 3; i < kRows; i += 5) expected_sum += i;
  auto run_clients = [&](const std::function<void()>& while_running) {
    std::atomic<int> arrived{0};
    std::atomic<int> finished{0};
    std::atomic<int> wrong{0};
    ThreadPool clients(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.Submit([&] {
        arrived.fetch_add(1);
        while (arrived.load() < kClients) std::this_thread::yield();
        auto result = engine.ExecuteQuery("SELECT id FROM t WHERE k = 3");
        int64_t rows = -1;
        int64_t sum = 0;
        if (result.ok()) {
          const exec::QueryResult& r = result.ValueOrDie();
          rows = r.num_rows;
          for (int64_t row = 0; row < r.num_rows; ++row) sum += r.GetValue(row, 0).i;
        }
        if (rows != kRows / 5 || sum != expected_sum) wrong.fetch_add(1);
        finished.fetch_add(1);
      });
    }
    while (finished.load() < kClients) while_running();
    clients.WaitIdle();
    EXPECT_EQ(wrong.load(), 0);
  };

  run_clients([] { std::this_thread::yield(); });
  int step = 0;
  run_clients([&] {
    options.worker_threads = 1 + (++step % 4);
    engine.set_options(options);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
}

}  // namespace
}  // namespace indbml
