// Tests of morsel-driven execution (exec/morsel.h, exec/executor.h):
// morsel generation, the DataChunk buffer-reuse hot path, the engine's
// worker options, and — the core acceptance property — that morsel-driven parallel
// execution is row-for-row identical to serial execution across scans,
// filters, joins, aggregation, sorting and the native ModelJoin.

#include "exec/morsel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/workloads.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "exec/profile.h"
#include "exec/vector.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "server/server.h"
#include "sql/plan_validate.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using testutil::I;

storage::TablePtr MakeIdTable(const std::string& name, int64_t rows,
                              int64_t repeats_per_id) {
  auto table = std::make_shared<storage::Table>(
      name, std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                        {"x", exec::DataType::kFloat}});
  for (int64_t r = 0; r < rows; ++r) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(r / repeats_per_id),
                                  storage::Value::Float(static_cast<float>(r))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

TEST(MakeMorselsTest, CoversTableContiguously) {
  auto table = MakeIdTable("t", 10000, 1);
  metrics::Counter* pruned =
      metrics::Registry::Global().counter("exec.morsels_pruned");
  const int64_t pruned_before = pruned->value();
  auto morsels = exec::MakeMorsels(*table, 1024);
  EXPECT_EQ(pruned->value(), pruned_before) << "no predicates, nothing pruned";
  ASSERT_FALSE(morsels.empty());
  EXPECT_EQ(morsels.front().begin, 0);
  EXPECT_EQ(morsels.back().end, 10000);
  for (size_t i = 1; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].begin, morsels[i - 1].end) << "gap before morsel " << i;
  }
  // Unique ids: no boundary extension, so every morsel except the last is
  // exactly the requested size.
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].end - morsels[i].begin, 1024);
  }
}

TEST(MakeMorselsTest, AlignsBoundariesOnRepeatedIds) {
  // 7 rows per id and a morsel size that never divides evenly: every raw
  // boundary lands mid-group and must be pushed to the next id change.
  auto table = MakeIdTable("t", 7 * 300, 7);
  auto morsels = exec::MakeMorsels(*table, 10);
  ASSERT_GT(morsels.size(), 1u);
  const storage::Column& id = table->column(0);
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    int64_t b = morsels[i].end;
    EXPECT_NE(id.GetInt64(b), id.GetInt64(b - 1))
        << "morsel " << i << " splits id group at row " << b;
  }
  EXPECT_EQ(morsels.back().end, table->num_rows());
}

TEST(MakeMorselsTest, NonPositiveSizeFallsBackToDefault) {
  auto table = MakeIdTable("t", kDefaultMorselRows + 5, 1);
  auto morsels = exec::MakeMorsels(*table, 0);
  EXPECT_EQ(static_cast<int64_t>(morsels.size()), 2);
}

exec::ScanPredicate IdPredicate(exec::BinaryOp op, int64_t value) {
  exec::ScanPredicate p;
  p.column = 0;  // MakeIdTable's id column
  p.op = op;
  p.value = storage::Value::Int64(value);
  return p;
}

bool SameRange(const storage::PartitionRange& a, const storage::PartitionRange& b) {
  return a.begin == b.begin && a.end == b.end;
}

TEST(MakeMorselsTest, PrunedMorselsStayOrderedAndGroupAligned) {
  // 7 rows per id, morsels of 1001 rows, blocks of 4096: ids 1171..1999
  // live in rows 8197..13999 (blocks 2-3), so only the morsels overlapping
  // those blocks survive, and each survivor is one of the unpruned morsels.
  // The morsel [8008, 9009) also overlaps the rejected block 1 and must be
  // kept for its rows in block 2.
  auto table = MakeIdTable("t", 7 * 3000, 7);
  const std::vector<exec::ScanPredicate> range = {
      IdPredicate(exec::BinaryOp::kGe, 1171), IdPredicate(exec::BinaryOp::kLe, 1999)};
  metrics::Counter* pruned =
      metrics::Registry::Global().counter("exec.morsels_pruned");
  const int64_t before = pruned->value();
  auto all = exec::MakeMorsels(*table, 1000);
  auto kept = exec::MakeMorsels(*table, 1000, range);
  ASSERT_FALSE(kept.empty());
  ASSERT_LT(kept.size(), all.size());
  EXPECT_EQ(pruned->value() - before, static_cast<int64_t>(all.size() - kept.size()));

  const storage::Column& id = table->column(0);
  size_t next = 0;
  for (size_t k = 0; k < kept.size(); ++k) {
    while (next < all.size() && !SameRange(all[next], kept[k])) ++next;
    ASSERT_LT(next, all.size()) << "kept morsel " << k << " is not an unpruned "
                                   "morsel in table order";
    ++next;
    ASSERT_LT(kept[k].begin, kept[k].end);
    if (kept[k].end < table->num_rows()) {
      EXPECT_NE(id.GetInt64(kept[k].end), id.GetInt64(kept[k].end - 1))
          << "kept morsel " << k << " splits an id group";
    }
  }
  // Every matching row lies in a kept morsel.
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    const int64_t v = id.GetInt64(r);
    if (v < 1171 || v > 1999) continue;
    bool covered = false;
    for (const auto& m : kept) covered = covered || (m.begin <= r && r < m.end);
    ASSERT_TRUE(covered) << "matching row " << r << " was pruned";
  }
}

TEST(MakeMorselsTest, PartlyMatchingBlockKeepsItsMorsel) {
  // One block per morsel; the range touches only the last row of block 0
  // and the first row of block 1, so exactly those two morsels survive.
  const int64_t rows_per_block = kRowsPerBlock;
  auto table = MakeIdTable("t", rows_per_block * 4, 1);
  auto kept = exec::MakeMorsels(
      *table, rows_per_block,
      {IdPredicate(exec::BinaryOp::kGe, rows_per_block - 1),
       IdPredicate(exec::BinaryOp::kLe, rows_per_block)});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].begin, 0);
  EXPECT_EQ(kept[0].end, rows_per_block);
  EXPECT_EQ(kept[1].begin, rows_per_block);
  EXPECT_EQ(kept[1].end, 2 * rows_per_block);

  // A range past the last id rules out every morsel.
  EXPECT_TRUE(exec::MakeMorsels(*table, rows_per_block,
                                {IdPredicate(exec::BinaryOp::kGe, 1000000000)})
                  .empty());
}

TEST(DataChunkResetTest, ReusesColumnBuffersAcrossResets) {
  std::vector<exec::DataType> types{exec::DataType::kInt64,
                                    exec::DataType::kFloat};
  exec::DataChunk chunk;
  chunk.Reset(types);
  chunk.SetCardinality(512);
  const int64_t* ints_before = chunk.column(0).ints();
  const float* floats_before = chunk.column(1).floats();

  chunk.Reset(types);
  EXPECT_EQ(chunk.size, 0);
  EXPECT_EQ(chunk.column(0).size(), 0);
  chunk.SetCardinality(512);
  // Same capacity request after a same-schema Reset: the buffers must be the
  // ones from the previous iteration, not fresh allocations.
  EXPECT_EQ(chunk.column(0).ints(), ints_before);
  EXPECT_EQ(chunk.column(1).floats(), floats_before);

  // Schema change falls back to a rebuild.
  std::vector<exec::DataType> other{exec::DataType::kFloat};
  chunk.Reset(other);
  ASSERT_EQ(chunk.num_columns(), 1);
  EXPECT_EQ(chunk.column(0).type(), exec::DataType::kFloat);
}

/// Asserts two results are row-for-row identical: same schema, same row
/// count, bit-equal values at every (row, column).
void ExpectRowIdentical(const exec::QueryResult& actual,
                        const exec::QueryResult& expected) {
  ASSERT_EQ(actual.names, expected.names);
  ASSERT_EQ(actual.num_rows, expected.num_rows);
  for (int64_t r = 0; r < expected.num_rows; ++r) {
    for (size_t c = 0; c < expected.types.size(); ++c) {
      exec::Value va = actual.GetValue(r, static_cast<int>(c));
      exec::Value ve = expected.GetValue(r, static_cast<int>(c));
      ASSERT_EQ(va.type, ve.type) << "row " << r << " col " << c;
      switch (ve.type) {
        case exec::DataType::kBool:
          ASSERT_EQ(va.b, ve.b) << "row " << r << " col " << c;
          break;
        case exec::DataType::kInt64:
          ASSERT_EQ(va.i, ve.i) << "row " << r << " col " << c;
          break;
        case exec::DataType::kFloat:
          ASSERT_EQ(va.f, ve.f) << "row " << r << " col " << c;
          break;
      }
    }
  }
}

storage::TablePtr DeterminismFactTable(int64_t rows) {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"k", exec::DataType::kInt64},
                                          {"a", exec::DataType::kFloat},
                                          {"b", exec::DataType::kFloat}});
  Random rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Int64(static_cast<int64_t>(
                                      rng.NextUint64(5))),
                                  storage::Value::Float(rng.NextFloat(-10, 10)),
                                  storage::Value::Float(rng.NextFloat(-10, 10))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

/// Workers the engine ran a parallel-safe scan with, as its profile records.
int ProfiledWorkers(sql::QueryEngine* engine) {
  exec::QueryProfile profile;
  auto result = engine->ExecuteQuery("SELECT f.id, f.a FROM fact f", &profile);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return profile.num_workers();
}

TEST(EngineWorkerPoolTest, HonorsWorkerThreadOptionChanges) {
  sql::QueryEngine::Options options;
  options.worker_threads = 3;
  sql::QueryEngine engine(options);
  ASSERT_OK(engine.catalog()->CreateTable(DeterminismFactTable(1000)));
  EXPECT_EQ(engine.EffectiveWorkers(), 3);
  EXPECT_EQ(ProfiledWorkers(&engine), 3);

  options.worker_threads = 2;
  engine.set_options(options);
  EXPECT_EQ(ProfiledWorkers(&engine), 2);

  // One worker thread means serial execution: the parallel-safe plan runs
  // as a single instance on the calling thread.
  options.worker_threads = 1;
  engine.set_options(options);
  EXPECT_EQ(ProfiledWorkers(&engine), 1);

  options.worker_threads = 0;
  engine.set_options(options);
  EXPECT_GE(HardwareConcurrency(), 1);
  EXPECT_EQ(engine.EffectiveWorkers(), HardwareConcurrency());
  EXPECT_EQ(ProfiledWorkers(&engine), HardwareConcurrency());
}

class MorselDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fact_ = DeterminismFactTable(20000);
    dim_ = testutil::MakeTable("dim",
                               {{"k", exec::DataType::kInt64},
                                {"v", exec::DataType::kInt64}},
                               {{I(0), I(100)},
                                {I(1), I(101)},
                                {I(2), I(102)},
                                {I(3), I(103)},
                                {I(4), I(104)}});

    sql::QueryEngine::Options serial;
    serial.worker_threads = 1;
    serial_ = std::make_unique<sql::QueryEngine>(serial);

    // Deliberately small morsels (many per worker) and more workers than the
    // query strictly needs: maximises interleaving, so ordering bugs surface.
    sql::QueryEngine::Options morsel;
    morsel.worker_threads = 5;
    morsel.morsel_rows = 64;
    morsel_ = std::make_unique<sql::QueryEngine>(morsel);

    for (sql::QueryEngine* engine : {serial_.get(), morsel_.get()}) {
      ASSERT_OK(engine->catalog()->CreateTable(fact_));
      ASSERT_OK(engine->catalog()->CreateTable(dim_));
    }
  }

  void ExpectDeterministic(const std::string& query) {
    SCOPED_TRACE(query);
    ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
    ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
    ExpectRowIdentical(morsel_result, serial_result);
  }

  storage::TablePtr fact_;
  storage::TablePtr dim_;
  std::unique_ptr<sql::QueryEngine> serial_;
  std::unique_ptr<sql::QueryEngine> morsel_;
};

TEST_F(MorselDeterminismTest, ScanFilterProject) {
  ExpectDeterministic(
      "SELECT f.id, f.a + f.b AS e FROM fact f WHERE f.a >= 0.0");
}

TEST_F(MorselDeterminismTest, StreamingAggregationById) {
  ExpectDeterministic(
      "SELECT f.id AS g, SUM(f.a) AS s, COUNT(*) AS c, MIN(f.b) AS m "
      "FROM fact f GROUP BY f.id");
}

TEST_F(MorselDeterminismTest, HashJoinAgainstDimension) {
  ExpectDeterministic(
      "SELECT f.id, d.v, f.a FROM fact f, dim d WHERE f.k = d.k");
}

TEST_F(MorselDeterminismTest, SortOnPartitionColumn) {
  ExpectDeterministic(
      "SELECT f.id, f.a FROM fact f WHERE f.b >= 0.0 ORDER BY f.id");
}

TEST_F(MorselDeterminismTest, JoinThenAggregation) {
  ExpectDeterministic(
      "SELECT f.id AS g, SUM(f.a + f.b) AS s FROM fact f, dim d "
      "WHERE f.k = d.k AND f.a >= -5.0 GROUP BY f.id");
}

/// A selection-heavy plan (filter → selection vectors over scan views,
/// project evaluated through them) must be bit-identical whether executed
/// serially or morsel-wise with aggressive interleaving.
TEST_F(MorselDeterminismTest, SelectionProducingFilterMatchesSerial) {
  const std::string query =
      "SELECT f.id, f.a * 2.0 AS a2, f.b FROM fact f "
      "WHERE f.k = 2 AND f.a >= 0.0";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_GT(serial_result.num_rows, 0);
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ExpectRowIdentical(morsel_result, serial_result);
}

/// Skewed workload: virtually all filter survivors sit in one contiguous 10%
/// of the table, so static partitioning gives one thread almost all the
/// post-filter work. The morsel path must still produce serial row order.
TEST(MorselSkewTest, SkewedFilterRowIdenticalToSerial) {
  const int64_t kRows = 50000;
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"marker", exec::DataType::kFloat},
                                          {"x", exec::DataType::kFloat}});
  Random rng(13);
  const int64_t hot_begin = kRows * 8 / 10;
  const int64_t hot_end = hot_begin + kRows / 10;
  for (int64_t i = 0; i < kRows; ++i) {
    float marker = (i >= hot_begin && i < hot_end) ? 1.0f : 0.0f;
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(marker),
                                  storage::Value::Float(rng.NextFloat(-1, 1))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});

  sql::QueryEngine::Options serial;
  serial.worker_threads = 1;
  sql::QueryEngine serial_engine(serial);
  ASSERT_OK(serial_engine.catalog()->CreateTable(table));

  sql::QueryEngine::Options morsel;
  morsel.worker_threads = 8;
  morsel.morsel_rows = 512;
  sql::QueryEngine morsel_engine(morsel);
  ASSERT_OK(morsel_engine.catalog()->CreateTable(table));

  const std::string query =
      "SELECT f.id, f.x * 2.0 AS y FROM fact f WHERE f.marker >= 0.5";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_engine.ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_engine.ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, kRows / 10);
  ExpectRowIdentical(morsel_result, serial_result);
}

class ModelJoinMorselTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sql::QueryEngine::Options serial;
    serial.worker_threads = 1;
    serial_ = std::make_unique<sql::QueryEngine>(serial);
    modeljoin::RegisterNativeModelJoin(serial_.get());

    sql::QueryEngine::Options morsel;
    morsel.worker_threads = 4;
    morsel.morsel_rows = 256;
    morsel_ = std::make_unique<sql::QueryEngine>(morsel);
    modeljoin::RegisterNativeModelJoin(morsel_.get());
  }

  void Deploy(nn::Model* model, const std::string& registered_name) {
    for (sql::QueryEngine* engine : {serial_.get(), morsel_.get()}) {
      mltosql::MlToSql framework(model, "m");
      ASSERT_OK(framework.Deploy(engine));
      engine->models()->Register(nn::MetaOf(*model, registered_name));
    }
  }

  std::unique_ptr<sql::QueryEngine> serial_;
  std::unique_ptr<sql::QueryEngine> morsel_;
};

TEST_F(ModelJoinMorselTest, InferenceRowIdenticalToSerial) {
  auto fact = benchlib::MakeIrisTable("fact", 4000);
  ASSERT_OK(serial_->catalog()->CreateTable(fact));
  ASSERT_OK(morsel_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  Deploy(&model, "dense16");

  const std::string query =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, 4000);
  ExpectRowIdentical(morsel_result, serial_result);
}

TEST_F(ModelJoinMorselTest, InferenceWithAggregationRowIdenticalToSerial) {
  auto fact = benchlib::MakeIrisTable("fact", 3000);
  ASSERT_OK(serial_->catalog()->CreateTable(fact));
  ASSERT_OK(morsel_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 5));
  Deploy(&model, "dense8");

  const std::string query =
      "SELECT id, AVG(prediction) AS p, COUNT(*) AS n FROM fact "
      "MODEL JOIN m USING MODEL 'dense8' DEVICE 'cpu' "
      "PREDICT (sepal_length, sepal_width, petal_length, petal_width) "
      "GROUP BY id";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, 3000);
  ExpectRowIdentical(morsel_result, serial_result);
}

TEST(MorselSafetyValidationTest, AcceptsParallelSafeRejectsSerialOnly) {
  sql::QueryEngine engine;
  auto fact = DeterminismFactTable(100);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  sql::Optimizer optimizer(engine.options().optimizer);
  const std::string safe_query = "SELECT f.id, f.a FROM fact f";
  ASSERT_OK_AND_ASSIGN(auto safe_plan, engine.PlanQuery(safe_query));
  sql::PlanAnalysis safe_analysis = optimizer.Analyze(*safe_plan);
  ASSERT_TRUE(safe_analysis.parallel_safe);
  ASSERT_OK(sql::ValidateMorselSafety(*safe_plan, safe_analysis));

  // A global LIMIT or GROUP BY on a non-id key is cut: the plan below it
  // runs per morsel and the validator accepts it.
  for (const char* cut_query :
       {"SELECT f.id FROM fact f LIMIT 5",
        "SELECT f.k, SUM(f.a) AS s FROM fact f GROUP BY f.k ORDER BY s DESC"}) {
    ASSERT_OK_AND_ASSIGN(auto cut_plan, engine.PlanQuery(cut_query));
    sql::PlanAnalysis cut_analysis = optimizer.Analyze(*cut_plan);
    ASSERT_TRUE(cut_analysis.parallel_safe) << cut_query;
    ASSERT_NE(cut_analysis.cut, nullptr) << cut_query;
    EXPECT_OK(sql::ValidateMorselSafety(*cut_plan, cut_analysis));
  }

  // A self-join on a non-id key does not decompose over morsels; the
  // analysis marks it serial-only and the validator must refuse it.
  const std::string serial_query =
      "SELECT a.id FROM fact a, fact b WHERE a.k = b.k AND a.id < 3";
  ASSERT_OK_AND_ASSIGN(auto serial_plan, engine.PlanQuery(serial_query));
  sql::PlanAnalysis serial_analysis = optimizer.Analyze(*serial_plan);
  ASSERT_FALSE(serial_analysis.parallel_safe);
  EXPECT_FALSE(sql::ValidateMorselSafety(*serial_plan, serial_analysis).ok());
}

// ---------------------------------------------------------------------------
// Fused scan→filter→project pipeline (exec/fused_scan.h)

/// Queries that exercise the fusable chain shapes: pushed predicates only,
/// residual float/int conditions, multi-conjunct filters, pure-column
/// projects, and expression projects (which keep the discrete operators but
/// may still fuse the scan+filter below them).
const char* const kFusionQueries[] = {
    "SELECT f.id, f.a, f.b FROM fact f WHERE f.a >= 0.0",
    "SELECT f.id FROM fact f WHERE f.k = 2 AND f.a >= 0.0",
    "SELECT f.b, f.id FROM fact f WHERE f.a > 0.25 AND f.b < 3.5",
    "SELECT f.id, f.a * 2.0 AS a2 FROM fact f WHERE f.k >= 3",
    "SELECT f.id, f.a FROM fact f",
    "SELECT f.id AS g, SUM(f.a) AS s FROM fact f WHERE f.b >= -5.0 GROUP BY f.id",
};

/// Fused and unfused pipelines must produce row-for-row bit-identical
/// results, serially and morsel-driven, and the engine must actually build
/// FusedTableScanOperator instances (observed via the "exec.fused_scans"
/// metrics counter). The unfused reference is a profiled serial run:
/// profiling builds the discrete Scan/Filter/Project operators.
TEST_F(MorselDeterminismTest, FusedPipelineBitIdenticalToUnfused) {
  metrics::Counter* fused_scans =
      metrics::Registry::Global().counter("exec.fused_scans");
  for (const char* query : kFusionQueries) {
    SCOPED_TRACE(query);
    int64_t before = fused_scans->value();
    exec::QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(auto unfused_result,
                         serial_->ExecuteQuery(query, &profile));
    ASSERT_EQ(fused_scans->value(), before)
        << "the profiled reference run must use the discrete operators; "
           "if profiling now fuses, this test needs another unfused "
           "reference";
    ASSERT_OK_AND_ASSIGN(auto fused_result, serial_->ExecuteQuery(query));
    ExpectRowIdentical(fused_result, unfused_result);
    ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
    ExpectRowIdentical(morsel_result, unfused_result);
  }
  // At least the predicate-bearing queries fused on the default engines.
  EXPECT_GT(fused_scans->value(), 0);
}

/// Division in a filter condition can fault on rows that would never reach
/// it in the discrete pipeline, so such chains must not fuse — and must
/// still compute the same result through the discrete operators. The
/// condition is the *only* predicate so nothing is pushed into the scan
/// (a pushed conjunct would legitimately fuse as a predicate-only scan).
TEST_F(MorselDeterminismTest, DivisionFilterStaysUnfusedAndCorrect) {
  const std::string query =
      "SELECT f.id FROM fact f WHERE 10.0 / (f.a + 11.0) < 8.0";
  metrics::Counter* fused_scans =
      metrics::Registry::Global().counter("exec.fused_scans");
  int64_t before = fused_scans->value();
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  EXPECT_EQ(fused_scans->value(), before)
      << "conditions containing division must not fuse";
  ASSERT_GT(serial_result.num_rows, 0);
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ExpectRowIdentical(morsel_result, serial_result);
}

/// SIMD off at runtime (the scalar ablation) must not change a single bit of
/// a fused, selection-heavy query's output.
TEST_F(MorselDeterminismTest, ScalarAblationBitIdentical) {
  const std::string query =
      "SELECT f.id, f.a * 2.0 AS a2, f.b FROM fact f "
      "WHERE f.k = 2 AND f.a >= 0.0";
  ASSERT_OK_AND_ASSIGN(auto simd_result, serial_->ExecuteQuery(query));
  simd::ScopedEnable off(false);
  ASSERT_OK_AND_ASSIGN(auto scalar_result, serial_->ExecuteQuery(query));
  ExpectRowIdentical(scalar_result, simd_result);
}

// ---------------------------------------------------------------------------
// Plans cut at a pipeline breaker (sql/optimizer.h PlanAnalysis::cut): a
// GROUP BY on another key or expression, a global aggregate, ORDER BY and
// LIMIT over MODEL JOIN. The part below the cut runs per morsel; the merge
// runs in morsel order, so 1 and 4 workers — bare engine or served, with
// the inference batcher and result cache on — give bit-identical rows.

struct BreakerFamily {
  const char* name;
  const char* predict;  ///< the MODEL JOIN ... PREDICT (...) clause
  bool dense;           ///< Iris + dense model (has `class`), else sinus + LSTM
};

class BreakerIdentityTest : public ::testing::TestWithParam<BreakerFamily> {
 protected:
  static constexpr int64_t kRows = 6000;

  void SetUp() override {
    modeljoin::SharedModelRegistry::Global().Clear();
    const BreakerFamily& family = GetParam();
    fact_ = family.dense ? benchlib::MakeIrisTable("fact", kRows)
                         : benchlib::MakeSinusTable("fact", kRows, 3);
    auto made = family.dense ? nn::MakeDenseBenchmarkModel(16, 3, 21)
                             : nn::MakeLstmBenchmarkModel(12, 3, 33);
    ASSERT_OK(made.status());
    model_ = std::move(made).ValueOrDie();
  }

  static sql::QueryEngine::Options EngineOptions(int workers) {
    sql::QueryEngine::Options options;
    options.worker_threads = workers;
    options.morsel_rows = 256;  // many morsels: every merge path is exercised
    options.inference.batch_window_us = 200;
    options.inference.result_cache = true;
    return options;
  }

  void Deploy(sql::QueryEngine* engine) {
    engine->catalog()->CreateOrReplaceTable(fact_);
    mltosql::MlToSql framework(&model_, "m");
    ASSERT_OK(framework.Deploy(engine));
    engine->models()->Register(nn::MetaOf(model_, "mm"));
  }

  std::string From() const {
    return std::string(" FROM fact MODEL JOIN m USING MODEL 'mm' DEVICE 'cpu' ") +
           GetParam().predict;
  }

  /// The breaker shapes, over the whole table, a zone-pruned id range and
  /// an all-pruned (empty) range.
  std::vector<std::string> Queries() const {
    const std::string from = From();
    const std::string key = GetParam().dense ? "class" : "id / 1000";
    std::vector<std::string> queries;
    for (const std::string where :
         {"", " WHERE id >= 1500 AND id < 4100", " WHERE id < 0"}) {
      queries.push_back("SELECT " + key + " AS g, COUNT(*) AS n, AVG(prediction) AS a, " +
                        "SUM(prediction) AS s, MIN(prediction) AS lo, MAX(prediction) AS hi" +
                        from + where + " GROUP BY " + key);
      queries.push_back("SELECT id / 7 AS g, SUM(prediction) AS s" + from + where +
                        " GROUP BY id / 7");
      queries.push_back("SELECT COUNT(*) AS n, SUM(prediction) AS s, AVG(prediction) AS a" +
                        from + where);
      queries.push_back("SELECT id, prediction" + from + where + " ORDER BY prediction DESC");
      queries.push_back("SELECT id, prediction" + from + where + " LIMIT 300");
      queries.push_back("SELECT id, prediction" + from + where +
                        " ORDER BY prediction DESC LIMIT 25");
    }
    return queries;
  }

  storage::TablePtr fact_;
  nn::Model model_;
};

TEST_P(BreakerIdentityTest, OneAndFourWorkersBitIdenticalBareAndServed) {
  sql::QueryEngine one(EngineOptions(1));
  sql::QueryEngine four(EngineOptions(4));
  for (sql::QueryEngine* engine : {&one, &four}) {
    modeljoin::RegisterNativeModelJoin(engine);
    Deploy(engine);
  }
  server::QueryServer::Options server_options;
  server_options.worker_threads = 4;
  server::QueryServer srv(server_options);
  modeljoin::RegisterNativeModelJoin(srv.engine());
  Deploy(srv.engine());
  auto served_one = srv.CreateSession();
  auto served_four = srv.CreateSession();
  sql::QueryEngine::Options session_options = served_one->options();
  session_options.morsel_rows = 256;
  session_options.worker_threads = 1;
  served_one->set_options(session_options);
  session_options.worker_threads = 4;
  served_four->set_options(session_options);

  for (const std::string& query : Queries()) {
    SCOPED_TRACE(query);
    ASSERT_OK_AND_ASSIGN(std::string explain, four.Explain(query));
    EXPECT_NE(explain.find("[parallel, merge at "), std::string::npos) << explain;
    ASSERT_OK_AND_ASSIGN(auto reference, one.ExecuteQuery(query));
    ASSERT_OK_AND_ASSIGN(auto bare_four, four.ExecuteQuery(query));
    ExpectRowIdentical(bare_four, reference);
    ASSERT_OK_AND_ASSIGN(auto served_result_one, served_one->ExecuteQuery(query));
    ExpectRowIdentical(served_result_one, reference);
    ASSERT_OK_AND_ASSIGN(auto served_result_four, served_four->ExecuteQuery(query));
    ExpectRowIdentical(served_result_four, reference);
    if (query.find("id < 0") != std::string::npos) {
      // All morsels pruned: a global aggregate still yields its one row.
      EXPECT_EQ(reference.num_rows, query.find("GROUP BY") == std::string::npos &&
                                            query.find("SELECT COUNT") == 0
                                        ? 1
                                        : 0);
    }
  }
}

/// The merged results agree with the same statistics computed from the
/// plain (breaker-free) scan of the predictions: within 1e-4 for float
/// aggregates, exactly for counts and for the stable sort order.
TEST_P(BreakerIdentityTest, MergedResultsMatchPlainScan) {
  sql::QueryEngine engine(EngineOptions(4));
  modeljoin::RegisterNativeModelJoin(&engine);
  Deploy(&engine);
  const std::string from = From();
  ASSERT_OK_AND_ASSIGN(auto plain, engine.ExecuteQuery("SELECT id, prediction" + from));
  ASSERT_EQ(plain.num_rows, kRows);
  std::vector<std::pair<int64_t, float>> rows;
  for (int64_t r = 0; r < plain.num_rows; ++r) {
    rows.emplace_back(plain.GetValue(r, 0).i, plain.GetValue(r, 1).f);
  }

  // Global aggregate.
  double sum = 0;
  for (const auto& [id, p] : rows) sum += p;
  const std::string global_query = "SELECT COUNT(*) AS n, AVG(prediction) AS a" + from;
  ASSERT_OK_AND_ASSIGN(auto global, engine.ExecuteQuery(global_query));
  ASSERT_EQ(global.num_rows, 1);
  EXPECT_EQ(global.GetValue(0, 0).i, kRows);
  EXPECT_NEAR(global.GetValue(0, 1).f, sum / kRows, 1e-4);

  // GROUP BY a non-id expression.
  std::map<int64_t, std::pair<int64_t, double>> groups;
  for (const auto& [id, p] : rows) {
    groups[id / 1000].first += 1;
    groups[id / 1000].second += p;
  }
  const std::string grouped_query =
      "SELECT id / 1000 AS g, COUNT(*) AS n, SUM(prediction) AS s" + from + " GROUP BY id / 1000";
  ASSERT_OK_AND_ASSIGN(auto grouped, engine.ExecuteQuery(grouped_query));
  ASSERT_EQ(grouped.num_rows, static_cast<int64_t>(groups.size()));
  for (int64_t r = 0; r < grouped.num_rows; ++r) {
    const auto& want = groups.at(grouped.GetValue(r, 0).i);
    EXPECT_EQ(grouped.GetValue(r, 1).i, want.first);
    EXPECT_NEAR(grouped.GetValue(r, 2).f, want.second, 1e-4 * std::max(1.0, std::abs(want.second)));
  }

  // ORDER BY prediction DESC, then LIMIT: the stable order of the scan.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  const std::string sorted_query =
      "SELECT id, prediction" + from + " ORDER BY prediction DESC LIMIT 40";
  ASSERT_OK_AND_ASSIGN(auto sorted, engine.ExecuteQuery(sorted_query));
  ASSERT_EQ(sorted.num_rows, 40);
  for (int64_t r = 0; r < sorted.num_rows; ++r) {
    EXPECT_EQ(sorted.GetValue(r, 0).i, rows[static_cast<size_t>(r)].first) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelJoin, BreakerIdentityTest,
    ::testing::Values(
        BreakerFamily{"dense",
                      "PREDICT (sepal_length, sepal_width, petal_length, petal_width)", true},
        BreakerFamily{"lstm", "PREDICT (x0, x1, x2)", false}),
    [](const ::testing::TestParamInfo<BreakerFamily>& info) { return info.param.name; });

/// A LIMIT without a sort below it stops handing out morsels once the
/// morsels in index order hold its rows; the stop is neither an error nor a
/// cancellation.
TEST(LimitEarlyStopTest, StopsClaimingMorselsOnceSatisfied) {
  sql::QueryEngine::Options options;
  options.worker_threads = 2;
  options.morsel_rows = 64;
  sql::QueryEngine engine(options);
  ASSERT_OK(engine.catalog()->CreateTable(DeterminismFactTable(20000)));
  exec::QueryProfile profile;
  const std::string query = "SELECT f.id, f.a FROM fact f LIMIT 100";
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(query, &profile));
  ASSERT_EQ(result.num_rows, 100);
  for (int64_t r = 0; r < 100; ++r) EXPECT_EQ(result.GetValue(r, 0).i, r);
  // 20000 rows in 313 morsels of 64; the scan must have stopped far short.
  int64_t scanned = 0;
  for (int node = 0; node < profile.num_nodes(); ++node) {
    if (profile.node_label(node).rfind("Scan", 0) == 0) {
      scanned += profile.Aggregate(node).rows;
    }
  }
  EXPECT_GT(scanned, 0);
  EXPECT_LT(scanned, 2000) << profile.ToString();
}

}  // namespace
}  // namespace indbml
