#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "benchlib/workloads.h"
#include "common/random.h"
#include "common/string_util.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using testutil::F;
using testutil::I;

/// Canonical multiset form of a result (row order independent).
std::multiset<std::string> Canonical(const exec::QueryResult& result) {
  std::multiset<std::string> rows;
  for (const exec::DataChunk& chunk : result.chunks) {
    for (int64_t r = 0; r < chunk.size; ++r) {
      std::string row;
      for (int64_t c = 0; c < chunk.num_columns(); ++c) {
        exec::Value v = chunk.column(c).GetValue(r);
        // Round floats so hash- vs order-based accumulation noise is
        // ignored.
        row += v.type == exec::DataType::kFloat
                   ? StrFormat("%.3f|", v.AsDouble())
                   : v.ToString() + "|";
      }
      rows.insert(row);
    }
  }
  return rows;
}

storage::TablePtr RandomFactTable(int64_t rows, uint64_t seed) {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"k", exec::DataType::kInt64},
                                          {"a", exec::DataType::kFloat},
                                          {"b", exec::DataType::kFloat}});
  Random rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Int64(
                                      static_cast<int64_t>(rng.NextUint64(5))),
                                  storage::Value::Float(rng.NextFloat(-10, 10)),
                                  storage::Value::Float(rng.NextFloat(-10, 10))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

/// Generates a random (valid) query over the fact/dim schema.
std::string RandomQuery(Random* rng) {
  static const char* kNumericCols[] = {"a", "b", "f.a + f.b", "f.a * 2.0"};
  static const char* kCompare[] = {"<", "<=", ">", ">=", "=", "<>"};

  std::string select;
  std::string where;
  std::string tail;
  bool grouped = rng->NextUint64(2) == 0;
  if (grouped) {
    bool by_id = rng->NextUint64(2) == 0;
    std::string key = by_id ? "f.id" : "f.k";
    select = StrFormat("SELECT %s AS g, SUM(%s) AS s, COUNT(*) AS c, MIN(f.b) AS m",
                       key.c_str(), kNumericCols[rng->NextUint64(4)]);
    tail = " GROUP BY " + key;
  } else {
    select = StrFormat("SELECT f.id, d.v, %s AS e",
                       kNumericCols[rng->NextUint64(4)]);
  }
  std::string from = " FROM fact f, dim d";
  where = StrFormat(" WHERE f.k = d.k AND f.a %s %.2f",
                    kCompare[rng->NextUint64(6)],
                    static_cast<double>(rng->NextFloat(-8, 8)));
  if (rng->NextUint64(2) == 0) {
    where += StrFormat(" AND f.b %s %.2f", kCompare[rng->NextUint64(6)],
                       static_cast<double>(rng->NextFloat(-8, 8)));
  }
  return select + from + where + tail;
}

/// Property: parallel execution with all optimizations produces the same
/// multiset of rows as serial execution with all optimizations disabled,
/// for randomly generated join/filter/aggregate queries.
TEST(ParallelSerialEquivalenceTest, RandomQueries) {
  auto fact = RandomFactTable(3000, 11);
  auto dim = testutil::MakeTable("dim",
                                 {{"k", exec::DataType::kInt64},
                                  {"v", exec::DataType::kInt64}},
                                 {{I(0), I(100)},
                                  {I(1), I(101)},
                                  {I(2), I(102)},
                                  {I(3), I(103)},
                                  {I(4), I(104)}});

  sql::QueryEngine::Options parallel_options;
  parallel_options.worker_threads = 4;
  sql::QueryEngine parallel_engine(parallel_options);
  ASSERT_OK(parallel_engine.catalog()->CreateTable(fact));
  ASSERT_OK(parallel_engine.catalog()->CreateTable(dim));

  sql::QueryEngine::Options naive_options;
  naive_options.worker_threads = 1;
  naive_options.optimizer.predicate_pushdown = false;
  naive_options.optimizer.join_conversion = false;
  naive_options.optimizer.projection_pruning = false;
  naive_options.optimizer.ordered_aggregation = false;
  sql::QueryEngine naive_engine(naive_options);
  ASSERT_OK(naive_engine.catalog()->CreateTable(fact));
  ASSERT_OK(naive_engine.catalog()->CreateTable(dim));

  Random rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE(query);
    ASSERT_OK_AND_ASSIGN(auto optimized, parallel_engine.ExecuteQuery(query));
    ASSERT_OK_AND_ASSIGN(auto naive, naive_engine.ExecuteQuery(query));
    EXPECT_EQ(optimized.num_rows, naive.num_rows);
    EXPECT_EQ(Canonical(optimized), Canonical(naive));
  }
}

/// Row-for-row, bit-for-bit equality (float columns compared by their bits).
void ExpectBitIdentical(const exec::QueryResult& got, const exec::QueryResult& want) {
  ASSERT_EQ(got.names, want.names);
  ASSERT_EQ(got.num_rows, want.num_rows);
  for (int64_t r = 0; r < want.num_rows; ++r) {
    for (size_t c = 0; c < want.types.size(); ++c) {
      exec::Value a = got.GetValue(r, static_cast<int64_t>(c));
      exec::Value b = want.GetValue(r, static_cast<int64_t>(c));
      ASSERT_EQ(a.type, b.type);
      const bool same = a.type == exec::DataType::kFloat
                            ? std::memcmp(&a.f, &b.f, sizeof(float)) == 0
                            : a.ToString() == b.ToString();
      ASSERT_TRUE(same) << "row " << r << " col " << c << ": " << a.ToString()
                        << " vs " << b.ToString();
    }
  }
}

/// A random query whose plan is cut at a pipeline breaker: GROUP BY a
/// non-id key or expression, a global aggregate, ORDER BY (with the id as
/// the last key, so the order is total) with or without LIMIT, or a bare
/// LIMIT. `from_where` is the FROM/WHERE part, `value` a numeric
/// expression over it, `id` its unique id column (output as "id"). Sets
/// `*ordered` when the row set does not depend on the plan's row order (no
/// bare LIMIT).
std::string RandomBreakerQuery(Random* rng, const std::string& from_where,
                               const std::string& value, const std::string& id,
                               const std::string& key, bool* ordered) {
  *ordered = true;
  switch (rng->NextUint64(6)) {
    case 0:
      return StrFormat("SELECT %s AS g, SUM(%s) AS s, COUNT(*) AS c, MIN(%s) AS lo, "
                       "AVG(%s) AS a%s GROUP BY %s",
                       key.c_str(), value.c_str(), value.c_str(), value.c_str(),
                       from_where.c_str(), key.c_str());
    case 1:
      return StrFormat("SELECT %s / 37 AS g, SUM(%s) AS s, MAX(%s) AS hi%s GROUP BY %s / 37",
                       id.c_str(), value.c_str(), value.c_str(), from_where.c_str(),
                       id.c_str());
    case 2:
      return StrFormat("SELECT COUNT(*) AS c, SUM(%s) AS s, AVG(%s) AS a%s", value.c_str(),
                       value.c_str(), from_where.c_str());
    case 3:
      return StrFormat("SELECT %s, %s AS e%s ORDER BY e DESC, id", id.c_str(), value.c_str(),
                       from_where.c_str());
    case 4:
      return StrFormat("SELECT %s, %s AS e%s ORDER BY e, id LIMIT %llu", id.c_str(),
                       value.c_str(), from_where.c_str(),
                       static_cast<unsigned long long>(1 + rng->NextUint64(200)));
    default:
      *ordered = false;
      return StrFormat("SELECT %s, %s AS e%s LIMIT %llu", id.c_str(), value.c_str(),
                       from_where.c_str(),
                       static_cast<unsigned long long>(rng->NextUint64(400)));
  }
}

/// Property: plans cut at a breaker give bit-identical rows at 1 and 4
/// workers (the merge runs in morsel order), and the same row multiset as
/// serial execution with every optimization off.
TEST(ParallelSerialEquivalenceTest, RandomBreakerQueries) {
  auto fact = RandomFactTable(3000, 12);
  auto dim = testutil::MakeTable("dim",
                                 {{"k", exec::DataType::kInt64},
                                  {"v", exec::DataType::kInt64}},
                                 {{I(0), I(100)},
                                  {I(1), I(101)},
                                  {I(2), I(102)},
                                  {I(3), I(103)},
                                  {I(4), I(104)}});
  auto make_engine = [&](int workers, bool naive) {
    sql::QueryEngine::Options options;
    options.worker_threads = workers;
    options.morsel_rows = 128;
    if (naive) {
      options.optimizer.predicate_pushdown = false;
      options.optimizer.join_conversion = false;
      options.optimizer.projection_pruning = false;
      options.optimizer.ordered_aggregation = false;
    }
    auto engine = std::make_unique<sql::QueryEngine>(options);
    INDBML_CHECK(engine->catalog()->CreateTable(fact).ok());
    INDBML_CHECK(engine->catalog()->CreateTable(dim).ok());
    return engine;
  };
  auto one = make_engine(1, false);
  auto four = make_engine(4, false);
  auto naive = make_engine(1, true);

  static const char* kValues[] = {"f.a", "f.b", "f.a + f.b", "f.a * 2.0"};
  Random rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::string from_where =
        StrFormat(" FROM fact f, dim d WHERE f.k = d.k AND f.a > %.2f",
                  static_cast<double>(rng.NextFloat(-10, 6)));
    if (rng.NextUint64(3) == 0) {
      from_where += StrFormat(" AND f.id >= %llu AND f.id < %llu",
                              static_cast<unsigned long long>(rng.NextUint64(1500)),
                              static_cast<unsigned long long>(1500 + rng.NextUint64(1500)));
    }
    bool ordered = true;
    const std::string query = RandomBreakerQuery(&rng, from_where,
                                                  kValues[rng.NextUint64(4)], "f.id",
                                                  "f.k", &ordered);
    SCOPED_TRACE(query);
    ASSERT_OK_AND_ASSIGN(auto plan, four->PlanQuery(query));
    EXPECT_NE(sql::Optimizer().Analyze(*plan).cut, nullptr);
    ASSERT_OK_AND_ASSIGN(auto serial, one->ExecuteQuery(query));
    ASSERT_OK_AND_ASSIGN(auto parallel, four->ExecuteQuery(query));
    ExpectBitIdentical(parallel, serial);
    ASSERT_OK_AND_ASSIGN(auto reference, naive->ExecuteQuery(query));
    EXPECT_EQ(parallel.num_rows, reference.num_rows);
    if (ordered) {
      EXPECT_EQ(Canonical(parallel), Canonical(reference));
    }
  }
}

/// Property: breaker queries over MODEL JOIN (dense and LSTM) stay
/// bit-identical at 1 and 4 workers with the inference batcher and result
/// cache on.
TEST(ParallelSerialEquivalenceTest, RandomBreakerQueriesOverModelJoin) {
  for (const bool dense : {true, false}) {
    auto fact = dense ? benchlib::MakeIrisTable("fact", 3000)
                      : benchlib::MakeSinusTable("fact", 3000, 3);
    ASSERT_OK_AND_ASSIGN(nn::Model model, dense ? nn::MakeDenseBenchmarkModel(16, 2, 5)
                                                : nn::MakeLstmBenchmarkModel(8, 3, 6));
    auto make_engine = [&](int workers) {
      sql::QueryEngine::Options options;
      options.worker_threads = workers;
      options.morsel_rows = 200;
      options.inference.batch_window_us = 200;
      options.inference.result_cache = true;
      auto engine = std::make_unique<sql::QueryEngine>(options);
      modeljoin::RegisterNativeModelJoin(engine.get());
      INDBML_CHECK(engine->catalog()->CreateTable(fact).ok());
      mltosql::MlToSql framework(&model, "m");
      INDBML_CHECK(framework.Deploy(engine.get()).ok());
      engine->models()->Register(nn::MetaOf(model, "mm"));
      return engine;
    };
    auto one = make_engine(1);
    auto four = make_engine(4);
    const std::string predict =
        dense ? "PREDICT (sepal_length, sepal_width, petal_length, petal_width)"
              : "PREDICT (x0, x1, x2)";
    Random rng(dense ? 31 : 32);
    for (int trial = 0; trial < 12; ++trial) {
      std::string from_where =
          " FROM fact MODEL JOIN m USING MODEL 'mm' DEVICE 'cpu' " + predict;
      if (rng.NextUint64(2) == 0) {
        from_where += StrFormat(" WHERE id >= %llu AND prediction > -100.0",
                                static_cast<unsigned long long>(rng.NextUint64(3000)));
      }
      bool ordered = true;
      const std::string query = RandomBreakerQuery(&rng, from_where, "prediction", "id",
                                                    dense ? "class" : "id / 500", &ordered);
      SCOPED_TRACE(query);
      ASSERT_OK_AND_ASSIGN(auto serial, one->ExecuteQuery(query));
      ASSERT_OK_AND_ASSIGN(auto parallel, four->ExecuteQuery(query));
      ExpectBitIdentical(parallel, serial);
    }
  }
}

/// Property: ML-To-SQL matches the in-memory reference for arbitrary dense
/// architectures, including degenerate ones.
struct ArchCase {
  int64_t features;
  std::vector<int64_t> layer_widths;
};

class ArchitectureSweepTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchitectureSweepTest, MlToSqlMatchesReference) {
  const ArchCase& arch = GetParam();
  sql::QueryEngine engine;

  // Fact table with the right number of float input columns.
  std::vector<storage::Field> fields{{"id", exec::DataType::kInt64}};
  for (int64_t f = 0; f < arch.features; ++f) {
    fields.push_back({StrFormat("x%lld", static_cast<long long>(f)),
                      exec::DataType::kFloat});
  }
  auto fact = std::make_shared<storage::Table>("fact", fields);
  Random rng(arch.features * 131 + arch.layer_widths.size());
  const int64_t kRows = 257;  // deliberately not a multiple of the vector size
  for (int64_t r = 0; r < kRows; ++r) {
    std::vector<storage::Value> row{storage::Value::Int64(r)};
    for (int64_t f = 0; f < arch.features; ++f) {
      row.push_back(storage::Value::Float(rng.NextFloat(-2, 2)));
    }
    INDBML_CHECK(fact->AppendRow(row).ok());
  }
  fact->Finalize();
  fact->SetUniqueIdColumn("id");
  fact->SetSortedBy({"id"});
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  nn::ModelBuilder builder(arch.features);
  nn::Activation acts[] = {nn::Activation::kRelu, nn::Activation::kTanh,
                           nn::Activation::kSigmoid, nn::Activation::kLinear};
  for (size_t i = 0; i < arch.layer_widths.size(); ++i) {
    builder.AddDense(arch.layer_widths[i], acts[i % 4]);
  }
  ASSERT_OK_AND_ASSIGN(nn::Model model, builder.Build(99));

  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  mltosql::FactTableInfo info;
  info.table = "fact";
  for (int64_t f = 0; f < arch.features; ++f) {
    info.input_columns.push_back(StrFormat("x%lld", static_cast<long long>(f)));
  }
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, kRows);

  nn::Tensor x = nn::Tensor::Matrix(kRows, arch.features);
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t f = 0; f < arch.features; ++f) {
      x.At(r, f) = fact->column(static_cast<int>(f + 1)).GetFloat(r);
    }
  }
  ASSERT_OK_AND_ASSIGN(auto expected, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  const int64_t out_dim = model.output_dim();
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    for (int64_t o = 0; o < out_dim; ++o) {
      std::string col_name =
          out_dim == 1 ? "prediction"
                       : StrFormat("prediction_%lld", static_cast<long long>(o));
      ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex(col_name));
      ASSERT_NEAR(result.GetValue(r, pred_col).f, expected.At(id, o), 2e-4)
          << "id " << id << " output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ArchitectureSweepTest,
    ::testing::Values(ArchCase{1, {1}},                  // minimal
                      ArchCase{1, {7, 1}},               // single input column
                      ArchCase{5, {3, 3, 3, 3, 3, 1}},   // deep and thin
                      ArchCase{2, {40, 1}},              // wide hidden
                      ArchCase{3, {4, 5}},               // multi-output
                      ArchCase{6, {2, 9, 2}}),           // bottleneck
    [](const ::testing::TestParamInfo<ArchCase>& info) {
      // Appended piecewise: GCC 12 -Wrestrict false-positives on inlined
      // string operator+ chains at -O2, fatal under -Werror.
      std::string name = "f";
      name += std::to_string(info.param.features);
      for (int64_t w : info.param.layer_widths) {
        name += "_";
        name += std::to_string(w);
      }
      return name;
    });

}  // namespace
}  // namespace indbml
