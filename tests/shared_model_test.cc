#include "inference/shared_model.h"

#include <gtest/gtest.h>

#include <thread>

#include "mltosql/mltosql.h"
#include "nn/model_meta.h"
#include "test_util.h"

namespace indbml {
namespace {

/// Direct tests of the parallel build phase (paper §5.2), including the
/// failure path where all participants must still pass the barrier.
class SharedModelTest : public ::testing::Test {
 protected:
  void Build(int64_t width, int64_t depth) {
    auto model_or = nn::MakeDenseBenchmarkModel(width, depth, 7);
    ASSERT_TRUE(model_or.ok());
    model_ = std::move(model_or).ValueOrDie();
    mltosql::MlToSql framework(&model_, "m");
    auto table_or = framework.BuildModelTable();
    ASSERT_TRUE(table_or.ok());
    table_ = std::move(table_or).ValueOrDie();
  }

  nn::Model model_;
  storage::TablePtr table_;
};

TEST_F(SharedModelTest, SinglePartitionBuildLoadsWeights) {
  Build(8, 2);
  auto cpu = device::MakeCpuDevice();
  inference::SharedModel shared(nn::MetaOf(model_, "m"), cpu.get(), 1, 1024);
  ASSERT_OK(shared.BuildPartition(*table_, 0));

  // First dense layer kernel (transposed [units x in]): spot-check against
  // the model weights.
  const nn::DenseLayer& dense = model_.layers()[0].dense;
  const float* w = shared.dense_kernel(0);
  for (int64_t in = 0; in < dense.input_dim; ++in) {
    for (int64_t out = 0; out < dense.units; ++out) {
      ASSERT_FLOAT_EQ(w[out * dense.input_dim + in], dense.kernel.At(in, out));
    }
  }
  // Bias matrix rows replicate the bias value across the vector size.
  const float* bias_mat = shared.dense_bias_matrix(0);
  for (int64_t u = 0; u < dense.units; ++u) {
    ASSERT_FLOAT_EQ(bias_mat[u * 1024], dense.bias[u]);
    ASSERT_FLOAT_EQ(bias_mat[u * 1024 + 1023], dense.bias[u]);
  }
  EXPECT_GT(shared.DeviceBytes(), 0);
}

TEST_F(SharedModelTest, ParallelBuildMatchesSerialBuild) {
  Build(16, 3);
  auto cpu = device::MakeCpuDevice();
  inference::SharedModel serial(nn::MetaOf(model_, "m"), cpu.get(), 1, 256);
  ASSERT_OK(serial.BuildPartition(*table_, 0));

  constexpr int kPartitions = 6;
  inference::SharedModel parallel(nn::MetaOf(model_, "m"), cpu.get(), kPartitions,
                                  256);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    threads.emplace_back([&, p] { statuses[static_cast<size_t>(p)] =
                                      parallel.BuildPartition(*table_, p); });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) ASSERT_OK(s);

  for (size_t li = 0; li < model_.layers().size(); ++li) {
    const nn::DenseLayer& dense = model_.layers()[li].dense;
    int64_t n = dense.units * dense.input_dim;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_FLOAT_EQ(parallel.dense_kernel(li)[i], serial.dense_kernel(li)[i])
          << "layer " << li << " element " << i;
    }
  }
}

TEST_F(SharedModelTest, BuildFailurePropagatesWithoutDeadlock) {
  Build(8, 1);
  // Corrupt the table: a node id far outside the layout.
  storage::Table bad("m", table_->fields());
  for (int64_t r = 0; r < table_->num_rows(); ++r) {
    std::vector<storage::Value> row;
    for (int c = 0; c < table_->num_columns(); ++c) {
      row.push_back(table_->column(c).GetValue(r));
    }
    if (r == 3) row[1] = storage::Value::Int64(10000);  // 'node' column
    ASSERT_OK(bad.AppendRow(row));
  }
  bad.Finalize();

  auto cpu = device::MakeCpuDevice();
  constexpr int kPartitions = 4;
  inference::SharedModel shared(nn::MetaOf(model_, "m"), cpu.get(), kPartitions, 64);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    threads.emplace_back(
        [&, p] { statuses[static_cast<size_t>(p)] = shared.BuildPartition(bad, p); });
  }
  for (auto& t : threads) t.join();
  // The corrupt row lives in one partition, but every participant must see
  // the failure (and none may hang on the barrier).
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  }
}

TEST_F(SharedModelTest, LstmWeightsLandInGateBuffers) {
  auto model_or = nn::MakeLstmBenchmarkModel(4, 3, 5);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());

  auto cpu = device::MakeCpuDevice();
  inference::SharedModel shared(nn::MetaOf(model, "m"), cpu.get(), 1, 128);
  ASSERT_OK(shared.BuildPartition(*table, 0));

  const nn::LstmLayer& lstm = model.layers()[0].lstm;
  for (int g = 0; g < nn::kNumGates; ++g) {
    // Kernel [units x 1].
    for (int64_t u = 0; u < lstm.units; ++u) {
      ASSERT_FLOAT_EQ(shared.lstm_kernel(0, g)[u], lstm.kernel[g].At(0, u));
    }
    // Recurrent [units x units], transposed.
    for (int64_t j = 0; j < lstm.units; ++j) {
      for (int64_t k = 0; k < lstm.units; ++k) {
        ASSERT_FLOAT_EQ(shared.lstm_recurrent(0, g)[k * lstm.units + j],
                        lstm.recurrent[g].At(j, k));
      }
    }
  }
}

}  // namespace
}  // namespace indbml
