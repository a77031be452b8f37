#include "inference/shared_model.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/mutex.h"
#include "mltosql/mltosql.h"
#include "nn/model_meta.h"
#include "test_util.h"

namespace indbml {
namespace {

/// Direct tests of the barrier-free parallel build phase (paper §5.2):
/// concurrent and late callers, and the failure path where every caller
/// must see the error without hanging.
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

  /// A copy of table_ whose row 3 names a node id far outside the layout.
  Result<storage::TablePtr> CorruptTable() const {
    auto bad = std::make_shared<storage::Table>("m", table_->fields());
    for (int64_t r = 0; r < table_->num_rows(); ++r) {
      std::vector<storage::Value> row;
      for (int c = 0; c < table_->num_columns(); ++c) {
        row.push_back(table_->column(c).GetValue(r));
      }
      if (r == 3) row[1] = storage::Value::Int64(10000);  // 'node' column
      INDBML_RETURN_NOT_OK(bad->AppendRow(row));
    }
    bad->Finalize();
    return bad;
  }

  nn::Model model_;
  storage::TablePtr table_;
};

/// CPU device whose first CopyToDevice — the upload at the end of a build —
/// blocks until Open() is called, so a test can act while the upload is
/// pending.
class GatedDevice final : public device::Device {
 public:
  const char* name() const override { return "gated"; }
  bool is_gpu() const override { return false; }
  float* Allocate(int64_t count) override { return cpu_->Allocate(count); }
  void Free(float* ptr, int64_t count) override { cpu_->Free(ptr, count); }
  void CopyToDevice(float* dst, const float* src, int64_t count) override {
    {
      MutexLock lock(mu_);
      uploading_ = true;
      cv_.NotifyAll();
      while (!open_) cv_.Wait(mu_);
    }
    cpu_->CopyToDevice(dst, src, count);
  }
  void CopyToHost(float* dst, const float* src, int64_t count) override {
    cpu_->CopyToHost(dst, src, count);
  }
  void CopyOnDevice(float* dst, const float* src, int64_t count) override {
    cpu_->CopyOnDevice(dst, src, count);
  }
  void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) override {
    cpu_->Gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
  void EwMul(int64_t n, const float* x, const float* y, float* z) override {
    cpu_->EwMul(n, x, y, z);
  }
  void EwAdd(int64_t n, const float* x, const float* y, float* z) override {
    cpu_->EwAdd(n, x, y, z);
  }
  void BiasRowAdd(int64_t rows, int64_t cols, const float* bias,
                  float* matrix) override {
    cpu_->BiasRowAdd(rows, cols, bias, matrix);
  }
  void Activate(nn::Activation activation, int64_t n, float* x) override {
    cpu_->Activate(activation, n, x);
  }
  void GruCombine(int64_t n, const float* z, const float* h_prev,
                  const float* h_cand, float* h_out) override {
    cpu_->GruCombine(n, z, h_prev, h_cand, h_out);
  }
  device::DeviceStats stats() const override { return cpu_->stats(); }
  void ResetStats() override { cpu_->ResetStats(); }

  void WaitUntilUploading() {
    MutexLock lock(mu_);
    while (!uploading_) cv_.Wait(mu_);
  }
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }

 private:
  std::unique_ptr<device::Device> cpu_ = device::MakeCpuDevice();
  Mutex mu_;
  CondVar cv_;
  bool uploading_ INDBML_GUARDED_BY(mu_) = false;
  bool open_ INDBML_GUARDED_BY(mu_) = false;
};

/// Exact comparison of every dense layer's kernel and bias matrix.
void ExpectSameDenseWeights(const nn::Model& model, const inference::SharedModel& a,
                            const inference::SharedModel& b) {
  for (size_t li = 0; li < model.layers().size(); ++li) {
    const nn::DenseLayer& dense = model.layers()[li].dense;
    const size_t kernel = static_cast<size_t>(dense.units * dense.input_dim);
    const size_t bias = static_cast<size_t>(dense.units * a.vector_size());
    EXPECT_EQ(std::memcmp(a.dense_kernel(li), b.dense_kernel(li),
                          kernel * sizeof(float)),
              0)
        << "layer " << li;
    EXPECT_EQ(std::memcmp(a.dense_bias_matrix(li), b.dense_bias_matrix(li),
                          bias * sizeof(float)),
              0)
        << "layer " << li;
  }
}

TEST_F(SharedModelTest, SinglePartitionBuildLoadsWeights) {
  Build(8, 2);
  auto cpu = device::MakeCpuDevice();
  inference::SharedModel shared(nn::MetaOf(model_, "m"), cpu.get(), 1024);
  ASSERT_OK(shared.Build(*table_));

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
  inference::SharedModel serial(nn::MetaOf(model_, "m"), cpu.get(), 256);
  ASSERT_OK(serial.Build(*table_));

  constexpr int kCallers = 6;
  inference::SharedModel parallel(nn::MetaOf(model_, "m"), cpu.get(), 256);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kCallers);
  for (int p = 0; p < kCallers; ++p) {
    threads.emplace_back(
        [&, p] { statuses[static_cast<size_t>(p)] = parallel.Build(*table_); });
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
  ASSERT_OK_AND_ASSIGN(storage::TablePtr bad_table, CorruptTable());
  const storage::Table& bad = *bad_table;

  auto cpu = device::MakeCpuDevice();
  constexpr int kCallers = 4;
  inference::SharedModel shared(nn::MetaOf(model_, "m"), cpu.get(), 64);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kCallers);
  for (int p = 0; p < kCallers; ++p) {
    threads.emplace_back(
        [&, p] { statuses[static_cast<size_t>(p)] = shared.Build(bad); });
  }
  for (auto& t : threads) t.join();
  // The corrupt row lives in one range, but every participant must see the
  // failure (and none may hang waiting for the build).
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  }
}

// A caller may join the build at any time. One that arrives while the
// cursor is dry but the upload is still pending waits for the upload; one
// that arrives after everyone returned gets OK at once. Nobody waits for a
// caller that has not arrived.
TEST_F(SharedModelTest, LateCallersWaitForPendingUploadOrReturnAtOnce) {
  Build(16, 3);
  auto cpu = device::MakeCpuDevice();
  inference::SharedModel reference(nn::MetaOf(model_, "m"), cpu.get(), 64);
  ASSERT_OK(reference.Build(*table_));

  GatedDevice gated;
  inference::SharedModel shared(nn::MetaOf(model_, "m"), &gated, 64);
  Status first_status;
  std::thread first([&] { first_status = shared.Build(*table_); });
  // The first caller claimed every range and is now uploading.
  gated.WaitUntilUploading();
  EXPECT_FALSE(shared.built());

  std::atomic<bool> second_returned{false};
  Status second_status;
  std::thread second([&] {
    second_status = shared.Build(*table_);
    second_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_returned.load()) << "returned before the upload finished";

  gated.Open();
  first.join();
  second.join();
  ASSERT_OK(first_status);
  ASSERT_OK(second_status);
  EXPECT_TRUE(shared.built());

  // After everyone returned: an immediate OK on the calling thread.
  ASSERT_OK(shared.Build(*table_));
  ExpectSameDenseWeights(model_, shared, reference);
}

// A failed build reports kExecutionError to every caller — concurrent ones
// and one that arrives after the failure was published — and none hangs.
TEST_F(SharedModelTest, CallersAfterAFailedBuildSeeTheError) {
  Build(8, 1);
  ASSERT_OK_AND_ASSIGN(storage::TablePtr bad, CorruptTable());
  auto cpu = device::MakeCpuDevice();
  inference::SharedModel shared(nn::MetaOf(model_, "m"), cpu.get(), 64);

  Status first = shared.Build(*bad);
  ASSERT_EQ(first.code(), StatusCode::kExecutionError) << first.ToString();

  constexpr int kLate = 3;
  std::vector<Status> statuses(kLate);
  std::vector<std::thread> threads;
  for (int p = 0; p < kLate; ++p) {
    threads.emplace_back(
        [&, p] { statuses[static_cast<size_t>(p)] = shared.Build(*bad); });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), StatusCode::kExecutionError);
    EXPECT_EQ(s.ToString(), first.ToString());
  }
  EXPECT_FALSE(shared.built());
}

TEST_F(SharedModelTest, LstmWeightsLandInGateBuffers) {
  auto model_or = nn::MakeLstmBenchmarkModel(4, 3, 5);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());

  auto cpu = device::MakeCpuDevice();
  inference::SharedModel shared(nn::MetaOf(model, "m"), cpu.get(), 128);
  ASSERT_OK(shared.Build(*table));

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
