#ifndef INDBML_INFERENCE_SHARED_MODEL_H_
#define INDBML_INFERENCE_SHARED_MODEL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "device/device.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "storage/table.h"

namespace indbml::inference {

/// \brief The shared model of the native ModelJoin (paper §5.2), now owned
/// by the inference layer so every approach runs the same forward pass.
///
/// One instance exists per query (or one per (model, device) pair under the
/// serving registry). Its build is barrier-free: every thread that calls
/// Build claims row ranges of the model table from a shared atomic cursor
/// and parses them into disjoint parts of the shared weight matrices, so a
/// thread that finishes its rows early steals more instead of idling. The
/// thread that finishes the last range uploads the model; every caller
/// then returns with the finished weights. No caller waits for a thread
/// that has not called Build yet, so lazily opened executor instances
/// (exec/executor.h) can join the build in any number and at any time.
/// Weights are stored *transposed* ([units x input] row-major) and biases
/// replicated into [units x vectorsize] matrices (§5.4) so the per-chunk
/// inference is plain GEMM + one large addition.
///
/// On a GPU device the build writes host staging buffers; once every range
/// is parsed, one thread uploads the finished model to device memory (the
/// §5.2 optimisation avoiding fine-grained transfers).
class SharedModel {
 public:
  SharedModel(nn::ModelMeta meta, device::Device* device, int vector_size);
  ~SharedModel();

  SharedModel(const SharedModel&) = delete;
  SharedModel& operator=(const SharedModel&) = delete;

  /// Joins the build from `model_table` (unique-node-id relational
  /// representation, 14 columns): claims row ranges from the shared build
  /// cursor until it is dry, then waits until every claimed range has been
  /// parsed and the model uploaded and validated. Returns OK, or the
  /// build's first error as kExecutionError. Any number of threads may call
  /// it, concurrently or one after another, all with the same table; a call
  /// after the build finished returns at once. After an OK return the
  /// model is built() and ModelJoinOperator::Open skips its build phase.
  Status Build(const storage::Table& model_table) INDBML_EXCLUDES(build_mu_);

  /// Builds directly from in-memory nn::Model weights (the mlruntime path:
  /// no relational model table involved) on the calling thread. Transposes
  /// the row-major kernels into the [units x input] layout and replicates
  /// biases, then uploads; marks the model built. Not combinable with
  /// Build.
  Status BuildFromModel(const nn::Model& model);

  /// True once the weights (and device upload) are complete and immutable.
  /// Release/acquire-paired with the end of the build, so an operator
  /// observing true also observes the finished weights.
  bool built() const { return built_.load(std::memory_order_acquire); }

  const nn::ModelMeta& meta() const { return meta_; }
  device::Device* device() const { return device_; }
  int vector_size() const { return vector_size_; }

  /// Process-unique id of this built-model instance. Rebuilding a model
  /// (redeploy) produces a new SharedModel and therefore a new id — the
  /// InferenceCache and InferenceBatcher key on it, so stale cached results
  /// can never be served for a replaced model and requests against
  /// different versions are never coalesced into one batch.
  int64_t model_id() const { return model_id_; }

  /// Device pointers, valid after Build returned OK.
  /// Dense layer li: kernel() is [units x input_dim] (transposed).
  const float* dense_kernel(size_t li) const { return layers_[li].w[0]; }
  const float* dense_bias_matrix(size_t li) const { return layers_[li].bias_mat[0]; }
  /// Recurrent-layer gate weights (LSTM g in [0,4), GRU g in [0,3)):
  /// kernel [units x input_dim], recurrent [units x units], bias matrix
  /// [units x vectorsize].
  const float* lstm_kernel(size_t li, int g) const { return layers_[li].w[g]; }
  const float* lstm_recurrent(size_t li, int g) const { return layers_[li].u[g]; }
  const float* lstm_bias_matrix(size_t li, int g) const {
    return layers_[li].bias_mat[g];
  }

  /// Bytes of device memory held by the model (Table 3 accounting).
  int64_t DeviceBytes() const { return device_bytes_; }

 private:
  struct LayerBuffers {
    // Device buffers; on CPU w/u point into the host staging vectors.
    float* w[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    float* u[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    float* bias_mat[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    int64_t w_size = 0;
    int64_t u_size = 0;
    int64_t bias_size = 0;
  };

  /// Host staging buffers the build phase writes into (owned storage;
  /// uploaded to the device buffers once every range is parsed).
  struct HostBuffers {
    std::vector<float> w[nn::kNumGates];
    std::vector<float> u[nn::kNumGates];
    std::vector<float> bias[nn::kNumGates];
  };

  /// Shape-invariant check run at build-phase exit under INDBML_VALIDATE=1.
  friend Status ValidateSharedModelShape(const SharedModel& model);

  /// Locates the layer owning node id `node`; kept in `first_node_` order.
  Status LocateLayer(int64_t node, size_t* layer_index) const;

  Status ParsePartition(const storage::Table& model_table,
                        storage::PartitionRange range);
  void UploadToDevice();
  /// Run by the thread that finished the last build range: uploads and
  /// validates unless a range failed, then publishes the outcome.
  void FinishBuild() INDBML_EXCLUDES(build_mu_);

  nn::ModelMeta meta_;
  device::Device* device_;
  int vector_size_;
  int64_t model_id_;

  std::vector<int64_t> first_node_;  ///< unique-id layout per layer
  int64_t input_nodes_ = 0;          ///< ids reserved for input nodes

  std::vector<HostBuffers> host_;     ///< staging (owned host storage)
  std::vector<LayerBuffers> layers_;  ///< device buffers (== host on CPU)
  int64_t device_bytes_ = 0;

  /// Next unclaimed range index of the work-stealing build phase.
  /// lock-free: fetch_add hands each range to exactly one caller; the parsed
  /// weights become visible to the other callers through build_mu_, not
  /// through this cursor.
  std::atomic<int64_t> build_cursor_{0};
  /// lock-free: set (release) once after upload + validation; read
  /// (acquire) by every operator Open deciding whether to build.
  std::atomic<bool> built_{false};
  Mutex build_mu_;
  CondVar build_cv_;
  /// Build ranges parsed (or skipped after a failure) so far.
  int64_t ranges_done_ INDBML_GUARDED_BY(build_mu_) = 0;
  /// First failure while parsing or validating; later ones are dropped.
  Status first_error_ INDBML_GUARDED_BY(build_mu_);
  /// The outcome every Build call returns once build_done_ is set.
  bool build_done_ INDBML_GUARDED_BY(build_mu_) = false;
  Status build_status_ INDBML_GUARDED_BY(build_mu_);
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_SHARED_MODEL_H_
