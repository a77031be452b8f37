#ifndef INDBML_INFERENCE_RUNTIME_H_
#define INDBML_INFERENCE_RUNTIME_H_

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "inference/shared_model.h"

namespace indbml::inference {

/// \brief The shared forward-pass engine (ROADMAP item 2): one
/// implementation of dense/LSTM/GRU inference over a SharedModel, used
/// identically by the native ModelJoin operator, the C-API operator (via
/// mlruntime) and standalone mlruntime sessions. Operators hold no inference
/// math of their own — the raw-forward-pass analyzer pass enforces it.
///
/// The math is byte-for-byte the former ModelJoinOperator forward pass
/// (paper §5.4): per layer, bias-matrix copy + one GEMM on the transposed
/// weights + in-place activation, ping-ponging between two activation
/// buffers. Every device kernel involved is column-independent (one IEEE
/// operation per lane, no FMA), so running rows in one call or split across
/// calls produces bit-identical results — the property the batcher's
/// coalescing and the cache's memoization both rest on.
///
/// Thread safe: concurrent Run calls draw device scratch from a pooled
/// freelist, so the runtime is a process-wide singleton with no per-query
/// state.
class InferenceRuntime {
 public:
  /// The process-wide runtime.
  static InferenceRuntime& Global();

  InferenceRuntime();
  ~InferenceRuntime();

  InferenceRuntime(const InferenceRuntime&) = delete;
  InferenceRuntime& operator=(const InferenceRuntime&) = delete;

  /// Synchronous forward pass over a built model.
  ///
  /// `input` is host memory in feature-major layout [input_width x n]: row f
  /// holds feature f of all n tuples (the transposed layout of §5.3, which
  /// a columnar engine produces with one contiguous copy per column).
  /// `output` receives [output_dim x n] in the same layout. Internally the
  /// rows are run in blocks of the model's vector size, so `n` may exceed
  /// it freely. `n == 0` is a no-op.
  Status Run(const SharedModel& model, const float* input, int64_t n,
             float* output);

 private:
  /// Device buffers for one in-flight forward pass (the former operator
  /// scratch): input matrix, ping-pong activation buffers, recurrent gate
  /// and state buffers. Pooled per (device, extents) so concurrent queries
  /// reuse allocations instead of thrashing the device allocator.
  struct Scratch;

  std::unique_ptr<Scratch> AcquireScratch(const SharedModel& model)
      INDBML_EXCLUDES(mu_);
  void ReleaseScratch(std::unique_ptr<Scratch> scratch) INDBML_EXCLUDES(mu_);

  /// One block (≤ the scratch's block rows) on the device. `x` is the device input matrix
  /// [input_width x n]; `*result` points at the scratch buffer holding the
  /// final [output_dim x n] activations.
  Status Infer(const SharedModel& model, Scratch* s, const float* x, int64_t n,
               const float** result);
  void DenseForward(const SharedModel& model, Scratch* s, size_t li,
                    const float* x, int64_t in_dim, int64_t n, float* z);
  void LstmForward(const SharedModel& model, Scratch* s, size_t li,
                   const float* x, int64_t n, float* h_out);
  void GruForward(const SharedModel& model, Scratch* s, size_t li,
                  const float* x, int64_t n, float* h_out);

  Mutex mu_;
  /// Scratch freelist; entries are compatible with any model whose extents
  /// fit (checked in AcquireScratch).
  std::vector<std::unique_ptr<Scratch>> pool_ INDBML_GUARDED_BY(mu_);

  metrics::Counter* runs_metric_;  ///< inference.runs — GEMM launches
  metrics::Counter* rows_metric_;  ///< inference.rows — rows through the NN
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_RUNTIME_H_
