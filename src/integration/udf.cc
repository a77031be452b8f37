#include "integration/udf.h"

#include <memory>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exec/gather.h"
#include "exec/profile.h"
#include "mlruntime/trt_c_api.h"

namespace indbml::integration {

UdfOperator::UdfOperator(exec::OperatorPtr child, VectorizedUdf udf,
                         std::vector<int> arg_columns,
                         std::vector<std::string> output_names,
                         std::vector<exec::DataType> output_types)
    : child_(std::move(child)),
      udf_(std::move(udf)),
      arg_columns_(std::move(arg_columns)),
      num_outputs_(output_names.size()) {
  types_ = child_->output_types();
  names_ = child_->output_names();
  for (size_t i = 0; i < output_names.size(); ++i) {
    types_.push_back(output_types[i]);
    names_.push_back(output_names[i]);
  }
}

Status UdfOperator::Next(exec::ExecContext* ctx, exec::DataChunk* out, bool* eof) {
  exec::DataChunk in;
  in.Reset(child_->output_types());
  INDBML_RETURN_NOT_OK(child_->Next(ctx, &in, eof));
  if (in.size == 0) return Status::OK();

  std::vector<exec::Vector> outputs;
  {
    trace::Span span("udf.call");
    Stopwatch udf_watch;
    INDBML_RETURN_NOT_OK(udf_(in, arg_columns_, &outputs));
    int64_t nanos = udf_watch.ElapsedNanos();
    static metrics::Counter* calls_metric =
        metrics::Registry::Global().counter("udf.calls");
    static metrics::Histogram* call_metric =
        metrics::Registry::Global().histogram("udf.call_micros");
    calls_metric->Increment();
    call_metric->Record(nanos / 1000);
    if (ctx->active_stats != nullptr) ctx->active_stats->AddPhase("udf", nanos);
  }
  if (outputs.size() != num_outputs_) {
    return Status::ExecutionError("UDF produced the wrong number of columns");
  }
  const int64_t child_width = in.num_columns();
  for (int64_t c = 0; c < child_width; ++c) {
    out->column(c) = std::move(in.column(c));
  }
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].size() != in.size) {
      return Status::ExecutionError("UDF output cardinality mismatch");
    }
    out->column(child_width + static_cast<int64_t>(i)) = std::move(outputs[i]);
  }
  out->size = in.size;
  return Status::OK();
}

namespace {

/// A CPython-style boxed value. Lists own their elements; every number the
/// UDF touches becomes one heap allocation, like PyObject boxing.
struct PyValue {
  enum class Tag { kFloat, kList };
  Tag tag = Tag::kFloat;
  double f = 0;
  std::vector<std::unique_ptr<PyValue>> list;

  static std::unique_ptr<PyValue> Float(double v) {
    auto out = std::make_unique<PyValue>();
    out->tag = Tag::kFloat;
    out->f = v;
    return out;
  }
  static std::unique_ptr<PyValue> List() {
    auto out = std::make_unique<PyValue>();
    out->tag = Tag::kList;
    return out;
  }
};

/// The interpreter's global lock: concurrent UDF calls from parallel
/// workers serialise here, as they would on the CPython GIL.
Mutex& GlobalInterpreterLock() {
  static Mutex* gil = new Mutex();
  return *gil;
}

/// Per-UDF interpreter state (the loaded model, created on first call like
/// a module-level `model = load_model(path)`).
struct InterpreterState {
  std::shared_ptr<const std::vector<uint8_t>> model_bytes;
  trt_session* session = nullptr;
  std::shared_ptr<InterpreterStats> stats;

  ~InterpreterState() {
    if (session != nullptr) trt_session_destroy(session);
  }
};

}  // namespace

Result<VectorizedUdf> MakeInterpretedInferenceUdf(
    std::shared_ptr<const std::vector<uint8_t>> model_bytes, int64_t input_width,
    int64_t output_dim, std::shared_ptr<InterpreterStats> stats) {
  if (model_bytes == nullptr || model_bytes->empty()) {
    return Status::InvalidArgument("empty model");
  }
  auto state = std::make_shared<InterpreterState>();
  state->model_bytes = std::move(model_bytes);
  state->stats = std::move(stats);

  VectorizedUdf udf = [state, input_width, output_dim](
                          const exec::DataChunk& input,
                          const std::vector<int>& arg_columns,
                          std::vector<exec::Vector>* outputs) -> Status {
    if (static_cast<int64_t>(arg_columns.size()) != input_width) {
      return Status::InvalidArgument("UDF argument count mismatch");
    }
    // Enter the interpreter.
    MutexLock gil(GlobalInterpreterLock());
    if (state->stats) {
      ++state->stats->calls;
      ++state->stats->gil_acquisitions;
      state->stats->modeled_overhead_seconds += kInterpreterCallOverheadSeconds;
    }
    if (state->session == nullptr) {
      // load_model(...) on first call.
      if (trt_session_create_from_buffer(state->model_bytes->data(),
                                         state->model_bytes->size(), "cpu",
                                         &state->session) != TRT_OK) {
        return Status::ExecutionError(std::string("UDF model load failed: ") +
                                      trt_last_error());
      }
    }

    static metrics::Counter* boxed_metric =
        metrics::Registry::Global().counter("udf.values_boxed");
    static metrics::Histogram* marshal_metric =
        metrics::Registry::Global().histogram("udf.marshal_micros");
    static metrics::Histogram* run_metric =
        metrics::Registry::Global().histogram("udf.run_micros");
    Stopwatch phase_watch;

    const int64_t n = input.size;
    // Box every input value: rows = [[v00, v01, ...], ...]. The per-value
    // PyValue allocation is the interpreter tax this approach measures and
    // stays; the *reads* gather through the selection vector with hoisted
    // typed base pointers instead of boxing a Value per cell first.
    std::vector<exec::TypedDoubleReader> readers;
    readers.reserve(arg_columns.size());
    for (int col : arg_columns) {
      readers.emplace_back(input.column(col));
    }
    auto rows = PyValue::List();
    rows->list.reserve(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      auto row = PyValue::List();
      row->list.reserve(arg_columns.size());
      for (const exec::TypedDoubleReader& reader : readers) {
        row->list.push_back(PyValue::Float(reader.DoubleAt(r)));
      }
      rows->list.push_back(std::move(row));
    }
    if (state->stats) {
      int64_t boxed = n * static_cast<int64_t>(arg_columns.size());
      state->stats->values_boxed += boxed;
      state->stats->modeled_overhead_seconds +=
          static_cast<double>(boxed) * kInterpreterPerValueSeconds;
    }

    // np.asarray(rows, dtype=float32): unbox into a dense row-major buffer.
    std::vector<float> dense(static_cast<size_t>(n * input_width));
    for (int64_t r = 0; r < n; ++r) {
      const PyValue& row = *rows->list[static_cast<size_t>(r)];
      for (int64_t c = 0; c < input_width; ++c) {
        dense[static_cast<size_t>(r * input_width + c)] =
            static_cast<float>(row.list[static_cast<size_t>(c)]->f);
      }
    }

    marshal_metric->Record(phase_watch.ElapsedNanos() / 1000);
    boxed_metric->Increment(n * input_width);

    // model.predict(...) — the runtime itself is native (like TF), CPU only
    // inside a UDF.
    std::vector<float> predictions(static_cast<size_t>(n * output_dim));
    phase_watch.Restart();
    // Inference runs while holding the GIL on purpose: serialised interpreter
    // execution is exactly the UDF tax the paper's Table-2 experiment
    // measures (a real CPython UDF cannot release the GIL around predict()).
    if (trt_session_run(state->session, dense.data(), n,  // NOLINT(indbml-lock-scope)
                        predictions.data()) != TRT_OK) {
      return Status::ExecutionError(std::string("UDF inference failed: ") +
                                    trt_last_error());
    }
    run_metric->Record(phase_watch.ElapsedNanos() / 1000);
    phase_watch.Restart();

    // Box the predictions (the UDF returns Python lists)...
    auto result_rows = PyValue::List();
    result_rows->list.reserve(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      auto row = PyValue::List();
      for (int64_t c = 0; c < output_dim; ++c) {
        row->list.push_back(
            PyValue::Float(predictions[static_cast<size_t>(r * output_dim + c)]));
      }
      result_rows->list.push_back(std::move(row));
    }
    if (state->stats) {
      state->stats->values_boxed += n * output_dim;
      state->stats->modeled_overhead_seconds +=
          static_cast<double>(n * output_dim) * kInterpreterPerValueSeconds;
    }

    // ... which the engine unboxes back into vectors.
    outputs->clear();
    for (int64_t c = 0; c < output_dim; ++c) {
      exec::Vector col(exec::DataType::kFloat);
      col.Resize(n);
      float* dst = col.floats();
      for (int64_t r = 0; r < n; ++r) {
        dst[r] = static_cast<float>(
            result_rows->list[static_cast<size_t>(r)]->list[static_cast<size_t>(c)]->f);
      }
      outputs->push_back(std::move(col));
    }
    marshal_metric->Record(phase_watch.ElapsedNanos() / 1000);
    boxed_metric->Increment(n * output_dim);
    return Status::OK();
  };
  return udf;
}

}  // namespace indbml::integration
