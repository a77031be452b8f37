#include "exec/merge.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace indbml::exec {

namespace {

/// Lexicographic order of two encoded key tuples.
bool KeysLess(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (a[k] != b[k]) return a[k] < b[k];
  }
  return false;
}

/// Encodes row `row` of the sort key column `v` so that unsigned integer
/// order is ORDER BY's order for that key.
uint64_t EncodeSortKey(const Vector& v, int64_t row, bool ascending) {
  constexpr uint64_t kSign64 = uint64_t{1} << 63;
  uint64_t u = 0;
  switch (v.type()) {
    case DataType::kBool:
      u = v.GetBoolAt(row) ? 1 : 0;
      break;
    case DataType::kInt64:
      u = static_cast<uint64_t>(v.GetInt64At(row)) ^ kSign64;
      break;
    case DataType::kFloat: {
      float f = v.GetFloatAt(row);
      if (std::isnan(f)) f = std::numeric_limits<float>::quiet_NaN();
      if (f == 0.0f) f = 0.0f;  // -0.0 sorts as 0.0
      uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      // Negative floats order by inverted bits, positive ones above them.
      u = (bits & 0x80000000u) != 0 ? ~bits : (bits | 0x80000000u);
      break;
    }
  }
  return ascending ? u : ~u;
}

/// Appends `batch` to `out` as one chunk and empties it.
void FlushBatch(std::vector<std::pair<const DataChunk*, int32_t>>* batch,
                QueryResult* out) {
  if (batch->empty()) return;
  DataChunk chunk;
  chunk.Reset(out->types);
  GatherRows(*batch, &chunk);
  out->num_rows += chunk.size;
  out->chunks.push_back(std::move(chunk));
  batch->clear();
}

class AggregateMerge final : public MorselMerge {
 public:
  AggregateMerge(int64_t num_morsels, std::vector<ExprPtr> groups,
                 std::vector<std::string> group_names,
                 std::vector<AggregateSpec> aggregates)
      : groups_(std::move(groups)), aggregates_(std::move(aggregates)) {
    for (const auto& g : groups_) key_types_.push_back(g->type);
    names_ = std::move(group_names);
    types_ = key_types_;
    for (const auto& a : aggregates_) {
      names_.push_back(a.name);
      types_.push_back(a.result_type);
    }
    slots_.resize(static_cast<size_t>(num_morsels));
  }

  ~AggregateMerge() override {
    MemoryTracker::Global().Free(tracked_bytes_.load(std::memory_order_relaxed));
  }

  Status Consume(int64_t index, Operator* root, ExecContext* ctx) override {
    auto table = std::make_unique<GroupTable>(key_types_, aggregates_.size());
    DataChunk in;
    bool eof = false;
    while (!eof) {
      in.Reset(root->output_types());
      INDBML_RETURN_NOT_OK(root->Next(ctx, &in, &eof));
      if (in.size > 0) INDBML_RETURN_NOT_OK(table->AddChunk(groups_, aggregates_, in));
    }
    const int64_t bytes = table->Bytes();
    MemoryTracker::Global().Allocate(bytes);
    tracked_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    slots_[static_cast<size_t>(index)] = std::move(table);
    return Status::OK();
  }

  QueryResult Merge() override {
    GroupTable merged(key_types_, aggregates_.size());
    for (auto& slot : slots_) {
      if (slot != nullptr) merged.Merge(*slot);
      slot.reset();
    }
    merged.EnsureGlobalGroup();
    QueryResult out;
    out.names = names_;
    out.types = types_;
    for (int64_t g = 0; g < merged.num_groups();) {
      DataChunk chunk;
      chunk.Reset(types_);
      for (; g < merged.num_groups() && chunk.size < kDefaultVectorSize; ++g) {
        merged.EmitRow(g, aggregates_, &chunk);
      }
      out.num_rows += chunk.size;
      out.chunks.push_back(std::move(chunk));
    }
    return out;
  }

 private:
  std::vector<ExprPtr> groups_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> key_types_;
  std::vector<std::string> names_;
  std::vector<DataType> types_;
  /// One partial table per morsel (see MorselMerge on slot ownership).
  std::vector<std::unique_ptr<GroupTable>> slots_;
  std::atomic<int64_t> tracked_bytes_{0};
};

class SortMerge final : public MorselMerge {
 public:
  SortMerge(int64_t num_morsels, std::vector<ExprPtr> keys, std::vector<bool> ascending,
            std::vector<std::string> names, std::vector<DataType> types)
      : keys_(std::move(keys)),
        ascending_(std::move(ascending)),
        names_(std::move(names)),
        types_(std::move(types)),
        runs_(static_cast<size_t>(num_morsels)) {}

  Status Consume(int64_t index, Operator* root, ExecContext* ctx) override {
    QueryResult rows;
    rows.types = root->output_types();
    INDBML_RETURN_NOT_OK(DrainAppend(root, ctx, &rows));
    return SortRows(keys_, ascending_, std::move(rows), &runs_[static_cast<size_t>(index)]);
  }

  QueryResult Merge() override {
    const size_t nk = keys_.size();
    // Min-heap of run heads on (key, morsel index): equal keys leave in
    // morsel order. The minimum run's head is replaced in place and sifted
    // down, one pass per row.
    struct Head {
      const uint64_t* key;
      int32_t run;
    };
    auto before = [nk](const Head& a, const Head& b) {
      for (size_t k = 0; k < nk; ++k) {
        if (a.key[k] != b.key[k]) return a.key[k] < b.key[k];
      }
      return a.run < b.run;
    };
    std::vector<Head> heap;
    std::vector<size_t> cursor(runs_.size(), 0);
    for (size_t r = 0; r < runs_.size(); ++r) {
      if (!runs_[r].order.empty()) {
        heap.push_back({runs_[r].keys.data(), static_cast<int32_t>(r)});
      }
    }
    auto sift_down = [&](size_t i) {
      const size_t n = heap.size();
      const Head moving = heap[i];
      while (true) {
        size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
        if (!before(heap[child], moving)) break;
        heap[i] = heap[child];
        i = child;
      }
      heap[i] = moving;
    };
    for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

    QueryResult out;
    out.names = names_;
    out.types = types_;
    std::vector<std::pair<const DataChunk*, int32_t>> batch;
    batch.reserve(static_cast<size_t>(kDefaultVectorSize));
    while (!heap.empty()) {
      const int32_t r = heap.front().run;
      SortedRun& run = runs_[static_cast<size_t>(r)];
      size_t& pos = cursor[static_cast<size_t>(r)];
      const auto [c, row] = run.order[pos];
      batch.emplace_back(&run.rows.chunks[static_cast<size_t>(c)], row);
      if (++pos < run.order.size()) {
        heap.front().key = run.keys.data() + pos * nk;
      } else {
        heap.front() = heap.back();
        heap.pop_back();
      }
      if (!heap.empty()) sift_down(0);
      if (static_cast<int64_t>(batch.size()) == kDefaultVectorSize) FlushBatch(&batch, &out);
    }
    FlushBatch(&batch, &out);
    runs_.clear();
    return out;
  }

 private:
  std::vector<ExprPtr> keys_;
  std::vector<bool> ascending_;
  std::vector<std::string> names_;
  std::vector<DataType> types_;
  /// One sorted run per morsel (see MorselMerge on slot ownership).
  std::vector<SortedRun> runs_;
};

class LimitMerge final : public MorselMerge {
 public:
  LimitMerge(int64_t num_morsels, int64_t limit, std::vector<std::string> names,
             std::vector<DataType> types)
      : limit_(limit),
        names_(std::move(names)),
        types_(std::move(types)),
        slots_(static_cast<size_t>(num_morsels)),
        consumed_(static_cast<size_t>(num_morsels), false) {}

  Status Consume(int64_t index, Operator* root, ExecContext* ctx) override {
    QueryResult& rows = slots_[static_cast<size_t>(index)];
    rows.types = root->output_types();
    // Local limit: rows past the first `limit_` of a morsel can never be
    // returned, so the morsel stops pulling there.
    bool eof = false;
    while (!eof && rows.num_rows < limit_) {
      DataChunk chunk;
      chunk.Reset(rows.types);
      INDBML_RETURN_NOT_OK(root->Next(ctx, &chunk, &eof));
      if (chunk.size == 0) continue;
      rows.num_rows += chunk.size;
      rows.chunks.push_back(std::move(chunk));
    }
    MutexLock lock(mu_);
    consumed_[static_cast<size_t>(index)] = true;
    while (prefix_ < consumed_.size() && consumed_[prefix_]) {
      prefix_rows_ += slots_[prefix_].num_rows;
      ++prefix_;
    }
    if (prefix_rows_ >= limit_) satisfied_.store(true, std::memory_order_release);
    return Status::OK();
  }

  bool Satisfied() const override { return satisfied_.load(std::memory_order_acquire); }

  QueryResult Merge() override {
    QueryResult out;
    out.names = names_;
    out.types = types_;
    for (QueryResult& rows : slots_) {
      for (DataChunk& chunk : rows.chunks) {
        if (out.num_rows >= limit_) break;
        if (out.num_rows + chunk.size > limit_) chunk.SetCardinality(limit_ - out.num_rows);
        out.num_rows += chunk.size;
        out.chunks.push_back(std::move(chunk));
      }
    }
    slots_.clear();
    return out;
  }

 private:
  const int64_t limit_;
  std::vector<std::string> names_;
  std::vector<DataType> types_;
  /// One morsel's first rows per slot (see MorselMerge on slot ownership).
  std::vector<QueryResult> slots_;
  Mutex mu_;
  std::vector<bool> consumed_ INDBML_GUARDED_BY(mu_);
  size_t prefix_ INDBML_GUARDED_BY(mu_) = 0;  ///< consumed morsels [0, prefix_)
  int64_t prefix_rows_ INDBML_GUARDED_BY(mu_) = 0;
  std::atomic<bool> satisfied_{false};
};

}  // namespace

std::shared_ptr<MorselMerge> MakeAggregateMerge(int64_t num_morsels,
                                                std::vector<ExprPtr> groups,
                                                std::vector<std::string> group_names,
                                                std::vector<AggregateSpec> aggregates) {
  return std::make_shared<AggregateMerge>(num_morsels, std::move(groups),
                                          std::move(group_names), std::move(aggregates));
}

std::shared_ptr<MorselMerge> MakeSortMerge(int64_t num_morsels, std::vector<ExprPtr> keys,
                                           std::vector<bool> ascending,
                                           std::vector<std::string> names,
                                           std::vector<DataType> types) {
  return std::make_shared<SortMerge>(num_morsels, std::move(keys), std::move(ascending),
                                     std::move(names), std::move(types));
}

std::shared_ptr<MorselMerge> MakeLimitMerge(int64_t num_morsels, int64_t limit,
                                            std::vector<std::string> names,
                                            std::vector<DataType> types) {
  return std::make_shared<LimitMerge>(num_morsels, limit, std::move(names),
                                      std::move(types));
}

Status SortRows(const std::vector<ExprPtr>& keys, const std::vector<bool>& ascending,
                QueryResult rows, SortedRun* run) {
  const size_t nk = keys.size();
  const size_t n = static_cast<size_t>(rows.num_rows);
  std::vector<uint64_t> flat(n * nk);
  std::vector<std::pair<int32_t, int32_t>> refs;
  refs.reserve(n);
  size_t base = 0;
  for (size_t c = 0; c < rows.chunks.size(); ++c) {
    const DataChunk& chunk = rows.chunks[c];
    for (size_t k = 0; k < nk; ++k) {
      Vector v(keys[k]->type);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*keys[k], chunk, &v));
      for (int64_t r = 0; r < chunk.size; ++r) {
        flat[(base + static_cast<size_t>(r)) * nk + k] = EncodeSortKey(v, r, ascending[k]);
      }
    }
    for (int64_t r = 0; r < chunk.size; ++r) {
      refs.emplace_back(static_cast<int32_t>(c), static_cast<int32_t>(r));
    }
    base += static_cast<size_t>(chunk.size);
  }
  // Ordering by (key, input position) is a total order, so a plain sort
  // yields exactly the stable order.
  std::vector<uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    if (KeysLess(&flat[a * nk], &flat[b * nk], nk)) return true;
    if (KeysLess(&flat[b * nk], &flat[a * nk], nk)) return false;
    return a < b;
  });
  run->order.clear();
  run->order.reserve(n);
  run->keys.resize(n * nk);
  for (size_t i = 0; i < n; ++i) {
    run->order.push_back(refs[idx[i]]);
    std::copy_n(&flat[idx[i] * nk], nk, &run->keys[i * nk]);
  }
  run->rows = std::move(rows);
  return Status::OK();
}

void GatherRows(const std::vector<std::pair<const DataChunk*, int32_t>>& rows,
                DataChunk* out) {
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int64_t c = 0; c < out->num_columns(); ++c) {
    Vector& col = out->column(c);
    col.Resize(n);
    switch (col.type()) {
      case DataType::kBool: {
        uint8_t* dst = col.bools();
        for (int64_t i = 0; i < n; ++i) {
          const auto& [chunk, row] = rows[static_cast<size_t>(i)];
          dst[i] = chunk->column(c).GetBoolAt(row) ? 1 : 0;
        }
        break;
      }
      case DataType::kInt64: {
        int64_t* dst = col.ints();
        for (int64_t i = 0; i < n; ++i) {
          const auto& [chunk, row] = rows[static_cast<size_t>(i)];
          dst[i] = chunk->column(c).GetInt64At(row);
        }
        break;
      }
      case DataType::kFloat: {
        float* dst = col.floats();
        for (int64_t i = 0; i < n; ++i) {
          const auto& [chunk, row] = rows[static_cast<size_t>(i)];
          dst[i] = chunk->column(c).GetFloatAt(row);
        }
        break;
      }
    }
  }
  out->size = n;
}

}  // namespace indbml::exec
