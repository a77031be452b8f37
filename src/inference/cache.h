#ifndef INDBML_INFERENCE_CACHE_H_
#define INDBML_INFERENCE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace indbml::inference {

/// \brief Memoizing inference result cache: hot-entity repeat traffic skips
/// the NN entirely (ISSUE 10 layer 3).
///
/// Keys are (model instance id, exact input-tuple bytes): the id is the
/// process-unique SharedModel::model_id(), so a redeployed model gets a new
/// id and can never serve a stale cached prediction, and the input floats
/// are compared byte-exact (no lossy hashing — hash collisions fall back to
/// a miss-free byte comparison inside the map). Values are the
/// [output_dim] prediction floats. Correctness leans on the runtime's
/// determinism: a cached value is bit-identical to re-running the forward
/// pass.
///
/// Thread safe without serialising the workers of a parallel scan: the
/// keys are spread by hash over kShards shards, each with its own mutex,
/// map, LRU list and byte count, and a Lookup/Insert batch takes each shard
/// it touches once. Keys are built into one per-call buffer, not one heap
/// string per row. Eviction is LRU per shard; shard i holds at most its
/// share of `set_capacity_bytes` (the shares sum to the capacity), so the
/// summed bytes never exceed it.
class InferenceCache {
 public:
  /// Number of shards; a constant, not a knob.
  static constexpr int kShards = 16;

  /// The process-wide cache.
  static InferenceCache& Global();

  InferenceCache();

  InferenceCache(const InferenceCache&) = delete;
  InferenceCache& operator=(const InferenceCache&) = delete;

  /// LRU bound in bytes (keys + values). Shrinking evicts immediately.
  /// A capacity of 0 disables the cache (Lookup misses, Insert drops).
  void set_capacity_bytes(int64_t bytes);
  int64_t capacity_bytes() const {
    return capacity_bytes_.load(std::memory_order_acquire);
  }

  /// Looks up the `n` input tuples of the feature-major matrix `in`
  /// ([d x n]: row f holds feature f of every tuple). For each hit row j,
  /// writes the cached prediction into column j of `out` ([o x n]) and sets
  /// (*hits)[j] = 1; `hits` must arrive sized n and zeroed. Returns the hit
  /// count and records the hit/miss metrics.
  int64_t Lookup(int64_t model_id, const float* in, int64_t n, int64_t d,
                 int64_t o, float* out, std::vector<char>* hits);

  /// Inserts the `n` tuples of `in` ([d x n]) with their predictions from
  /// `results` ([o x n]). Existing entries are refreshed (moved to the LRU
  /// front); the deterministic runtime guarantees the value is unchanged.
  void Insert(int64_t model_id, const float* in, int64_t n, int64_t d,
              int64_t o, const float* results);

  /// Drops every entry of this model instance (redeploy invalidation:
  /// called when the model registry evicts or replaces the instance).
  void InvalidateModel(int64_t model_id);

  /// Drops everything (tests and registry Clear()).
  void Clear();

  struct Stats {
    int64_t entries = 0;
    int64_t bytes = 0;
  };
  Stats GetStats() const;

 private:
  /// One entry's bytes: the key (model id + input tuple) followed by the
  /// [output_dim] prediction floats. `key_size` splits the two.
  struct Entry {
    std::string blob;
    size_t key_size = 0;
    std::string_view key() const { return std::string_view(blob.data(), key_size); }
  };
  using Lru = std::list<Entry>;

  struct Shard {
    mutable Mutex mu;
    Lru lru INDBML_GUARDED_BY(mu);  ///< front = most recently used
    /// Views into the keys of `lru`'s entries (list nodes never move).
    std::unordered_map<std::string_view, Lru::iterator> index INDBML_GUARDED_BY(mu);
    int64_t bytes INDBML_GUARDED_BY(mu) = 0;
    int64_t capacity INDBML_GUARDED_BY(mu) = 0;

    void EvictToCapacity() INDBML_REQUIRES(mu);
  };

  /// The n keys of a batch, built side by side in one buffer.
  struct KeyBatch {
    std::vector<char> bytes;
    size_t key_size = 0;
    /// Rows grouped by shard: rows of shard s are
    /// rows[shard_begin[s] .. shard_begin[s + 1]).
    std::vector<int32_t> rows;
    std::array<int32_t, kShards + 1> shard_begin{};

    std::string_view key(int64_t row) const {
      return std::string_view(bytes.data() + static_cast<size_t>(row) * key_size, key_size);
    }
  };

  static void MakeKeys(int64_t model_id, const float* in, int64_t n, int64_t d,
                       KeyBatch* batch);

  /// Byte share of shard `s` in a total capacity of `capacity`.
  static int64_t ShareOf(int64_t capacity, int s);

  std::array<Shard, kShards> shards_;
  std::atomic<int64_t> capacity_bytes_{32 << 20};

  metrics::Counter* hits_metric_;    ///< inference.cache_hits
  metrics::Counter* misses_metric_;  ///< inference.cache_misses
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_CACHE_H_
