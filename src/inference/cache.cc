#include "inference/cache.h"

#include <cstring>
#include <functional>

namespace indbml::inference {

InferenceCache& InferenceCache::Global() {
  static InferenceCache* cache = new InferenceCache();
  return *cache;
}

InferenceCache::InferenceCache()
    : hits_metric_(metrics::Registry::Global().counter("inference.cache_hits")),
      misses_metric_(
          metrics::Registry::Global().counter("inference.cache_misses")) {
  set_capacity_bytes(capacity_bytes_.load());
}

int64_t InferenceCache::ShareOf(int64_t capacity, int s) {
  if (capacity <= 0) return 0;
  return capacity / kShards + (s < capacity % kShards ? 1 : 0);
}

void InferenceCache::set_capacity_bytes(int64_t bytes) {
  capacity_bytes_.store(bytes, std::memory_order_release);
  for (int s = 0; s < kShards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    MutexLock lock(shard.mu);
    shard.capacity = ShareOf(bytes, s);
    shard.EvictToCapacity();
  }
}

void InferenceCache::MakeKeys(int64_t model_id, const float* in, int64_t n, int64_t d,
                              KeyBatch* batch) {
  // Each key is the model id bytes followed by the tuple's d feature floats,
  // byte-exact. The features sit strided in the feature-major matrix
  // (column j).
  const size_t key_size = sizeof(model_id) + static_cast<size_t>(d) * sizeof(float);
  batch->key_size = key_size;
  batch->bytes.resize(static_cast<size_t>(n) * key_size);
  for (int64_t j = 0; j < n; ++j) {
    std::memcpy(batch->bytes.data() + static_cast<size_t>(j) * key_size, &model_id,
                sizeof(model_id));
  }
  for (int64_t f = 0; f < d; ++f) {
    const float* feature = in + f * n;
    const size_t offset = sizeof(model_id) + static_cast<size_t>(f) * sizeof(float);
    for (int64_t j = 0; j < n; ++j) {
      std::memcpy(batch->bytes.data() + static_cast<size_t>(j) * key_size + offset,
                  feature + j, sizeof(float));
    }
  }
  // Group the rows by shard (a counting sort), keeping row order per shard.
  std::array<int32_t, kShards> counts{};
  std::vector<uint8_t> shard_of(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    const uint64_t h = std::hash<std::string_view>()(batch->key(j));
    // The map buckets on the hash's low bits; shard on its high bits.
    const uint8_t s = static_cast<uint8_t>((h >> 56) % kShards);
    shard_of[static_cast<size_t>(j)] = s;
    ++counts[s];
  }
  batch->shard_begin[0] = 0;
  for (int s = 0; s < kShards; ++s) {
    batch->shard_begin[static_cast<size_t>(s + 1)] =
        batch->shard_begin[static_cast<size_t>(s)] + counts[static_cast<size_t>(s)];
  }
  std::array<int32_t, kShards> fill{};
  batch->rows.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    const uint8_t s = shard_of[static_cast<size_t>(j)];
    batch->rows[static_cast<size_t>(batch->shard_begin[s] + fill[s]++)] =
        static_cast<int32_t>(j);
  }
}

int64_t InferenceCache::Lookup(int64_t model_id, const float* in, int64_t n,
                               int64_t d, int64_t o, float* out,
                               std::vector<char>* hits) {
  int64_t hit_count = 0;
  if (capacity_bytes() > 0 && n > 0) {
    KeyBatch batch;
    MakeKeys(model_id, in, n, d, &batch);
    for (int s = 0; s < kShards; ++s) {
      const int32_t begin = batch.shard_begin[static_cast<size_t>(s)];
      const int32_t end = batch.shard_begin[static_cast<size_t>(s + 1)];
      if (begin == end) continue;
      Shard& shard = shards_[static_cast<size_t>(s)];
      MutexLock lock(shard.mu);
      for (int32_t i = begin; i < end; ++i) {
        const int64_t j = batch.rows[static_cast<size_t>(i)];
        auto it = shard.index.find(batch.key(j));
        if (it == shard.index.end()) continue;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        const Entry& entry = *it->second;
        const char* values = entry.blob.data() + entry.key_size;
        for (int64_t p = 0; p < o; ++p) {
          std::memcpy(&out[p * n + j], values + p * sizeof(float), sizeof(float));
        }
        (*hits)[static_cast<size_t>(j)] = 1;
        ++hit_count;
      }
    }
  }
  hits_metric_->Increment(hit_count);
  misses_metric_->Increment(n - hit_count);
  return hit_count;
}

void InferenceCache::Insert(int64_t model_id, const float* in, int64_t n,
                            int64_t d, int64_t o, const float* results) {
  if (capacity_bytes() <= 0 || n <= 0) return;
  KeyBatch batch;
  MakeKeys(model_id, in, n, d, &batch);
  for (int s = 0; s < kShards; ++s) {
    const int32_t begin = batch.shard_begin[static_cast<size_t>(s)];
    const int32_t end = batch.shard_begin[static_cast<size_t>(s + 1)];
    if (begin == end) continue;
    Shard& shard = shards_[static_cast<size_t>(s)];
    MutexLock lock(shard.mu);
    if (shard.capacity <= 0) continue;
    for (int32_t i = begin; i < end; ++i) {
      const int64_t j = batch.rows[static_cast<size_t>(i)];
      const std::string_view key = batch.key(j);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        // Deterministic runtime: the value cannot have changed; refresh LRU.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        continue;
      }
      Entry entry;
      entry.key_size = key.size();
      entry.blob.resize(key.size() + static_cast<size_t>(o) * sizeof(float));
      std::memcpy(entry.blob.data(), key.data(), key.size());
      for (int64_t p = 0; p < o; ++p) {
        std::memcpy(entry.blob.data() + key.size() + p * sizeof(float),
                    &results[p * n + j], sizeof(float));
      }
      shard.bytes += static_cast<int64_t>(entry.blob.size());
      shard.lru.push_front(std::move(entry));
      shard.index.emplace(shard.lru.front().key(), shard.lru.begin());
    }
    shard.EvictToCapacity();
  }
}

void InferenceCache::Shard::EvictToCapacity() {
  while (bytes > capacity && !lru.empty()) {
    const Entry& victim = lru.back();
    bytes -= static_cast<int64_t>(victim.blob.size());
    index.erase(victim.key());
    lru.pop_back();
  }
}

void InferenceCache::InvalidateModel(int64_t model_id) {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      int64_t id;
      std::memcpy(&id, it->blob.data(), sizeof(id));
      if (id == model_id) {
        shard.bytes -= static_cast<int64_t>(it->blob.size());
        shard.index.erase(it->key());
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void InferenceCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.index.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

InferenceCache::Stats InferenceCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    stats.entries += static_cast<int64_t>(shard.lru.size());
    stats.bytes += shard.bytes;
  }
  return stats;
}

}  // namespace indbml::inference
