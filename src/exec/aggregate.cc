#include "exec/aggregate.h"

#include <cstring>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "exec/join.h"

#include <algorithm>

namespace indbml::exec {

const char* AggFunctionName(AggFunction fn) {
  switch (fn) {
    case AggFunction::kSum:
      return "SUM";
    case AggFunction::kCount:
      return "COUNT";
    case AggFunction::kMin:
      return "MIN";
    case AggFunction::kMax:
      return "MAX";
    case AggFunction::kAvg:
      return "AVG";
  }
  return "?";
}

Value AggState::Finalize(AggFunction fn, DataType result_type) const {
  double v = 0;
  switch (fn) {
    case AggFunction::kSum:
      v = sum;
      break;
    case AggFunction::kCount:
      return Value::Int64(count);
    case AggFunction::kMin:
      v = min;
      break;
    case AggFunction::kMax:
      v = max;
      break;
    case AggFunction::kAvg:
      v = count > 0 ? sum / static_cast<double>(count) : 0;
      break;
  }
  switch (result_type) {
    case DataType::kInt64:
      return Value::Int64(static_cast<int64_t>(v));
    case DataType::kFloat:
      return Value::Float(static_cast<float>(v));
    case DataType::kBool:
      return Value::Bool(v != 0);
  }
  return Value();
}

namespace {

/// Shared helpers for both aggregation flavours.
std::vector<DataType> BuildTypes(const std::vector<ExprPtr>& groups,
                                 const std::vector<AggregateSpec>& aggs) {
  std::vector<DataType> types;
  for (const auto& g : groups) types.push_back(g->type);
  for (const auto& a : aggs) types.push_back(a.result_type);
  return types;
}

std::vector<std::string> BuildNames(const std::vector<std::string>& group_names,
                                    const std::vector<AggregateSpec>& aggs) {
  std::vector<std::string> names = group_names;
  for (const auto& a : aggs) names.push_back(a.name);
  return names;
}

/// Evaluates group keys and aggregate arguments for a chunk.
Status EvalChunk(const std::vector<ExprPtr>& groups,
                 const std::vector<AggregateSpec>& aggs, const DataChunk& in,
                 std::vector<Vector>* group_vecs, std::vector<Vector>* arg_vecs) {
  group_vecs->clear();
  for (const auto& g : groups) {
    Vector v(g->type);
    INDBML_RETURN_NOT_OK(EvaluateExpr(*g, in, &v));
    // KeyPart/ArgValue read raw typed pointers, so aggregation is a flatten
    // boundary for selected views coming off a filtered scan.
    v.Flatten();
    group_vecs->push_back(std::move(v));
  }
  arg_vecs->clear();
  for (const auto& a : aggs) {
    Vector v(a.argument ? a.argument->type : DataType::kInt64);
    if (a.argument) {
      INDBML_RETURN_NOT_OK(EvaluateExpr(*a.argument, in, &v));
      v.Flatten();
    }
    arg_vecs->push_back(std::move(v));
  }
  return Status::OK();
}

uint64_t KeyPart(const Vector& v, int64_t row) {
  switch (v.type()) {
    case DataType::kBool:
      return v.bools()[row];
    case DataType::kInt64:
      return static_cast<uint64_t>(v.ints()[row]);
    case DataType::kFloat: {
      uint32_t bits;
      float f = v.floats()[row];
      std::memcpy(&bits, &f, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

double ArgValue(const Vector& v, int64_t row) {
  switch (v.type()) {
    case DataType::kBool:
      return v.bools()[row];
    case DataType::kInt64:
      return static_cast<double>(v.ints()[row]);
    case DataType::kFloat:
      return v.floats()[row];
  }
  return 0;
}

Value KeyValue(DataType type, uint64_t part) {
  switch (type) {
    case DataType::kBool:
      return Value::Bool(part != 0);
    case DataType::kInt64:
      return Value::Int64(static_cast<int64_t>(part));
    case DataType::kFloat: {
      const uint32_t bits = static_cast<uint32_t>(part);
      float f;
      std::memcpy(&f, &bits, sizeof(f));
      return Value::Float(f);
    }
  }
  return Value();
}

/// Slot of hash `h` in an open-addressing table of `mask + 1` slots; the
/// multiply spreads the FNV hash's low-entropy bits over the whole word.
size_t SlotOf(uint64_t h, size_t mask) {
  return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

}  // namespace

GroupTable::GroupTable(std::vector<DataType> key_types, size_t num_aggregates)
    : key_types_(std::move(key_types)),
      num_keys_(key_types_.size()),
      num_aggs_(num_aggregates),
      slots_(16, -1),
      parts_(key_types_.size()) {}

void GroupTable::Grow() {
  std::vector<int32_t> slots(slots_.size() * 2, -1);
  const size_t mask = slots.size() - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t s = SlotOf(hashes_[g], mask);
    while (slots[s] >= 0) s = (s + 1) & mask;
    slots[s] = static_cast<int32_t>(g);
  }
  slots_ = std::move(slots);
}

int64_t GroupTable::FindOrInsert(const uint64_t* parts, uint64_t h) {
  const size_t mask = slots_.size() - 1;
  size_t s = SlotOf(h, mask);
  while (slots_[s] >= 0) {
    const size_t g = static_cast<size_t>(slots_[s]);
    if (hashes_[g] == h &&
        std::equal(parts, parts + num_keys_, keys_.begin() + g * num_keys_)) {
      return static_cast<int64_t>(g);
    }
    s = (s + 1) & mask;
  }
  const size_t g = hashes_.size();
  slots_[s] = static_cast<int32_t>(g);
  hashes_.push_back(h);
  keys_.insert(keys_.end(), parts, parts + num_keys_);
  states_.resize(states_.size() + num_aggs_);
  if (2 * hashes_.size() > slots_.size()) Grow();
  return static_cast<int64_t>(g);
}

Status GroupTable::AddChunk(const std::vector<ExprPtr>& groups,
                            const std::vector<AggregateSpec>& aggregates,
                            const DataChunk& in) {
  INDBML_RETURN_NOT_OK(EvalChunk(groups, aggregates, in, &key_vecs_, &arg_vecs_));
  for (int64_t r = 0; r < in.size; ++r) {
    for (size_t k = 0; k < num_keys_; ++k) parts_[k] = KeyPart(key_vecs_[k], r);
    const int64_t g = FindOrInsert(parts_.data(), HashKeyParts(parts_.data(), num_keys_));
    AggState* states = states_.data() + static_cast<size_t>(g) * num_aggs_;
    for (size_t a = 0; a < num_aggs_; ++a) {
      states[a].Update(aggregates[a].argument ? ArgValue(arg_vecs_[a], r) : 1.0);
    }
  }
  return Status::OK();
}

void GroupTable::Merge(const GroupTable& other) {
  for (size_t og = 0; og < other.hashes_.size(); ++og) {
    const int64_t g =
        FindOrInsert(other.keys_.data() + og * num_keys_, other.hashes_[og]);
    for (size_t a = 0; a < num_aggs_; ++a) {
      states_[static_cast<size_t>(g) * num_aggs_ + a].Merge(
          other.states_[og * num_aggs_ + a]);
    }
  }
}

void GroupTable::EnsureGlobalGroup() {
  if (num_keys_ == 0 && hashes_.empty()) FindOrInsert(nullptr, HashKeyParts(nullptr, 0));
}

void GroupTable::EmitRow(int64_t g, const std::vector<AggregateSpec>& aggregates,
                         DataChunk* out) const {
  const size_t group = static_cast<size_t>(g);
  int64_t col = 0;
  for (size_t k = 0; k < num_keys_; ++k) {
    out->column(col++).Append(KeyValue(key_types_[k], keys_[group * num_keys_ + k]));
  }
  for (size_t a = 0; a < num_aggs_; ++a) {
    out->column(col++).Append(states_[group * num_aggs_ + a].Finalize(
        aggregates[a].function, aggregates[a].result_type));
  }
  ++out->size;
}

int64_t GroupTable::Bytes() const {
  return static_cast<int64_t>(keys_.size() * sizeof(uint64_t) +
                              hashes_.size() * sizeof(uint64_t) +
                              states_.size() * sizeof(AggState) +
                              slots_.size() * sizeof(int32_t));
}

namespace {

std::vector<DataType> KeyTypes(const std::vector<ExprPtr>& groups) {
  std::vector<DataType> types;
  for (const auto& g : groups) types.push_back(g->type);
  return types;
}

}  // namespace

HashAggregateOperator::HashAggregateOperator(OperatorPtr child,
                                             std::vector<ExprPtr> groups,
                                             std::vector<std::string> group_names,
                                             std::vector<AggregateSpec> aggregates)
    : child_(std::move(child)),
      groups_(std::move(groups)),
      aggregates_(std::move(aggregates)),
      types_(BuildTypes(groups_, aggregates_)),
      names_(BuildNames(group_names, aggregates_)),
      table_(KeyTypes(groups_), aggregates_.size()) {}

void HashAggregateOperator::ResetTable() {
  table_ = GroupTable(KeyTypes(groups_), aggregates_.size());
  emit_cursor_ = 0;
  consumed_ = false;
}

Status HashAggregateOperator::Open(ExecContext* ctx) {
  ResetTable();
  return child_->Open(ctx);
}

Status HashAggregateOperator::Rewind(ExecContext* ctx) {
  ResetTable();
  return child_->Rewind(ctx);
}

Status HashAggregateOperator::Consume(ExecContext* ctx) {
  bool eof = false;
  while (!eof) {
    in_.Reset(child_->output_types());
    INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &eof));
    if (in_.size == 0) continue;
    INDBML_RETURN_NOT_OK(table_.AddChunk(groups_, aggregates_, in_));
  }
  // SQL semantics: a global aggregate (no GROUP BY) over empty input still
  // produces one row (COUNT = 0, sums empty).
  table_.EnsureGlobalGroup();
  int64_t bytes = table_.Bytes();
  MemoryTracker::Global().Allocate(bytes - tracked_bytes_);
  tracked_bytes_ = bytes;
  consumed_ = true;
  return Status::OK();
}

HashAggregateOperator::~HashAggregateOperator() {
  MemoryTracker::Global().Free(tracked_bytes_);
}

Status HashAggregateOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (!consumed_) INDBML_RETURN_NOT_OK(Consume(ctx));
  while (emit_cursor_ < table_.num_groups() && out->size < kDefaultVectorSize) {
    table_.EmitRow(emit_cursor_++, aggregates_, out);
  }
  *eof = emit_cursor_ >= table_.num_groups();
  return Status::OK();
}

StreamingAggregateOperator::StreamingAggregateOperator(
    OperatorPtr child, std::vector<ExprPtr> groups,
    std::vector<std::string> group_names, std::vector<AggregateSpec> aggregates,
    int prefix_count)
    : child_(std::move(child)),
      groups_(std::move(groups)),
      aggregates_(std::move(aggregates)),
      types_(BuildTypes(groups_, aggregates_)),
      names_(BuildNames(group_names, aggregates_)),
      prefix_count_(prefix_count) {
  INDBML_CHECK(prefix_count_ >= 1 &&
               prefix_count_ <= static_cast<int>(groups_.size()))
      << "invalid sorted-prefix length";
}

Status StreamingAggregateOperator::Open(ExecContext* ctx) {
  group_active_ = false;
  input_eof_ = false;
  rest_groups_.clear();
  rest_insertion_order_.clear();
  peak_group_count_ = 0;
  return child_->Open(ctx);
}

Status StreamingAggregateOperator::Rewind(ExecContext* ctx) {
  group_active_ = false;
  input_eof_ = false;
  current_prefix_.clear();
  rest_groups_.clear();
  rest_insertion_order_.clear();
  // peak_group_count_ deliberately survives: it reports the peak across the
  // whole execution, morsels included.
  return child_->Rewind(ctx);
}

void StreamingAggregateOperator::FlushPrefixGroup(DataChunk* out) {
  int64_t group_count = 0;
  for (uint64_t h : rest_insertion_order_) {
    for (const GroupEntry& entry : rest_groups_[h]) {
      int64_t col = 0;
      for (const Value& v : current_prefix_) out->column(col++).Append(v);
      for (const Value& v : entry.rest_key) out->column(col++).Append(v);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        out->column(col++).Append(entry.states[a].Finalize(
            aggregates_[a].function, aggregates_[a].result_type));
      }
      ++out->size;
      ++group_count;
    }
  }
  peak_group_count_ = std::max(peak_group_count_, group_count);
  rest_groups_.clear();
  rest_insertion_order_.clear();
}

Status StreamingAggregateOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  std::vector<Vector> group_vecs;
  std::vector<Vector> arg_vecs;
  const size_t prefix = static_cast<size_t>(prefix_count_);
  const size_t rest = groups_.size() - prefix;
  std::vector<uint64_t> rest_parts(rest);
  while (!input_eof_ && out->size < kDefaultVectorSize) {
    in_.Reset(child_->output_types());
    INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &input_eof_));
    if (in_.size == 0) continue;
    const DataChunk& in = in_;
    INDBML_RETURN_NOT_OK(EvalChunk(groups_, aggregates_, in, &group_vecs, &arg_vecs));
    for (int64_t r = 0; r < in.size; ++r) {
      bool same_prefix = group_active_;
      if (same_prefix) {
        for (size_t k = 0; k < prefix; ++k) {
          Value v = group_vecs[k].GetValue(r);
          const Value& p = current_prefix_[k];
          bool eq = v.type == p.type &&
                    (v.type == DataType::kInt64
                         ? v.i == p.i
                         : (v.type == DataType::kFloat ? v.f == p.f : v.b == p.b));
          if (!eq) {
            same_prefix = false;
            break;
          }
        }
      }
      if (!same_prefix) {
        if (group_active_) FlushPrefixGroup(out);
        current_prefix_.clear();
        for (size_t k = 0; k < prefix; ++k) {
          current_prefix_.push_back(group_vecs[k].GetValue(r));
        }
        group_active_ = true;
      }
      // Locate (or create) the rest-key group within the current prefix.
      for (size_t k = 0; k < rest; ++k) {
        rest_parts[k] = KeyPart(group_vecs[prefix + k], r);
      }
      uint64_t h = HashKeyParts(rest_parts.data(), rest_parts.size());
      auto [it, inserted] = rest_groups_.try_emplace(h);
      if (inserted) rest_insertion_order_.push_back(h);
      GroupEntry* entry = nullptr;
      for (auto& candidate : it->second) {
        bool eq = true;
        for (size_t k = 0; k < rest; ++k) {
          Value v = group_vecs[prefix + k].GetValue(r);
          const Value& p = candidate.rest_key[k];
          if (!(v.type == p.type &&
                (v.type == DataType::kInt64
                     ? v.i == p.i
                     : (v.type == DataType::kFloat ? v.f == p.f : v.b == p.b)))) {
            eq = false;
            break;
          }
        }
        if (eq) {
          entry = &candidate;
          break;
        }
      }
      if (entry == nullptr) {
        GroupEntry fresh;
        for (size_t k = 0; k < rest; ++k) {
          fresh.rest_key.push_back(group_vecs[prefix + k].GetValue(r));
        }
        fresh.states.resize(aggregates_.size());
        it->second.push_back(std::move(fresh));
        entry = &it->second.back();
      }
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        double v = aggregates_[a].argument ? ArgValue(arg_vecs[a], r) : 1.0;
        entry->states[a].Update(v);
      }
    }
  }
  if (input_eof_ && group_active_) {
    FlushPrefixGroup(out);
    group_active_ = false;
  }
  *eof = input_eof_ && !group_active_;
  return Status::OK();
}

}  // namespace indbml::exec
