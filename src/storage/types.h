#ifndef INDBML_STORAGE_TYPES_H_
#define INDBML_STORAGE_TYPES_H_

#include <cstdint>
#include <string>

#include "common/logging.h"

namespace indbml::storage {

/// Column types supported by the engine.
///
/// The workloads of the paper (fact tables of float features + integer ids,
/// model tables of integer node identifiers + float weights) only need
/// these; NULLs are not supported (the generated ModelJoin queries use
/// inner joins over complete data only — see DESIGN.md).
enum class DataType { kBool, kInt64, kFloat };

inline const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kFloat:
      return "FLOAT";
  }
  return "?";
}

inline int64_t DataTypeSize(DataType t) {
  switch (t) {
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
      return 8;
    case DataType::kFloat:
      return 4;
  }
  return 0;
}

/// A single constant of any supported type (used for literals and MinMax
/// block statistics).
struct Value {
  DataType type = DataType::kInt64;
  bool b = false;
  int64_t i = 0;
  float f = 0;

  static Value Bool(bool v) {
    Value out;
    out.type = DataType::kBool;
    out.b = v;
    return out;
  }
  static Value Int64(int64_t v) {
    Value out;
    out.type = DataType::kInt64;
    out.i = v;
    return out;
  }
  static Value Float(float v) {
    Value out;
    out.type = DataType::kFloat;
    out.f = v;
    return out;
  }

  /// Numeric view used by comparisons across int/float.
  double AsDouble() const {
    switch (type) {
      case DataType::kBool:
        return b ? 1 : 0;
      case DataType::kInt64:
        return static_cast<double>(i);
      case DataType::kFloat:
        return f;
    }
    return 0;
  }

  /// The float an expression compares this value in when the other operand
  /// is not also an int64 (the evaluator casts int64 straight to float).
  float AsFloat() const {
    switch (type) {
      case DataType::kBool:
        return b ? 1.0f : 0.0f;
      case DataType::kInt64:
        return static_cast<float>(i);
      case DataType::kFloat:
        return f;
    }
    return 0;
  }

  std::string ToString() const;
};

/// A named, typed column of a schema.
struct Field {
  std::string name;
  DataType type;
};

}  // namespace indbml::storage

#endif  // INDBML_STORAGE_TYPES_H_
