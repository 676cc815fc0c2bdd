// Minimal JSON reader for checking server responses.  The benchmark
// parses what the server sends instead of matching bytes, so a change
// to the response layout that keeps the values does not read as wrong.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Member lookup; nullptr when absent or not an object.
  const Value* get(std::string_view key) const;
  bool is_true(std::string_view key) const;
};

/// Parse one JSON document; throws std::runtime_error when malformed.
Value parse(std::string_view text);

}  // namespace perfbench::json
