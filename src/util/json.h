// The one JSON reader and the shared JSON writer primitives. Every JSON
// text the system reads (campaign specs, alert JSONL) goes through
// parse_json, so which texts are accepted is decided here and nowhere
// else. The writers render their own fixed layouts but escape every string
// through append_json_string.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/csv.h"

namespace canids::util {

/// Deepest array/object nesting parse_json accepts. Deeper input throws
/// instead of recursing toward a stack overflow; the formats the tree
/// writes nest 2 deep.
inline constexpr int kJsonMaxDepth = 64;

/// One parsed JSON value. A number keeps its source token, so a typed read
/// converts it exactly into the destination type: 64-bit seeds and epoch
/// nanoseconds never pass through a double.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  /// A string's contents, or a number's source token.
  std::string text;
  std::vector<JsonValue> items;
  /// Object members in source order; duplicate keys are kept, so a loop
  /// over them applies the last one.
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Typed read of the value stored under `key` (named in errors): bool,
  /// std::string, double, an integer type, or a std::vector of those.
  /// Integer types take integer tokens only (no fraction or exponent) and
  /// must hold the value; doubles must be finite. Throws
  /// std::invalid_argument otherwise.
  template <class T>
  [[nodiscard]] T as(std::string_view key) const;
};

/// Parse one complete JSON text. Accepts the RFC 8259 grammar only:
/// numbers match -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, strings take the
/// eight escapes plus \uXXXX (a surrogate must be half of a pair) and no
/// raw control characters, nesting stops at kJsonMaxDepth, and nothing but
/// whitespace may follow the value. Throws std::invalid_argument naming
/// the byte offset.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Append a JSON string literal (quotes + escaping: `"` `\` control
/// characters; non-ASCII bytes pass through untouched).
void append_json_string(std::string& out, std::string_view value);

/// append_json_string into a fresh string, for writers that render
/// through a std::ostream.
[[nodiscard]] std::string json_quoted(std::string_view value);

/// Append a double with round-trip precision (%.17g). Callers only pass
/// finite values; "inf"/"nan" are never produced by this codebase.
void append_json_double(std::string& out, double value);

/// The error JsonValue::as throws: "key '<key>' expects <expected>".
[[noreturn]] void throw_json_read_error(std::string_view key,
                                        std::string_view expected);

template <class T>
T JsonValue::as(std::string_view key) const {
  if constexpr (std::is_same_v<T, bool>) {
    if (type != Type::kBool) throw_json_read_error(key, "a boolean");
    return boolean;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (type != Type::kString) throw_json_read_error(key, "a string");
    return text;
  } else if constexpr (std::is_same_v<T, double>) {
    double value = 0.0;
    if (type != Type::kNumber || !parse_double_strict(text, value)) {
      throw_json_read_error(key, "a finite number");
    }
    return value;
  } else if constexpr (std::is_integral_v<T>) {
    T value{};
    const char* const end = text.data() + text.size();
    if (type == Type::kNumber) {
      // from_chars stops before a fraction or exponent, and reports an
      // overflowing token as result_out_of_range with ptr at its end.
      const auto [ptr, ec] = std::from_chars(text.data(), end, value);
      if (ec == std::errc{} && ptr == end) return value;
    }
    throw_json_read_error(
        key, "an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]");
  } else {
    if (type != Type::kArray) throw_json_read_error(key, "an array");
    T out;
    out.reserve(items.size());
    for (const JsonValue& item : items) {
      out.push_back(item.as<typename T::value_type>(key));
    }
    return out;
  }
}

}  // namespace canids::util
