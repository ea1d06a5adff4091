// JSON writing and reading shared by every obs surface.
//
// json_escape() quotes a string for the trace lines, snapshots, Chrome
// traces and bench files. parse_json() is the one reader: a small
// recursive-descent parser behind the span-trace reader
// (parse_span_line) and the Chrome-trace validator. Numbers keep their
// source text, so integers (span ids, microsecond timestamps, byte
// counts) read back exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vsplice::obs {

/// `text` as a quoted JSON string literal. Control characters use the
/// named escapes (plus \u00xx), and non-ASCII bytes are escaped
/// per-byte, so output is always pure ASCII and parse_json returns the
/// original bytes exactly.
[[nodiscard]] std::string json_escape(const std::string& text);

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  /// A string's contents, or a number's source text.
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key` of an object; nullptr when absent.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// The value of an integral number token; nullopt for anything else
  /// (fractions, exponents, out-of-range values, non-numbers).
  [[nodiscard]] std::optional<std::int64_t> as_int() const;
};

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// On failure returns false and describes the first problem, with its
/// byte offset, in `error`.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

}  // namespace vsplice::obs
