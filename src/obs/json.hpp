// Deterministic JSON emission for the observability subsystem.
//
// Every consumer of obs output (metrics goldens, Chrome traces)
// compares bytes, so the writer guarantees a
// canonical encoding: callers emit keys in a fixed (sorted) order,
// integers print without exponent, and doubles always go through one
// fixed "%.10g" format. No locales, no field reordering, no
// pretty-print variance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace torsim::obs {

/// Escapes `text` per RFC 8259 (quotes, backslashes, control bytes).
std::string json_escape(const std::string& text);

/// Canonical number renderings: integers verbatim, doubles via "%.10g"
/// (with a trailing ".0" appended to integral doubles so the value
/// round-trips as a float, never silently narrowing to an int field).
std::string json_number(std::int64_t value);
std::string json_number(double value);

/// A minimal streaming JSON writer. The caller is responsible for key
/// order (emit sorted keys for canonical output) and for structural
/// validity; the writer handles separators, escaping, and indentation
/// (2 spaces — stable, diff-friendly output).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":` inside an object; follow with a value call.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(double number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// The document built so far, newline-terminated once complete.
  std::string str() const { return out_; }

 private:
  void before_value();
  void newline();

  std::string out_;
  /// One frame per open container: true once a first element was
  /// emitted (so the next element is comma-separated).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace torsim::obs
