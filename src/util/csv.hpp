// Minimal CSV writer for experiment outputs (benches and the CLI dump
// result tables for external plotting).
#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace torsim::util {

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row; fields containing commas/quotes/newlines are quoted.
  void row(const std::vector<std::string>& fields);
  void row(std::initializer_list<std::string> fields) {
    row(std::vector<std::string>(fields));
  }

  /// Convenience for mixed field types.
  template <typename... Ts>
  void typed_row(const Ts&... fields) {
    std::vector<std::string> out;
    (out.push_back(to_field(fields)), ...);
    row(out);
  }

  std::size_t rows_written() const { return rows_; }

  /// Flushes and closes the file; throws std::runtime_error if any
  /// write failed (a full disk, say). Call it before reporting success.
  void close();

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(std::string_view s) { return std::string(s); }
  static std::string to_field(const char* s) { return s; }
  template <typename T>
  static std::string to_field(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }

  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

/// Escapes one CSV field per RFC 4180.
std::string csv_escape(const std::string& field);

}  // namespace torsim::util
