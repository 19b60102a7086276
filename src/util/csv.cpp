#include "util/csv.hpp"

#include <stdexcept>

namespace torsim::util {

std::string csv_escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("CsvWriter: cannot write " + path_);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace torsim::util
