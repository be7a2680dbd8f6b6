#include "common/csv.hpp"

#include <sstream>

#include "common/error.hpp"

namespace xbarlife {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += "\"\"";
    } else {
      out += ch;
    }
  }
  out += "\"";
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     std::vector<std::string> headers)
    : path_(path), out_(path, std::ios::trunc), columns_(headers.size()) {
  XB_CHECK(!headers.empty(), "CSV needs at least one column");
  if (!out_) {
    throw IoError("cannot open CSV file for writing: " + path);
  }
  for (std::size_t c = 0; c < headers.size(); ++c) {
    out_ << (c ? "," : "") << csv_escape(headers[c]);
  }
  out_ << "\n";
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  XB_CHECK(cells.size() == columns_, "CSV row width must match header");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out_ << (c ? "," : "") << csv_escape(cells[c]);
  }
  out_ << "\n";
  if (!out_) {
    throw IoError("CSV write failed: " + path_);
  }
  ++rows_;
}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    std::ostringstream oss;
    oss << v;
    cells.push_back(oss.str());
  }
  add_row(cells);
}

}  // namespace xbarlife
