#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace xbarlife {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  XB_CHECK(!headers_.empty(), "table needs at least one column");
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  XB_CHECK(cells.size() == headers_.size(),
           "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto rule = [&]() {
    std::string s = "+";
    for (std::size_t w : widths) {
      s += std::string(w + 2, '-') + "+";
    }
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::ostringstream oss;
    oss << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      oss << " " << std::left << std::setw(static_cast<int>(widths[c]))
          << cells[c] << " |";
    }
    oss << "\n";
    return oss.str();
  };
  std::string out = rule() + line(headers_) + rule();
  for (const auto& row : rows_) {
    out += line(row);
  }
  out += rule();
  return out;
}

std::string format_double(double value, int digits) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(digits) << value;
  std::string s = oss.str();
  // Trim trailing zeros but keep at least one decimal digit.
  if (s.find('.') != std::string::npos) {
    while (s.size() > 1 && s.back() == '0') {
      s.pop_back();
    }
    if (s.back() == '.') {
      s += "0";
    }
  }
  return s;
}

}  // namespace xbarlife
