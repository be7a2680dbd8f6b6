// Console table rendering for the experiment harnesses.
//
// The bench binaries reproduce the paper's tables; TablePrinter renders them
// with aligned columns in a style close to the paper layout.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xbarlife {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table with a header separator and box-drawing rules.
  std::string render() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant decimals, trimming noise.
std::string format_double(double value, int digits = 4);

}  // namespace xbarlife
