// CSV file writer used by bench harnesses to persist experiment series.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace xbarlife {

/// Escapes a CSV cell (quotes cells containing comma/quote/newline).
std::string csv_escape(const std::string& cell);

/// Streams rows to a CSV file; throws xbarlife::Error on I/O failure.
class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row.
  CsvWriter(const std::string& path, std::vector<std::string> headers);

  /// Writes one row; must match the header width.
  void add_row(const std::vector<std::string>& cells);

  /// Convenience overload for numeric rows.
  void add_row(const std::vector<double>& values);

  std::size_t rows_written() const { return rows_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace xbarlife
