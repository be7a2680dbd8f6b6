#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace xbarlife {
namespace {

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TablePrinter, EmptyHeadersRejected) {
  EXPECT_THROW(TablePrinter({}), InvalidArgument);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5, 4), "1.5");
  EXPECT_EQ(format_double(2.0, 4), "2.0");
  EXPECT_EQ(format_double(0.1234, 2), "0.12");
  EXPECT_EQ(format_double(-3.25, 3), "-3.25");
}

TEST(CsvEscape, QuotesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xbarlife_csv_test.csv")
          .string();
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row(std::vector<std::string>{"1", "two"});
    w.add_row(std::vector<double>{3.5, 4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("1,two\n"), std::string::npos);
  EXPECT_NE(content.find("3.5,4\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongWidthRow) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xbarlife_csv_test2.csv")
          .string();
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row(std::vector<std::string>{"only"}),
               InvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), Error);
}

}  // namespace
}  // namespace xbarlife
