/**
 * @file
 * Unit tests for common/csv.h and common/table.h.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"
#include "common/table.h"

namespace helm {
namespace {

TEST(Csv, HeaderAndRows)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"config", "batch", "tbt_ms"});
    csv.row({"NVDRAM", "1", "56.8"});
    csv.row({"DRAM", "1", "49.3"});
    EXPECT_EQ(out.str(),
              "config,batch,tbt_ms\nNVDRAM,1,56.8\nDRAM,1,49.3\n");
}

TEST(Csv, EscapingCommasQuotesNewlines)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, RowNumericFormatsWithPrecision)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"key", "a", "b"});
    // The benches' numeric rows: format_fixed cells through row().
    csv.row({"x", format_fixed(1.23456, 2), format_fixed(2.0, 2)});
    EXPECT_EQ(out.str(), "key,a,b\nx,1.23,2.00\n");
}

TEST(Csv, FormatFixed)
{
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(3.14159, 0), "3");
    EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(AsciiTable, AlignmentAndRule)
{
    AsciiTable table("Caption");
    table.set_header({"name", "value"});
    table.add_row({"alpha", "1"});
    table.add_row({"b", "22"});
    table.align_right(1);
    const std::string text = table.to_string();
    EXPECT_NE(text.find("Caption"), std::string::npos);
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
    // Right-aligned numeric column: "22" ends where " 1" ends.
    EXPECT_NE(text.find("alpha      1"), std::string::npos);
    EXPECT_NE(text.find("b         22"), std::string::npos);
}

TEST(AsciiTable, RaggedRowsHandled)
{
    AsciiTable table;
    table.set_header({"a", "b", "c"});
    table.add_row({"x"});
    table.add_row({"1", "2", "3", "4"});
    // Must not crash and must include every cell.
    const std::string text = table.to_string();
    EXPECT_NE(text.find("4"), std::string::npos);
}

TEST(AsciiTable, AlignRightFrom)
{
    AsciiTable table;
    table.set_header({"label", "v1", "v2"});
    table.add_row({"row", "1", "2"});
    table.align_right_from(1);
    const std::string text = table.to_string();
    // Values right-align under their headers.
    EXPECT_NE(text.find("row     1   2"), std::string::npos);
}

} // namespace
} // namespace helm
