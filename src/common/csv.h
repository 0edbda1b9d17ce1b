/**
 * @file
 * CSV emission for bench output.
 *
 * Every paper-reproduction bench prints a human-readable table plus an
 * optional machine-readable CSV block so the figures can be re-plotted.
 * CsvWriter handles quoting and enforces a consistent column count.
 */
#ifndef HELM_COMMON_CSV_H
#define HELM_COMMON_CSV_H

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace helm {

/**
 * Streams rows of comma-separated values with RFC-4180-style quoting.
 * The header row fixes the column count; subsequent rows must match.
 */
class CsvWriter
{
  public:
    /** @param out Sink stream; must outlive the writer. */
    explicit CsvWriter(std::ostream &out) : out_(out) {}

    /** Emit the header row and lock the column count. */
    void header(const std::vector<std::string> &columns);

    /** Emit one data row; column count must match the header. */
    void row(const std::vector<std::string> &values);

    /** Quote a single field if it contains comma/quote/newline. */
    static std::string escape(const std::string &field);

  private:
    void emit(const std::vector<std::string> &values);

    std::ostream &out_;
    std::size_t columns_ = 0;
    bool header_written_ = false;
};

/** Format a double with @p precision digits after the decimal point. */
std::string format_fixed(double value, int precision);

} // namespace helm

#endif // HELM_COMMON_CSV_H
