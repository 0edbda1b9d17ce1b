/**
 * @file
 * ASCII table rendering for bench / example output.
 *
 * The paper-reproduction benches print the same rows the paper's figures
 * plot; AsciiTable keeps that output aligned and readable without pulling
 * in a formatting library.
 */
#ifndef HELM_COMMON_TABLE_H
#define HELM_COMMON_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace helm {

/**
 * Collects rows of strings and renders them with column-width alignment.
 * First row added via set_header() is separated from the body by a rule.
 */
class AsciiTable
{
  public:
    /** Optional caption printed above the table. */
    explicit AsciiTable(std::string title = "") : title_(std::move(title)) {}

    void set_header(std::vector<std::string> header);
    void add_row(std::vector<std::string> row);

    /** Right-align column @p index (numbers read better right-aligned). */
    void align_right(std::size_t index);

    /** Right-align every column except the first. */
    void align_right_from(std::size_t first_index);

    /** Render to @p out. */
    void print(std::ostream &out) const;

    /** Render to a string (handy in tests). */
    std::string to_string() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<bool> right_aligned_;
};

} // namespace helm

#endif // HELM_COMMON_TABLE_H
