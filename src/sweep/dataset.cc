#include "sweep/dataset.h"

#include <algorithm>
#include <cstdlib>

#include "common/csv.h"

namespace helm::sweep {

namespace {

/** @p row's cell in @p column ("" when absent). */
const std::string &
cell_of(const Row &row, const std::string &column)
{
    static const std::string kNone;
    const auto it = row.find(column);
    return it == row.end() ? kNone : it->second;
}

/** Distinct values of @p column over @p rows, in first-seen order. */
std::vector<std::string>
distinct(const std::vector<Row> &rows, const std::string &column)
{
    std::vector<std::string> values;
    for (const Row &row : rows) {
        const std::string &value = cell_of(row, column);
        if (std::find(values.begin(), values.end(), value) ==
            values.end()) {
            values.push_back(value);
        }
    }
    return values;
}

} // namespace

void
Dataset::add_row(Row row)
{
    for (const auto &[name, value] : row) {
        if (std::find(columns_.begin(), columns_.end(), name) ==
            columns_.end()) {
            columns_.push_back(name);
        }
    }
    rows_.push_back(std::move(row));
}

const std::string &
Dataset::cell(std::size_t row, const std::string &column) const
{
    HELM_ASSERT(row < rows_.size(), "row index out of range");
    return cell_of(rows_[row], column);
}

AsciiTable
Dataset::pivot(const std::string &row_key, const std::string &column_key,
               const std::string &value_column, int precision) const
{
    const auto column_values = distinct(rows_, column_key);

    AsciiTable table(value_column + " by " + row_key + " x " +
                     column_key);
    std::vector<std::string> header{row_key};
    header.insert(header.end(), column_values.begin(),
                  column_values.end());
    table.set_header(header);
    table.align_right_from(1);

    for (const std::string &rv : distinct(rows_, row_key)) {
        std::vector<std::string> cells{rv};
        for (const std::string &cv : column_values) {
            double sum = 0.0;
            std::size_t count = 0;
            for (const Row &row : rows_) {
                if (cell_of(row, row_key) != rv ||
                    cell_of(row, column_key) != cv)
                    continue;
                const std::string &text = cell_of(row, value_column);
                char *end = nullptr;
                const double value = std::strtod(text.c_str(), &end);
                sum += end == text.c_str() ? 0.0 : value;
                ++count;
            }
            cells.push_back(
                count == 0
                    ? "-"
                    : format_fixed(sum / static_cast<double>(count),
                                   precision));
        }
        table.add_row(std::move(cells));
    }
    return table;
}

void
Dataset::write_csv(std::ostream &out) const
{
    CsvWriter csv(out);
    csv.header(columns_);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        std::vector<std::string> cells;
        cells.reserve(columns_.size());
        for (const std::string &column : columns_)
            cells.push_back(cell(i, column));
        csv.row(cells);
    }
}

} // namespace helm::sweep
