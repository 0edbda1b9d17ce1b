#include "sweep/dataset.h"

#include <algorithm>
#include <cstdlib>

#include "common/csv.h"

namespace helm::sweep {

const std::string Dataset::kEmpty;

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
    const auto it = rows_[row].find(column);
    return it == rows_[row].end() ? kEmpty : it->second;
}

double
Dataset::numeric(std::size_t row, const std::string &column) const
{
    const std::string &text = cell(row, column);
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    return end == text.c_str() ? 0.0 : value;
}

std::vector<std::string>
Dataset::distinct(const std::string &column) const
{
    std::vector<std::string> values;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const std::string &value = cell(i, column);
        if (std::find(values.begin(), values.end(), value) ==
            values.end()) {
            values.push_back(value);
        }
    }
    return values;
}

Dataset
Dataset::filter(const std::string &column, const std::string &value) const
{
    Dataset out;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (cell(i, column) == value)
            out.add_row(rows_[i]);
    }
    return out;
}

double
Dataset::mean_of(const std::string &column) const
{
    if (rows_.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < rows_.size(); ++i)
        sum += numeric(i, column);
    return sum / static_cast<double>(rows_.size());
}

AsciiTable
Dataset::pivot(const std::string &row_key, const std::string &column_key,
               const std::string &value_column, int precision) const
{
    const auto row_values = distinct(row_key);
    const auto column_values = distinct(column_key);

    AsciiTable table(value_column + " by " + row_key + " x " +
                     column_key);
    std::vector<std::string> header{row_key};
    header.insert(header.end(), column_values.begin(),
                  column_values.end());
    table.set_header(header);
    table.align_right_from(1);

    for (const std::string &rv : row_values) {
        std::vector<std::string> cells{rv};
        const Dataset row_slice = filter(row_key, rv);
        for (const std::string &cv : column_values) {
            const Dataset cell_slice = row_slice.filter(column_key, cv);
            cells.push_back(cell_slice.empty()
                                ? "-"
                                : format_fixed(
                                      cell_slice.mean_of(value_column),
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
