/**
 * @file
 * Tabular result container for parameter sweeps.
 *
 * Every bench in this repository boils down to "run a cartesian product
 * of parameters, collect metrics, print a table/CSV".  Dataset is the
 * collection half: rows of named string cells, rendered as CSV or as
 * a pivot table.
 */
#ifndef HELM_SWEEP_DATASET_H
#define HELM_SWEEP_DATASET_H

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table.h"

namespace helm::sweep {

/** One observation: column name -> cell text. */
using Row = std::map<std::string, std::string>;

/** A column-ordered table of sweep observations. */
class Dataset
{
  public:
    Dataset() = default;

    /** Append an observation; new column names extend the schema. */
    void add_row(Row row);

    std::size_t size() const { return rows_.size(); }

    /** Column names in first-seen order. */
    const std::vector<std::string> &columns() const { return columns_; }

    /** Cell text ("" when absent). */
    const std::string &cell(std::size_t row,
                            const std::string &column) const;

    /**
     * Pivot: one table row per distinct @p row_key, one column per
     * distinct @p column_key (both in first-seen order), cells from
     * @p value_column parsed as numbers (0 when unparseable; the mean
     * when observations collide; "-" when none).
     */
    AsciiTable pivot(const std::string &row_key,
                     const std::string &column_key,
                     const std::string &value_column,
                     int precision = 3) const;

    /** Emit as CSV (schema order). */
    void write_csv(std::ostream &out) const;

  private:
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

} // namespace helm::sweep

#endif // HELM_SWEEP_DATASET_H
