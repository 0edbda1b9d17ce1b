/**
 * @file
 * Tabular result container for parameter sweeps.
 *
 * Every bench in this repository boils down to "run a cartesian product
 * of parameters, collect metrics, print a table/CSV".  Dataset is the
 * collection half: rows of named string cells with numeric accessors,
 * filtering, distinct-value enumeration, aggregation, and pivot-table
 * rendering.
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
    bool empty() const { return rows_.empty(); }

    /** Column names in first-seen order. */
    const std::vector<std::string> &columns() const { return columns_; }

    /** Cell text ("" when absent). */
    const std::string &cell(std::size_t row,
                            const std::string &column) const;

    /** Cell parsed as double (0.0 when absent/unparseable). */
    double numeric(std::size_t row, const std::string &column) const;

    /** Distinct values of a column, in first-seen order. */
    std::vector<std::string> distinct(const std::string &column) const;

    /** Rows whose @p column equals @p value. */
    Dataset filter(const std::string &column,
                   const std::string &value) const;

    /** Mean of a numeric column over all rows (0 when empty). */
    double mean_of(const std::string &column) const;

    /**
     * Pivot: one table row per distinct @p row_key, one column per
     * distinct @p column_key, cells from @p value_column (mean when
     * multiple observations collide).
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
    static const std::string kEmpty;
};

} // namespace helm::sweep

#endif // HELM_SWEEP_DATASET_H
