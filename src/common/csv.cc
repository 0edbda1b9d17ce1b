#include "common/csv.h"

#include <cstdio>

#include "common/status.h"

namespace helm {

std::string
format_fixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
CsvWriter::escape(const std::string &field)
{
    bool needs_quotes = field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::header(const std::vector<std::string> &columns)
{
    HELM_ASSERT(!header_written_, "CSV header written twice");
    HELM_ASSERT(!columns.empty(), "CSV header must have columns");
    columns_ = columns.size();
    header_written_ = true;
    emit(columns);
}

void
CsvWriter::row(const std::vector<std::string> &values)
{
    HELM_ASSERT(header_written_, "CSV row before header");
    HELM_ASSERT(values.size() == columns_, "CSV row has wrong column count");
    emit(values);
}

void
CsvWriter::emit(const std::vector<std::string> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out_ << ',';
        out_ << escape(values[i]);
    }
    out_ << '\n';
}

} // namespace helm
