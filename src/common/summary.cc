#include "common/summary.h"

#include <algorithm>
#include <cmath>

namespace helm {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
mean_discarding_first(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    if (values.size() == 1)
        return values.front();
    double sum = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 1);
}

double
percentile_nearest_rank(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double exact = p / 100.0 * static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    // The value at a given rank is the same whether the rest of the
    // sample is sorted or merely partitioned around it.
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

} // namespace helm
