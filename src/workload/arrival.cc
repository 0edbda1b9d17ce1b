#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/rng.h"

namespace helm::workload {

namespace {

/** Instantaneous rate multiplier of a modulated arrival process. */
double
rate_multiplier(const ArrivalSpec &spec, Seconds t)
{
    if (spec.kind == ArrivalKind::kBursty) {
        const double phase =
            std::fmod(t, spec.burst_period) / spec.burst_period;
        return phase < spec.burst_duty ? spec.burst_factor : 1.0;
    }
    if (spec.kind == ArrivalKind::kDiurnal) {
        // Sinusoid between 1x and burst_factor x, period burst_period.
        const double phase = 2.0 * 3.14159265358979323846 *
                             std::fmod(t, spec.burst_period) /
                             spec.burst_period;
        const double mid = (spec.burst_factor + 1.0) / 2.0;
        const double amp = (spec.burst_factor - 1.0) / 2.0;
        return mid + amp * std::sin(phase);
    }
    return 1.0;
}

} // namespace

Status
ArrivalSpec::validate() const
{
    if (rate <= 0.0)
        return Status::invalid_argument("arrival rate must be > 0");
    if (duration <= 0.0)
        return Status::invalid_argument("arrival duration must be > 0");
    if (prompt_tokens < 1 || output_tokens < 1) {
        return Status::invalid_argument(
            "prompt and output token counts must be >= 1");
    }
    if (tenants < 1)
        return Status::invalid_argument("tenant count must be >= 1");
    if (deadline < 0.0)
        return Status::invalid_argument("deadline must be >= 0");
    if (kind == ArrivalKind::kBursty || kind == ArrivalKind::kDiurnal) {
        if (burst_factor < 1.0) {
            return Status::invalid_argument(
                "burst factor must be >= 1 (the base rate is the "
                "trough)");
        }
        if (burst_period <= 0.0)
            return Status::invalid_argument("burst period must be > 0");
        if (kind == ArrivalKind::kBursty &&
            (burst_duty <= 0.0 || burst_duty >= 1.0)) {
            return Status::invalid_argument(
                "burst duty must be in (0, 1)");
        }
    }
    return Status::ok();
}

Result<std::vector<TimedRequest>>
generate_arrivals(const ArrivalSpec &spec)
{
    HELM_RETURN_IF_ERROR(spec.validate());

    Rng rng(spec.seed);
    std::vector<TimedRequest> stream;
    Seconds now = 0.0;
    std::uint64_t next_id = 0;

    while (true) {
        // Draw the gap to the next arrival.
        if (spec.kind == ArrivalKind::kUniform) {
            now += 1.0 / spec.rate;
        } else {
            // Exponential inter-arrival: -ln(1-u)/rate, u in [0,1).
            // Modulated kinds thin by the instantaneous multiplier at
            // the draw point (piecewise-constant approximation).
            const double rate =
                spec.rate * rate_multiplier(spec, now);
            now += -std::log(1.0 - rng.next_double()) / rate;
        }
        if (now >= spec.duration)
            break;
        if (spec.max_requests > 0 && next_id >= spec.max_requests)
            break;

        TimedRequest timed;
        timed.arrival = now;
        timed.request.id = next_id;
        timed.request.tenant = next_id % spec.tenants;
        timed.request.prompt_tokens =
            spec.variable_lengths
                ? sample_c4_prompt_tokens(rng, spec.prompt_tokens,
                                          spec.min_prompt)
                : spec.prompt_tokens;
        timed.request.output_tokens = spec.output_tokens;
        if (spec.deadline > 0.0)
            timed.deadline = now + spec.deadline;
        ++next_id;
        stream.push_back(timed);
    }
    return stream;
}

std::vector<TimedRequest>
merge_arrivals(const std::vector<std::vector<TimedRequest>> &streams)
{
    std::vector<TimedRequest> merged;
    for (const auto &stream : streams)
        merged.insert(merged.end(), stream.begin(), stream.end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TimedRequest &a, const TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });
    for (std::size_t i = 0; i < merged.size(); ++i)
        merged[i].request.id = i;
    return merged;
}

Result<std::vector<TimedRequest>>
load_arrival_trace(const std::string &path)
{
    std::ifstream file(path);
    if (!file.is_open())
        return Status::not_found("cannot open arrival trace " + path);

    std::vector<TimedRequest> stream;
    std::uint64_t next_id = 0;
    std::string line;
    std::size_t line_number = 0;

    while (std::getline(file, line)) {
        ++line_number;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);

        std::istringstream fields(line);
        double arrival = -1.0;
        std::uint64_t prompt = 0, output = 0;
        if (!(fields >> arrival >> prompt >> output) || arrival < 0.0 ||
            prompt == 0 || output == 0) {
            return Status::invalid_argument(
                path + ":" + std::to_string(line_number) +
                ": expected '<arrival_seconds> <prompt_tokens> "
                "<output_tokens> [tenant] [deadline_seconds]', got '" +
                line + "'");
        }
        std::uint64_t tenant = 0;
        double deadline = 0.0;
        if (fields >> tenant && fields >> deadline &&
            deadline < arrival && deadline != 0.0) {
            return Status::invalid_argument(
                path + ":" + std::to_string(line_number) +
                ": deadline precedes the arrival time");
        }
        std::string extra;
        if (fields.clear(), fields >> extra) {
            return Status::invalid_argument(
                path + ":" + std::to_string(line_number) +
                ": trailing content '" + extra + "'");
        }
        if (!stream.empty() && arrival < stream.back().arrival) {
            return Status::invalid_argument(
                path + ":" + std::to_string(line_number) +
                ": arrival times must be nondecreasing");
        }
        TimedRequest timed;
        timed.request = Request{next_id++, prompt, output, tenant};
        timed.arrival = arrival;
        timed.deadline = deadline;
        stream.push_back(timed);
    }
    if (stream.empty())
        return Status::invalid_argument(path + ": no requests");
    return stream;
}

} // namespace helm::workload
