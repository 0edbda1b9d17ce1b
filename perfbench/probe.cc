#include "probe.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <sys/resource.h>
#include <unordered_map>

namespace perfbench {

namespace {

/** Small stable per-thread number for the trace's tid column. */
std::uint64_t
thread_number()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t mine = next.fetch_add(1);
    return mine;
}

/** A "VmRSS:"-style line of /proc/self/status in MiB; -1 if absent. */
double
status_mb(const char *key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t key_len = std::strlen(key);
    while (std::getline(status, line)) {
        if (line.compare(0, key_len, key) == 0)
            return std::stod(line.substr(key_len)) / 1024.0; // kB
    }
    return -1.0;
}

} // namespace

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
rss_mb()
{
    return status_mb("VmRSS:");
}

double
peak_rss_mb()
{
    const double hwm = status_mb("VmHWM:");
    if (hwm >= 0.0)
        return hwm;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
reset_peak_rss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

Digest &
Digest::add(double value)
{
    char buffer[32];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer,
                                         value, std::chars_format::general,
                                         17);
    bytes(buffer, static_cast<std::size_t>(end - buffer));
    bytes(" ", 1);
    return *this;
}

Digest &
Digest::add(std::uint64_t value)
{
    char buffer[24];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    bytes(buffer, static_cast<std::size_t>(end - buffer));
    bytes(" ", 1);
    return *this;
}

Digest &
Digest::add(const std::string &text)
{
    bytes(text.data(), text.size());
    bytes("\n", 1);
    return *this;
}

void
Digest::bytes(const char *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash_ ^= static_cast<unsigned char>(data[i]);
        hash_ *= 1099511628211ull;
    }
}

std::string
Digest::hex() const
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
}

std::uint64_t
Spans::open(const char *layer, const char *name, std::uint64_t parent)
{
    if (!enabled_)
        return 0;
    Span span;
    span.parent = parent;
    span.trace = trace_;
    span.layer = layer;
    span.name = name;
    span.thread = thread_number();
    span.start = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Spans::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double end = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
}

std::vector<Span>
Spans::find(std::uint64_t trace, const std::string &layer,
            const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const Span &span : spans_) {
        if (span.trace == trace && span.layer == layer && span.name == name)
            out.push_back(span);
    }
    return out;
}

double
Spans::total(std::uint64_t trace, const std::string &layer,
             const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : find(trace, layer, name))
        sum += span.end - span.start;
    return sum;
}

std::map<std::string, double>
Spans::self_time(std::uint64_t trace) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &span : spans_) {
        if (span.trace == trace && span.parent != 0)
            children[span.parent].push_back(&span);
    }
    std::map<std::string, double> self;
    for (const Span &span : spans_) {
        if (span.trace != trace)
            continue;
        // Children may run on worker threads and overlap each other:
        // subtract the union of their intervals, clipped to the parent.
        std::vector<std::pair<double, double>> covered;
        const auto it = children.find(span.id);
        if (it != children.end()) {
            for (const Span *child : it->second) {
                covered.emplace_back(std::max(child->start, span.start),
                                     std::min(child->end, span.end));
            }
        }
        std::sort(covered.begin(), covered.end());
        double union_s = 0.0;
        double reach = span.start;
        for (const auto &[lo, hi] : covered) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                union_s += hi - from;
                reach = hi;
            }
        }
        self[span.layer] += (span.end - span.start) - union_s;
    }
    return self;
}

std::size_t
Spans::count(std::uint64_t trace) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [trace](const Span &s) { return s.trace == trace; }));
}

std::string
Spans::chrome_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    char buffer[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(
            buffer, sizeof buffer,
            "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
            "\"id\":%llu,\"parent\":%llu}}",
            i == 0 ? "" : ",", span.name.c_str(), span.layer.c_str(),
            static_cast<unsigned long long>(span.thread),
            (span.start - epoch) * 1e6, (span.end - span.start) * 1e6,
            static_cast<unsigned long long>(span.trace),
            static_cast<unsigned long long>(span.id),
            static_cast<unsigned long long>(span.parent));
        out << buffer;
    }
    out << "\n]}\n";
    return out.str();
}

} // namespace perfbench
