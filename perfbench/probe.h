/**
 * @file
 * Host-side probes of the repo benchmark: clocks, CPU time, resident
 * memory, the FNV-1a digest of simulated outputs, and the in-memory
 * span recorder of the traced run.  Nothing here reaches into the
 * simulator; the benchmark only times calls into its public functions.
 */
#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on the steady clock since an arbitrary epoch. */
double now_s();

/** User + system CPU seconds of the whole process, all threads. */
double cpu_s();

/** Current resident set size in MiB. */
double rss_mb();

/** Peak resident set size in MiB since the last reset_peak_rss(). */
double peak_rss_mb();

/** Return freed heap to the OS and restart the peak-RSS watermark at
 *  the current RSS, so each iteration's peak is its own (as for a fresh
 *  process).  False when the kernel refuses the reset; peak_rss_mb()
 *  is then the process-lifetime peak. */
bool reset_peak_rss();

/**
 * FNV-1a (64-bit) over a canonical text image of simulated outputs.
 * Doubles are written at %.17g, which round-trips every value exactly,
 * so two digests agree iff every hashed output is bit-identical.
 */
class Digest
{
  public:
    Digest &add(double value);
    Digest &add(std::uint64_t value);
    Digest &add(const std::string &text);
    std::string hex() const;

  private:
    void bytes(const char *data, std::size_t size);
    std::uint64_t hash_ = 14695981039346656037ull;
};

/** One recorded interval around a call into the program. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint64_t trace = 0;  //!< the iteration the span belongs to
    std::string layer;        //!< repo module the call enters
    std::string name;         //!< public function called
    double start = 0.0;
    double end = 0.0;
    std::uint64_t thread = 0;
};

/**
 * In-memory span store of the traced run.  Disabled, open() returns 0
 * and close() ignores it, so the plain run records nothing.  Safe to
 * use from the sweep's worker threads.
 */
class Spans
{
  public:
    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void set_trace(std::uint64_t trace) { trace_ = trace; }

    std::uint64_t open(const char *layer, const char *name,
                       std::uint64_t parent);
    void close(std::uint64_t id);

    /** Spans of @p trace with this layer and name. */
    std::vector<Span> find(std::uint64_t trace, const std::string &layer,
                           const std::string &name) const;
    /** Summed duration of find(). */
    double total(std::uint64_t trace, const std::string &layer,
                 const std::string &name) const;
    /** Per-layer self time of @p trace: each span's duration minus the
     *  union of its children's intervals, summed by layer. */
    std::map<std::string, double> self_time(std::uint64_t trace) const;
    /** Spans recorded for @p trace. */
    std::size_t count(std::uint64_t trace) const;

    /** All spans as Chrome trace-event JSON (open in Perfetto). */
    std::string chrome_json() const;

  private:
    bool enabled_ = false;
    std::uint64_t trace_ = 0;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the store is disabled. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const char *layer, const char *name,
              std::uint64_t parent = 0)
        : spans_(spans), id_(spans.open(layer, name, parent))
    {}
    ~SpanScope() { spans_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Spans &spans_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
