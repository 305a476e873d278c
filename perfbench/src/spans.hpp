/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span wraps one call the benchmark makes into a simulator module's
 * public function. It records a name, start, end, parent span and the
 * op it belongs to. Spans are appended to one in-memory log while
 * tracing is on and written out when the run ends; with tracing off a
 * Span costs one branch and reads no clock.
 */
#ifndef MTS_PERFBENCH_SPANS_HPP
#define MTS_PERFBENCH_SPANS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
double secondsSince(Clock::time_point t0);

/** CPU time the calling thread has used, in seconds. */
double threadCpuSeconds();

/** One recorded call. Times are nanoseconds since the log's origin. */
struct SpanRecord
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t id = 0;
    std::int32_t parent = -1;  ///< -1: a root span
    std::int32_t op = -1;      ///< -1: outside any op (set-up, fan-out)
};

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    double totalS = 0.0;  ///< sum of durations
    double selfS = 0.0;   ///< sum of durations minus child coverage
    std::uint64_t calls = 0;
};

/** The process-wide span log. */
class SpanLog
{
  public:
    /** Start recording (clears earlier spans) or stop. */
    void setEnabled(bool on);

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** A fresh op id; spans opened on this thread inherit it. */
    std::int32_t
    newOp()
    {
        return nextOp.fetch_add(1);
    }

    std::int32_t
    newId()
    {
        return nextId.fetch_add(1);
    }

    std::int64_t nowNs() const;
    void record(const SpanRecord &span);

    /** Totals per span name; self time subtracts the union of each
     *  span's children, clipped to the span. */
    std::map<std::string, SpanTotals> totals() const;

    /** Every span, as the "spans" array of the span file. */
    mts::JsonValue toJson() const;

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return spans.size();
    }

  private:
    std::atomic<bool> on{false};
    Clock::time_point origin = Clock::now();
    std::atomic<std::int32_t> nextId{0};
    std::atomic<std::int32_t> nextOp{0};
    mutable std::mutex mutex;  ///< guards spans
    std::vector<SpanRecord> spans;
};

SpanLog &spanLog();

/**
 * RAII span. Spans opened while it is alive on the same thread become
 * its children. A task running on a pool worker passes its parent and
 * op explicitly, since the thread-local nesting does not cross threads.
 */
class Span
{
  public:
    static constexpr std::int32_t kInherit = -2;

    explicit Span(const char *name, std::int32_t op = kInherit,
                  std::int32_t parent = kInherit);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Id of this span (-1 while tracing is off). */
    std::int32_t
    id() const
    {
        return id_;
    }

  private:
    const char *name_;
    std::int32_t id_ = -1;
    std::int32_t parent_ = -1;
    std::int32_t op_ = -1;
    std::int32_t savedParent_ = -1;
    std::int32_t savedOp_ = -1;
    std::int64_t start_ = 0;
};

} // namespace perfbench

#endif // MTS_PERFBENCH_SPANS_HPP
