#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench
{

namespace
{

// The innermost open span and op of this thread: the defaults a new
// span inherits.
thread_local std::int32_t tlParent = -1;
thread_local std::int32_t tlOp = -1;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

void
SpanLog::setEnabled(bool enable)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (enable)
        spans.clear();
    on = enable;
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

void
SpanLog::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back(span);
}

std::map<std::string, SpanTotals>
SpanLog::totals() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unordered_map<std::int32_t, std::vector<std::pair<std::int64_t,
                                                           std::int64_t>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        if (auto it = children.find(s.id); it != children.end()) {
            // Children on pool workers may overlap each other: subtract
            // the union of their intervals, clipped to this span.
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = s.start, hi = s.start;
            for (auto [b, e] : iv) {
                b = std::clamp(b, s.start, s.end);
                e = std::clamp(e, s.start, s.end);
                if (b > hi) {
                    covered += hi - lo;
                    lo = b;
                    hi = e;
                } else {
                    hi = std::max(hi, e);
                }
            }
            covered += hi - lo;
        }
        SpanTotals &t = out[s.name];
        double dur = static_cast<double>(s.end - s.start) * 1e-9;
        t.totalS += dur;
        t.selfS += dur - static_cast<double>(covered) * 1e-9;
        ++t.calls;
    }
    return out;
}

mts::JsonValue
SpanLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex);
    mts::JsonValue arr = mts::JsonValue::array();
    for (const SpanRecord &s : spans) {
        mts::JsonValue j = mts::JsonValue::object();
        j["name"] = mts::JsonValue(s.name);
        j["start_ns"] = mts::JsonValue(static_cast<std::int64_t>(s.start));
        j["end_ns"] = mts::JsonValue(static_cast<std::int64_t>(s.end));
        j["id"] = mts::JsonValue(static_cast<int>(s.id));
        j["parent"] = mts::JsonValue(static_cast<int>(s.parent));
        j["op"] = mts::JsonValue(static_cast<int>(s.op));
        arr.push(j);
    }
    return arr;
}

Span::Span(const char *name, std::int32_t op, std::int32_t parent)
    : name_(name)
{
    SpanLog &log = spanLog();
    if (!log.enabled())
        return;
    id_ = log.newId();
    parent_ = parent == kInherit ? tlParent : parent;
    op_ = op == kInherit ? tlOp : op;
    savedParent_ = tlParent;
    savedOp_ = tlOp;
    tlParent = id_;
    tlOp = op_;
    start_ = log.nowNs();
}

Span::~Span()
{
    if (id_ < 0)
        return;
    SpanLog &log = spanLog();
    log.record({name_, start_, log.nowNs(), id_, parent_, op_});
    tlParent = savedParent_;
    tlOp = savedOp_;
}

} // namespace perfbench
