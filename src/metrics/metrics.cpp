#include "metrics/metrics.hpp"

#include "util/error.hpp"

namespace mts
{

MetricsRegistry::Metric &
MetricsRegistry::slot(const std::string &name, Kind kind)
{
    auto it = index.find(name);
    if (it != index.end()) {
        Metric &m = entries[it->second];
        MTS_REQUIRE(m.kind == kind,
                    "metric '" << name << "' re-registered with a "
                                          "different kind");
        return m;
    }
    index.emplace(name, entries.size());
    entries.emplace_back();
    Metric &m = entries.back();
    m.name = name;
    m.kind = kind;
    return m;
}

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    slot(name, Kind::Counter).count += delta;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    slot(name, Kind::Real).real = value;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return slot(name, Kind::Hist).hist;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        return 0;
    const Metric &m = entries[it->second];
    MTS_REQUIRE(m.kind == Kind::Counter,
                "metric '" << name << "' is not a counter");
    return m.count;
}

double
MetricsRegistry::real(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        return 0.0;
    const Metric &m = entries[it->second];
    MTS_REQUIRE(m.kind == Kind::Real,
                "metric '" << name << "' is not a real gauge");
    return m.real;
}

const Histogram *
MetricsRegistry::hist(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        return nullptr;
    const Metric &m = entries[it->second];
    MTS_REQUIRE(m.kind == Kind::Hist,
                "metric '" << name << "' is not a histogram");
    return &m.hist;
}

JsonValue
MetricsRegistry::toJson() const
{
    JsonValue root = JsonValue::object();
    for (const Metric &m : entries) {
        // Walk/create the nested scopes named by the dotted prefix.
        JsonValue *node = &root;
        std::size_t start = 0;
        while (true) {
            std::size_t dot = m.name.find('.', start);
            if (dot == std::string::npos)
                break;
            node = &(*node)[m.name.substr(start, dot - start)];
            start = dot + 1;
        }
        JsonValue &leaf = (*node)[m.name.substr(start)];
        switch (m.kind) {
          case Kind::Counter:
            leaf = JsonValue(m.count);
            break;
          case Kind::Real:
            leaf = JsonValue(m.real);
            break;
          case Kind::Hist: {
            JsonValue h = JsonValue::object();
            h["count"] = JsonValue(m.hist.count());
            h["mean"] = JsonValue(m.hist.mean());
            JsonValue buckets = JsonValue::object();
            for (const auto &[label, count] :
                 m.hist.populatedBucketCounts())
                buckets[label] = JsonValue(count);
            h["buckets"] = std::move(buckets);
            leaf = std::move(h);
            break;
          }
        }
    }
    return root;
}

} // namespace mts
