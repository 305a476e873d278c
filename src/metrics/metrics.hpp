/**
 * @file
 * MetricsRegistry: named, typed simulation metrics.
 *
 * The stat structs (CpuStats, CacheStats, ...) collect and aggregate a
 * run's counters; Machine::run then builds one registry from the
 * machine-wide totals (runMetrics in metrics/run_record.hpp), holding
 * exactly what an mts.run/1 record prints under dotted scopes
 * ("cpu.instructions", "cache.hits", "net.messages").
 *
 * Metrics are typed: counters, real-valued gauges, and power-of-two
 * histograms (run-length distributions). Insertion order is preserved
 * everywhere so JSON emission is deterministic.
 */
#ifndef MTS_METRICS_METRICS_HPP
#define MTS_METRICS_METRICS_HPP

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "util/histogram.hpp"
#include "util/json.hpp"

namespace mts
{

/** Insertion-ordered registry of typed, dot-scoped metrics. */
class MetricsRegistry
{
  public:
    enum class Kind
    {
        Counter,  ///< monotonic sum
        Real,     ///< real-valued gauge (derived rates)
        Hist      ///< power-of-two histogram
    };

    /** One named metric. */
    struct Metric
    {
        std::string name;
        Kind kind = Kind::Counter;
        std::uint64_t count = 0;  ///< Counter payload
        double real = 0.0;        ///< Real payload
        Histogram hist;           ///< Hist payload
    };

    /** Add @p delta to counter @p name (created on first use). */
    void add(const std::string &name, std::uint64_t delta);

    /** Set real gauge @p name. */
    void set(const std::string &name, double value);

    /** Histogram @p name (created on first use; reference is stable). */
    Histogram &histogram(const std::string &name);

    /** Counter value; 0 when absent. */
    std::uint64_t counter(const std::string &name) const;

    /** Real gauge value; 0.0 when absent. */
    double real(const std::string &name) const;

    /** Histogram lookup; nullptr when absent. */
    const Histogram *hist(const std::string &name) const;

    bool
    contains(const std::string &name) const
    {
        return index.find(name) != index.end();
    }

    std::size_t
    size() const
    {
        return entries.size();
    }

    bool
    empty() const
    {
        return entries.empty();
    }

    /** All metrics in insertion order. */
    const std::deque<Metric> &
    metrics() const
    {
        return entries;
    }

    /**
     * Nested JSON object: dotted names become nested scopes, histograms
     * become {count, mean, buckets} objects.
     */
    JsonValue toJson() const;

  private:
    Metric &slot(const std::string &name, Kind kind);

    std::deque<Metric> entries;  ///< deque: stable references
    std::unordered_map<std::string, std::size_t> index;
};

} // namespace mts

#endif // MTS_METRICS_METRICS_HPP
