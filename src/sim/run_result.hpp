/**
 * @file
 * Aggregated results of one simulation run.
 */
#ifndef MTS_SIM_RUN_RESULT_HPP
#define MTS_SIM_RUN_RESULT_HPP

#include "cache/cache.hpp"
#include "cpu/cpu_stats.hpp"
#include "cpu/fuse_stats.hpp"
#include "cpu/sched_stats.hpp"
#include "mem/network.hpp"
#include "metrics/metrics.hpp"
#include "sim/state_digest.hpp"

namespace mts
{

/** Everything measured during Machine::run(). */
struct RunResult
{
    Cycle cycles = 0;           ///< completion time (last thread's halt)
    int numProcs = 0;
    int threadsPerProc = 0;     ///< hardware contexts per processor
    int swThreadsPerProc = 0;   ///< software threads (0 = 1:1, layer off)

    /**
     * The run's metrics, built once from the totals below
     * (runMetrics in metrics/run_record.hpp): exactly what its
     * mts.run/1 record prints. Per-processor counts are not published;
     * read them from Machine::processor(p) after the run.
     */
    MetricsRegistry metrics;

    CpuStats cpu;               ///< merged over all processors
    NetworkStats net;
    CacheStats cache;           ///< merged over all processor caches

    /**
     * Per-link contention counters of a topology-aware interconnect
     * backend (mesh); hasLinkStats is false on the constant-latency
     * pipe, which has no links.
     */
    NetLinkStats link;
    bool hasLinkStats = false;

    /**
     * Virtual-threading scheduler counters, merged over all
     * processors; hasSchedStats is false when the layer is off (1:1),
     * in which case nothing is published under "sched." either.
     */
    SchedStats sched;
    bool hasSchedStats = false;

    /**
     * Fused superinstruction-tier counters, merged over all
     * processors; hasFuseStats is false when the tier is off (fusion
     * disabled, tracer attached, or switch-every-cycle), in which case
     * nothing is published under "fuse." either.
     */
    FuseStats fuse;
    bool hasFuseStats = false;

    /**
     * Canonical final-state digest (shared static segment + per-thread
     * termination registers; see sim/state_digest.hpp). Identical across
     * every switch model, thread count and cache geometry for a given
     * program — the dynamic oracle mts_verify checks against.
     */
    StateDigest digest;

    std::uint64_t estimateHits = 0;    ///< §5.2 per-thread estimator
    std::uint64_t estimateMisses = 0;

    /** Fraction of processor cycles spent issuing instructions. */
    double
    utilization() const
    {
        if (!cycles || !numProcs)
            return 0.0;
        return static_cast<double>(cpu.busyCycles) /
               (static_cast<double>(cycles) *
                static_cast<double>(numProcs));
    }

    /** Dynamic grouping factor: shared loads per taken context switch. */
    double
    groupingFactor() const
    {
        return cpu.switchesTaken
                   ? static_cast<double>(cpu.sharedLoads) /
                         static_cast<double>(cpu.switchesTaken)
                   : static_cast<double>(cpu.sharedLoads);
    }

    /** §5.2 estimator hit rate over eligible shared loads. */
    double
    estimateHitRate() const
    {
        std::uint64_t total = estimateHits + estimateMisses;
        return total ? static_cast<double>(estimateHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Table 7 metric: network bits per processor per cycle. */
    double
    bitsPerCycle() const
    {
        return net.bitsPerCycle(cycles, numProcs);
    }
};

} // namespace mts

#endif // MTS_SIM_RUN_RESULT_HPP
