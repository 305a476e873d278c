/**
 * @file
 * RunRecord: the single structured product of one simulation run.
 *
 * Where RunResult is the in-memory working set (the machine-wide stat
 * totals plus the run's metrics registry), a RunRecord is the named,
 * self-describing form everything machine-readable flows through: the
 * machine configuration that produced the run, a copy of the run's
 * registry (aggregate scopes and derived rates), and — when produced by
 * ExperimentRunner — the efficiency context against the reference run.
 * `mtsim --json`, the bench Reporter and the sweep aggregation all emit
 * RunRecords.
 */
#ifndef MTS_METRICS_RUN_RECORD_HPP
#define MTS_METRICS_RUN_RECORD_HPP

#include <string>

#include "metrics/metrics.hpp"
#include "opt/grouping_pass.hpp"
#include "util/json.hpp"

namespace mts
{

class Directory;
struct MachineConfig;
struct RunResult;

/** Structured record of one run (see file comment). */
struct RunRecord
{
    /** Schema tag emitted into every JSON record. */
    static constexpr const char *kSchema = "mts.run/1";

    std::string app;    ///< application name ("" for raw programs)
    std::string model;  ///< switch-model name
    int numProcs = 0;
    int threadsPerProc = 0;     ///< hardware contexts per processor
    std::uint64_t latency = 0;  ///< network round-trip cycles
    std::uint64_t cycles = 0;   ///< completion time

    /// @name Virtual threading (emitted only when the layer is on).
    /// @{
    int swThreadsPerProc = 0;        ///< software threads (0 = off)
    std::uint64_t quantumCycles = 0; ///< timer-interrupt quantum
    std::uint64_t ctxSwitchCost = 0; ///< save (= restore) cost, cycles
    /// @}

    /// @name Interconnect + directory configuration.
    /// @{
    std::string network;        ///< backend name ("constant-latency", …)
    int meshX = 0;              ///< resolved mesh dims (mesh only)
    int meshY = 0;
    std::uint64_t hopCycles = 0;   ///< mesh only
    std::uint64_t linkBits = 0;    ///< mesh only
    std::string directoryMode;     ///< "full-map" | "limited"
    int dirPointers = 0;           ///< limited mode only
    /// @}

    /// @name Final-state digest (see sim/state_digest.hpp).
    /// @{
    std::uint64_t digestShared = 0;
    std::uint64_t digestRegs = 0;
    /// @}

    /** The run's registry (RunResult::metrics): aggregate scopes and
     *  derived rates, no per-processor scope. */
    MetricsRegistry metrics;

    /// @name Efficiency context (ExperimentRunner-produced records).
    /// @{
    bool hasEfficiency = false;
    double efficiency = 0.0;
    double speedup = 0.0;
    std::uint64_t referenceCycles = 0;
    /// @}

    JsonValue toJson() const;
};

/**
 * The metrics of one finished run, built once from the machine-wide
 * totals in @p result: the cpu, net and (cached models) cache scopes,
 * plus link, sched, fuse, estimate and a limited @p directory's
 * counters where @p config turns them on, and the derived rates.
 * Machine::run stores it in RunResult::metrics.
 */
MetricsRegistry runMetrics(const RunResult &result,
                           const MachineConfig &config,
                           const Directory &directory);

/** Build the record of @p result under @p config (the config the run
 *  was made with); its metrics are a copy of result.metrics. */
RunRecord makeRunRecord(const RunResult &result,
                        const MachineConfig &config,
                        std::string appName = {});

/** Structured record of one grouping-pass run: the static statistics
 *  `mtopt` prints, in the same machine-readable form as mts.run/1. */
struct OptRecord
{
    /** Schema tag emitted into every JSON record. */
    static constexpr const char *kSchema = "mts.opt/1";

    std::string program;  ///< app name or assembly file
    GroupingStats stats;

    JsonValue toJson() const;
};

} // namespace mts

#endif // MTS_METRICS_RUN_RECORD_HPP
