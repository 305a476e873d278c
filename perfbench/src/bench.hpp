/**
 * @file
 * What the three workloads share: the op wrapper that times each op and
 * counts its failure, the exact simulated counts of every run the
 * benchmark can see, and the spanned calls into the simulator modules.
 *
 * An op is one unit of closed-loop work: a worker takes the next op when
 * it finishes the last one. Every op catches its own failure (a
 * FatalError, a failed self-check, a divergence or any other exception)
 * and counts it; nothing is skipped and nothing aborts the run.
 */
#ifndef MTS_PERFBENCH_BENCH_HPP
#define MTS_PERFBENCH_BENCH_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/mtsim.hpp"
#include "spans.hpp"
#include "util/json.hpp"

namespace perfbench
{

/** An op's output failed the benchmark's check of it. */
struct CheckFailed : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Exact simulated counts of the runs the benchmark can see. Ladder rungs
 * (inside threadsForEfficiency) and the differential matrix (inside
 * runDifferential) are hidden, so they are not in here. Every field must
 * repeat bit-for-bit across passes and runs.
 */
struct ExactCounts
{
    std::uint64_t runs = 0;
    std::uint64_t cycles = 0;      ///< sum of completion cycles
    std::uint64_t procCycles = 0;  ///< sum of cycles x processors
    std::uint64_t instructions = 0;
    std::uint64_t switchesTaken = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t messages = 0;
    std::uint64_t routedMsgs = 0;
    std::uint64_t hops = 0;
    std::uint64_t linkWaitCycles = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t dirOverflows = 0;
    std::uint64_t fusedInstructions = 0;
    std::uint64_t fuseBailouts = 0;
    std::int64_t ladderAnswers = 0;  ///< sum of threadsForEfficiency results
    std::uint64_t machineRuns = 0;   ///< Machine runs inside runDifferential
    std::uint64_t divergences = 0;
    std::uint64_t failedOps = 0;

    void add(const mts::RunResult &r);

    bool operator==(const ExactCounts &) const = default;

    mts::JsonValue toJson() const;
};

/** Everything one timed pass records. Thread-safe. */
class Pass
{
  public:
    /**
     * Run @p body as one op named @p name: time it, open its span, and
     * catch and count any failure. @p parent links a task on a pool
     * worker to the fan-out span that submitted it.
     */
    template <typename Fn>
    void
    op(const char *name, Fn &&body, std::int32_t parent = Span::kInherit)
    {
        Clock::time_point t0 = Clock::now();
        double cpu0 = threadCpuSeconds();
        std::string failure;
        {
            Span span(name, spanLog().newOp(), parent);
            try {
                body();
            } catch (const std::exception &e) {
                failure = e.what();
                if (failure.empty())
                    failure = "exception without a message";
            } catch (...) {
                failure = "non-standard exception";
            }
        }
        finishOp(name, secondsSince(t0), threadCpuSeconds() - cpu0, failure);
    }

    /** Fold one visible run's RunResult into the exact counts. */
    void addRun(const mts::RunResult &r);

    /** Update the exact counts under the pass's lock. */
    template <typename Fn>
    void
    count(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mutex);
        fn(counts);
    }

    /** Add one fanned-out task's submit-to-start wait. */
    void addTaskWait(double waitS);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> opSeconds;     ///< wall time of each op
    std::vector<double> opCpuSeconds;  ///< its thread's CPU time
    /** Distinct failure messages with their counts. */
    std::map<std::string, int> failures;
    ExactCounts counts;
    double wallS = 0.0;
    double taskWaitS = 0.0;  ///< sum over tasks of submit-to-start time

  private:
    void finishOp(const char *name, double seconds, double cpuSeconds,
                  const std::string &failure);

    std::mutex mutex;
};

/// @name Spanned calls into the simulator's public functions.
/// Each wraps exactly one call in a span named after its module.
/// @{
const mts::PreparedApp &prepare(mts::ExperimentRunner &runner,
                                const mts::App &app);
mts::ExperimentRun run(Pass &pass, mts::ExperimentRunner &runner,
                       const mts::App &app, const mts::MachineConfig &cfg);
int ladder(Pass &pass, mts::ExperimentRunner &runner, const mts::App &app,
           const mts::MachineConfig &base, double target, int maxThreads);
mts::Cycle reference(mts::ExperimentRunner &runner, const mts::App &app);
mts::Program assemble(const std::string &source,
                      const mts::AsmOptions &options = {});
mts::Program group(const mts::Program &program);
mts::DecodedProgram decode(const mts::Program &program);

template <typename... Args>
std::unique_ptr<mts::Machine>
construct(Args &&...args)
{
    Span span("sim.construct");
    return std::make_unique<mts::Machine>(std::forward<Args>(args)...);
}

void initApp(const mts::App &app, mts::Machine &machine);

/** Machine::run, counted into @p pass. */
mts::RunResult simulate(Pass &pass, mts::Machine &machine);

/** App::check; throws CheckFailed when the self-check fails. */
void checkApp(const mts::App &app, mts::Machine &machine);
/// @}

/** One benchmark workload: set-up, then timed passes. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Prepare one pass's inputs; timed as setup_s. */
    virtual void setup() = 0;

    /** Free what the last setup() built, outside the timed set-up. */
    virtual void release() = 0;

    /** The timed phase; consumes what the last setup() prepared. */
    virtual void run(Pass &pass) = 0;

    /**
     * Untimed work after the passes. fuzz replays calls hidden inside
     * runDifferential here, so that the traced run can time them.
     */
    virtual void
    replay()
    {
    }

    /** Simulated instructions of one pass, the numerator of
     *  instr_per_s. */
    virtual double
    instructions(const Pass &pass) const
    {
        return static_cast<double>(pass.counts.instructions);
    }

    /** Workload-only per-layer metrics of the traced pass, by name. */
    virtual std::map<std::string, double>
    layerMetrics(const Pass &traced) const
    {
        (void)traced;
        return {};
    }

    /** Exact counts outside the passes (fuzz's replay), by name. */
    virtual std::map<std::string, std::uint64_t>
    exactExtras() const
    {
        return {};
    }
};

std::unique_ptr<Workload> makeRepro();
std::unique_ptr<Workload> makePscale();
std::unique_ptr<Workload> makeFuzz(std::uint64_t seed);

} // namespace perfbench

#endif // MTS_PERFBENCH_BENCH_HPP
