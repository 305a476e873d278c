/**
 * @file
 * Execution tracing hooks.
 *
 * A Tracer registered in MachineConfig receives instruction, context-
 * switch and shared-memory events as the simulation runs. The hooks are
 * virtual calls behind a null check, so tracing costs nothing when off.
 */
#ifndef MTS_TRACE_TRACER_HPP
#define MTS_TRACE_TRACER_HPP

#include <cstdint>

#include "isa/instruction.hpp"
#include "mem/event_queue.hpp"

namespace mts
{

class MetricsRegistry;

/** Why a processor switched threads. */
enum class SwitchReason
{
    Load,       ///< switch-on-load style (the access itself)
    Use,        ///< use of an in-flight value
    Explicit,   ///< cswitch taken
    SliceLimit, ///< run-length limit expired
    EveryCycle, ///< switch-every-cycle rotation
    Halt        ///< thread terminated
};

/** Printable name of a switch reason. */
const char *switchReasonName(SwitchReason reason);

/**
 * Virtual-threading scheduler actions (software threads over hardware
 * contexts; only emitted when MachineConfig::swThreadsPerProc > 0).
 */
enum class SchedEventKind
{
    Preempt,  ///< quantum expired with a ready waiter; thread evicted
    Save,     ///< preempted context saved (detail = cycles charged)
    Restore,  ///< incoming context restored (detail = cycles charged)
    Requeue,  ///< thread placed on the run queue (detail = queue depth)
    Install   ///< queued thread installed (detail = its wake cycle)
};

/** Printable name of a scheduler event kind. */
const char *schedEventName(SchedEventKind kind);

/** What a shared data access does, as seen by the race detector. */
enum class SharedDataKind : std::uint8_t
{
    Read,      ///< lds / flds / ldsd / fldsd
    SpinRead,  ///< lds.spin — the acquire side of a sync idiom
    Write,     ///< sts / fsts
    Rmw        ///< faa — atomic read-modify-write (release + acquire)
};

/** Receiver of simulation events (all hooks optional). */
class Tracer
{
  public:
    virtual ~Tracer() = default;

    /** An instruction issued at @p cycle. */
    virtual void
    onInstruction(Cycle cycle, std::uint16_t proc, std::uint32_t thread,
                  std::int32_t pc, const Instruction &inst)
    {
        (void)cycle;
        (void)proc;
        (void)thread;
        (void)pc;
        (void)inst;
    }

    /**
     * A context switch: @p from yields at @p cycle (resuming no earlier
     * than @p wakeAt) and @p to becomes current.
     */
    virtual void
    onSwitch(Cycle cycle, std::uint16_t proc, std::uint32_t from,
             std::uint32_t to, Cycle wakeAt, SwitchReason reason)
    {
        (void)cycle;
        (void)proc;
        (void)from;
        (void)to;
        (void)wakeAt;
        (void)reason;
    }

    /**
     * A virtual-threading scheduler action on @p proc at @p cycle.
     * @p gid is the machine-wide id of the software thread acted on;
     * @p detail depends on the kind (see SchedEventKind).
     */
    virtual void
    onSchedEvent(Cycle cycle, std::uint16_t proc, SchedEventKind kind,
                 std::uint32_t gid, Cycle detail)
    {
        (void)cycle;
        (void)proc;
        (void)kind;
        (void)gid;
        (void)detail;
    }

    /** A shared access issued into the network. */
    virtual void
    onSharedAccess(Cycle cycle, std::uint16_t proc, std::uint32_t thread,
                   const MemOp &op)
    {
        (void)cycle;
        (void)proc;
        (void)thread;
        (void)op;
    }

    /**
     * A shared *data* access at the moment its effect is applied to the
     * memory module — i.e. in the memory system's true serialization
     * order, the one the returned fetch-add values witness. Calls for
     * the same processor arrive in that processor's issue (program)
     * order; calls across processors arrive in global arrival order.
     * @p cycle is the arrival time, @p gid the machine-wide thread id;
     * @p words is 1, or 2 for the paired ldsd/fldsd. Accesses satisfied
     * without a memory message (cache or group-estimate hits) are not
     * reported, so happens-before observers should run on cache-less
     * configurations.
     */
    virtual void
    onSharedData(Cycle cycle, std::uint16_t proc, std::uint32_t gid,
                 std::int32_t pc, Addr addr, SharedDataKind kind,
                 int words)
    {
        (void)cycle;
        (void)proc;
        (void)gid;
        (void)pc;
        (void)addr;
        (void)kind;
        (void)words;
    }

    /**
     * The run completed at @p cycle and its metrics were built:
     * @p metrics is the run's RunResult::metrics, the machine-wide
     * totals its mts.run/1 record prints (see metrics/run_record.hpp).
     * Called once, after the event loop drains and before
     * Machine::run returns.
     */
    virtual void
    onMetricsSnapshot(Cycle cycle, const MetricsRegistry &metrics)
    {
        (void)cycle;
        (void)metrics;
    }
};

} // namespace mts

#endif // MTS_TRACE_TRACER_HPP
