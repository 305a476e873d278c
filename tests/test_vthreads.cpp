/**
 * @file
 * Virtual-threading layer tests: the run queue and its round-robin
 * policy in isolation, the scheduler's accounting identities (quantum
 * preemption, block-swap requeueing, halt installs), the N == K
 * equivalence theorem (with as many software threads as hardware
 * contexts and zero context-switch cost, the layer must be
 * cycle-identical to the 1:1 machine on every switch model), and a
 * many-processor oversubscribed run driven to a verified result.
 */
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "asm/assembler.hpp"
#include "opt/grouping_pass.hpp"
#include "sim/machine.hpp"
#include "sim/run_queue.hpp"
#include "trace/tracer.hpp"
#include "verify/fuzz.hpp"

using namespace mts;

// ---------------------------------------------------------------------------
// Run queue + policy in isolation.
// ---------------------------------------------------------------------------

TEST(RunQueue, RoundRobinIsFifoWhenAllReady)
{
    RoundRobinPolicy policy;
    RunQueue q(policy);
    q.enqueue(3, 0);
    q.enqueue(1, 0);
    q.enqueue(2, 0);
    ASSERT_EQ(q.size(), 3u);

    // All ready: strict insertion order, regardless of thread ids.
    EXPECT_EQ(q.take(q.pick(10)).thread, 3);
    EXPECT_EQ(q.take(q.pick(10)).thread, 1);
    EXPECT_EQ(q.take(q.pick(10)).thread, 2);
    EXPECT_TRUE(q.empty());
}

TEST(RunQueue, RoundRobinPrefersOldestReadyThenEarliestWakeup)
{
    RoundRobinPolicy policy;
    RunQueue q(policy);
    q.enqueue(0, 100);
    q.enqueue(1, 5);
    q.enqueue(2, 50);

    // Only thread 1 is ready at cycle 10.
    EXPECT_EQ(q.entries()[q.pick(10)].thread, 1);
    // Both 1 and 2 are ready at cycle 60; 1 is older.
    EXPECT_EQ(q.entries()[q.pick(60)].thread, 1);
    // Nobody ready at cycle 0: earliest wakeup (thread 1) wins.
    EXPECT_EQ(q.entries()[q.pick(0)].thread, 1);
    EXPECT_EQ(q.minReadyAt(), 5u);

    // Wakeup ties break toward the older entry.
    RunQueue tie(policy);
    tie.enqueue(7, 40);
    tie.enqueue(8, 40);
    EXPECT_EQ(tie.entries()[tie.pick(0)].thread, 7);
}

// ---------------------------------------------------------------------------
// Scheduler accounting on real machines.
// ---------------------------------------------------------------------------

namespace
{

/** Records every scheduler event the processor emits. */
class SchedEventLog : public Tracer
{
  public:
    struct Event
    {
        Cycle cycle;
        SchedEventKind kind;
        std::uint32_t gid;
        Cycle detail;
    };
    std::vector<Event> events;

    void
    onSchedEvent(Cycle cycle, std::uint16_t, SchedEventKind kind,
                 std::uint32_t gid, Cycle detail) override
    {
        events.push_back({cycle, kind, gid, detail});
    }

    std::vector<std::uint32_t>
    gids(SchedEventKind kind) const
    {
        std::vector<std::uint32_t> out;
        for (const Event &e : events)
            if (e.kind == kind)
                out.push_back(e.gid);
        return out;
    }
};

/** Two software threads of pure local compute on one context. */
const char *kComputeSrc = ".entry main\n"
                          ".shared out, 8\n"
                          "main:\n"
                          "    li t0, 0\n"
                          "    li t1, 600\n"
                          "Lloop:\n"
                          "    add t0, t0, 1\n"
                          "    bne t0, t1, Lloop\n"
                          "    la t2, out\n"
                          "    add t2, t2, a0\n"
                          "    sts t0, 0(t2)\n"
                          "    mv v0, t0\n"
                          "    halt\n";

MachineConfig
vtConfig(int procs, int contexts, int swThreads, Cycle quantum,
         Cycle ctxCost)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.threadsPerProc = contexts;
    cfg.swThreadsPerProc = swThreads;
    cfg.quantumCycles = quantum;
    cfg.ctxSwitchCost = ctxCost;
    cfg.model = SwitchModel::SwitchOnLoad;
    cfg.network.roundTrip = 200;
    cfg.maxCycles = 50'000'000;
    return cfg;
}

} // namespace

TEST(VThreads, QuantumPreemptionPaysSaveAndRestoreExactly)
{
    // Two compute-bound threads share one context: only the timer can
    // multiplex them, and every preemption must pay the save and the
    // restore half of the context-switch cost — nothing else may.
    Program prog = assemble(kComputeSrc);
    Machine machine(prog, vtConfig(1, 1, 2, 50, 4));
    RunResult r = machine.run();

    ASSERT_TRUE(r.hasSchedStats);
    EXPECT_GT(r.sched.preemptions, 0u);
    EXPECT_EQ(r.sched.saveCycles, 4 * r.sched.preemptions);
    EXPECT_EQ(r.sched.restoreCycles, 4 * r.sched.preemptions);
    // Pure compute never blocks on memory, so the timer is the only
    // switch source; both halts find the queue in its terminal state.
    EXPECT_EQ(r.sched.blockSwitches, 0u);
    EXPECT_EQ(r.sched.haltInstalls, 1u);
    EXPECT_EQ(r.sched.requeues, r.sched.preemptions);

    // Both threads ran to completion on the one context.
    EXPECT_EQ(machine.sharedMem().readInt(prog.sharedAddr("out")), 600);
    EXPECT_EQ(machine.sharedMem().readInt(prog.sharedAddr("out") + 1),
              600);

    // Cycle accounting still closes with the scheduler in the loop.
    const CpuStats &c = machine.processor(0).stats;
    EXPECT_EQ(c.busyCycles + c.stallCycles + c.idleCycles, c.finishTime);
    EXPECT_EQ(c.runLengths.count() + c.zeroRuns,
              c.switchesTaken + r.sched.preemptions + 2);
}

TEST(VThreads, TimerInstallsFollowFifoOrder)
{
    // Three compute threads on one context, zero cost: the round-robin
    // installs must cycle t1, t2, t0, t1, t2, t0, ... (threads 1 and 2
    // start queued, thread 0 starts installed).
    Program prog = assemble(kComputeSrc);
    SchedEventLog log;
    MachineConfig cfg = vtConfig(1, 1, 3, 50, 0);
    cfg.tracer = &log;
    Machine machine(prog, cfg);
    machine.run();

    std::vector<std::uint32_t> installs =
        log.gids(SchedEventKind::Install);
    ASSERT_GE(installs.size(), 6u);
    const std::uint32_t want[6] = {1, 2, 0, 1, 2, 0};
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(installs[static_cast<std::size_t>(i)], want[i])
            << "install #" << i;

    // Zero cost: save/restore events exist but carry no cycles.
    for (const SchedEventLog::Event &e : log.events) {
        if (e.kind == SchedEventKind::Save ||
            e.kind == SchedEventKind::Restore) {
            EXPECT_EQ(e.detail, 0u);
        }
    }
}

TEST(VThreads, BlockedThreadsRequeueAndWake)
{
    // Threads that block on remote loads swap out for free (the save
    // hides under the memory latency): every scheduler departure is
    // either a block swap or a preemption, and each requeues exactly
    // one thread. Halts drain the queue exactly N - K times.
    const char *src = ".entry main\n"
                      ".shared data, 16\n"
                      ".shared out, 4\n"
                      "main:\n"
                      "    li t0, 0\n"
                      "    li t1, 12\n"
                      "    li t3, 0\n"
                      "Lloop:\n"
                      "    la t2, data\n"
                      "    add t2, t2, t0\n"
                      "    lds t4, 0(t2)\n"
                      "    add t3, t3, t4\n"
                      "    add t0, t0, 1\n"
                      "    bne t0, t1, Lloop\n"
                      "    la t2, out\n"
                      "    add t2, t2, a0\n"
                      "    sts t3, 0(t2)\n"
                      "    mv v0, t3\n"
                      "    halt\n";
    Program prog = assemble(src);
    Machine machine(prog, vtConfig(1, 2, 4, 500, 0));
    RunResult r = machine.run();

    ASSERT_TRUE(r.hasSchedStats);
    EXPECT_GT(r.sched.blockSwitches, 0u);
    EXPECT_EQ(r.sched.requeues,
              r.sched.blockSwitches + r.sched.preemptions);
    EXPECT_EQ(r.sched.haltInstalls, 2u);
    EXPECT_EQ(r.cycles, machine.processor(0).stats.finishTime);
}

// ---------------------------------------------------------------------------
// N == K equivalence: with as many software threads as contexts the
// queue is empty from construction to halt, so every scheduler hook is
// a dead branch and the machine must be cycle-identical to 1:1 — on
// every switch model, for both program variants, at zero switch cost.
// ---------------------------------------------------------------------------

TEST(VThreads, NEqualsKIsCycleIdenticalOnAllModels)
{
    constexpr std::uint64_t kFirstSeed = 901;
    constexpr int kSeeds = 4;

    for (int s = 0; s < kSeeds; ++s) {
        GenOptions gen;
        gen.seed = kFirstSeed + s;
        GeneratedProgram gp = generateProgram(gen);
        std::string src =
            gp.usesRuntime ? runtimePrelude() + gp.source : gp.source;
        Program raw = assemble(src);
        Program grouped = applyGroupingPass(raw);

        for (SwitchModel model : kAllModels) {
            const Program &prog =
                modelNeedsSwitchInstr(model) ? grouped : raw;
            MachineConfig cfg;
            cfg.numProcs = 2;
            cfg.threadsPerProc = gp.threads / 2;
            cfg.model = model;
            cfg.network = NetworkConfig{200};
            std::string label =
                "seed " + std::to_string(gp.seed) + " " +
                std::string(switchModelName(model));

            Machine plain(prog, cfg);
            plain.setPrintHandler([](const std::string &) {});
            RunResult pr = plain.run();

            MachineConfig vtCfg = cfg;
            vtCfg.swThreadsPerProc = cfg.threadsPerProc;
            vtCfg.quantumCycles = 100;
            vtCfg.ctxSwitchCost = 0;
            Machine vt(prog, vtCfg);
            vt.setPrintHandler([](const std::string &) {});
            RunResult vr = vt.run();

            EXPECT_EQ(pr.digest, vr.digest)
                << label << ": " << pr.digest.hex() << " vs "
                << vr.digest.hex();
            EXPECT_EQ(pr.cycles, vr.cycles) << label;
            EXPECT_EQ(pr.cpu.instructions, vr.cpu.instructions) << label;
            EXPECT_EQ(pr.cpu.busyCycles, vr.cpu.busyCycles) << label;
            EXPECT_EQ(pr.cpu.stallCycles, vr.cpu.stallCycles) << label;
            EXPECT_EQ(pr.cpu.idleCycles, vr.cpu.idleCycles) << label;
            EXPECT_EQ(pr.cpu.switchesTaken, vr.cpu.switchesTaken)
                << label;

            // The layer is on (stats published) but never acted.
            ASSERT_TRUE(vr.hasSchedStats) << label;
            EXPECT_EQ(vr.sched.preemptions, 0u) << label;
            EXPECT_EQ(vr.sched.blockSwitches, 0u) << label;
            EXPECT_EQ(vr.sched.haltInstalls, 0u) << label;
            EXPECT_EQ(vr.sched.requeues, 0u) << label;
            EXPECT_EQ(vr.sched.saveCycles, 0u) << label;
            EXPECT_EQ(vr.sched.restoreCycles, 0u) << label;
            EXPECT_FALSE(pr.hasSchedStats) << label;
        }
    }
}

// ---------------------------------------------------------------------------
// Scale: a heavily oversubscribed multiprocessor still computes the
// verified result.
// ---------------------------------------------------------------------------

TEST(VThreads, OversubscribedSieveRunsToVerifiedResult)
{
    // 64 processors x 2 contexts x 8 software threads (N/K = 4, 512
    // threads total), costed preemption: the application's own checker
    // must pass and the scheduler identities must close machine-wide.
    const App &app = findApp("sieve");
    AsmOptions opts = app.options(0.08);
    Program prog = assemble(app.source(), opts);

    MachineConfig cfg = vtConfig(64, 2, 8, 100, 2);
    cfg.maxCycles = 400'000'000;
    Machine machine(prog, cfg);
    app.init(machine);
    RunResult r = machine.run();

    AppCheckResult chk = app.check(machine);
    EXPECT_TRUE(chk.ok) << chk.message;
    ASSERT_TRUE(r.hasSchedStats);
    EXPECT_EQ(r.sched.saveCycles, 2 * r.sched.preemptions);
    EXPECT_EQ(r.sched.restoreCycles, 2 * r.sched.preemptions);
    EXPECT_EQ(r.sched.requeues,
              r.sched.blockSwitches + r.sched.preemptions);
    // Every processor drains its queue through halt installs.
    EXPECT_EQ(r.sched.haltInstalls, 64u * 6u);
    EXPECT_GT(r.cpu.instructions, 0u);
}
