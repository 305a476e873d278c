#include "sim/machine.hpp"

#include <cstdio>

#include "metrics/run_record.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace mts
{

namespace
{

Addr
roundUpTo(Addr v, Addr multiple)
{
    return (v + multiple - 1) / multiple * multiple;
}

Cycle
saturatingAdd(Cycle a, Cycle b)
{
    Cycle s = a + b;
    return s < a ? kNever : s;
}

} // namespace

Machine::Machine(const Program &program, const MachineConfig &config,
                 Addr extraSharedWords)
    : Machine(std::make_shared<const Program>(program), nullptr, config,
              extraSharedWords)
{
}

Machine::Machine(std::shared_ptr<const Program> program,
                 std::shared_ptr<const DecodedProgram> decodedProgram,
                 const MachineConfig &config, Addr extraSharedWords)
    : prog(std::move(program)),
      decoded(decodedProgram
                  ? std::move(decodedProgram)
                  : std::make_shared<const DecodedProgram>(
                        decodeProgram(prog->code))),
      cfg((validateMachineConfig(config), config)),
      mem(roundUpTo(prog->sharedWords + extraSharedWords +
                        config.cache.lineWords,
                    config.cache.lineWords)),
      directory(config.directory, config.numProcs),
      net(makeNetworkModel(config.network, config.numProcs,
                           config.cache.lineWords))
{
    MTS_REQUIRE(cfg.localWords > prog->localStaticWords + 256,
                "localWords too small for this program's local statics");
    if (modelNeedsSwitchInstr(cfg.model)) {
        bool hasSwitch = false;
        for (const auto &inst : prog->code)
            if (inst.op == Opcode::CSWITCH) {
                hasSwitch = true;
                break;
            }
        MTS_REQUIRE(hasSwitch || net->zeroLatency(),
                    switchModelName(cfg.model)
                        << " requires code processed by the grouping pass "
                           "(no cswitch instructions found)");
    }

    printHandler = [](const std::string &s) {
        std::fputs(s.c_str(), stdout);
        std::fputc('\n', stdout);
    };

    queue.reserve(static_cast<std::size_t>(cfg.numProcs));
    if (cfg.cachesEnabled())
        pendingStores.resize(static_cast<std::size_t>(cfg.numProcs));

    procs.reserve(cfg.numProcs);
    for (int p = 0; p < cfg.numProcs; ++p)
        procs.push_back(std::make_unique<Processor>(
            *this, static_cast<std::uint16_t>(p), cfg, *prog, *decoded));
}

Machine::~Machine() = default;

Cycle
Machine::issueMem(MemOp op)
{
    if (cfg.tracer)
        cfg.tracer->onSharedAccess(
            op.issueTime, op.proc,
            static_cast<std::uint32_t>(op.proc) *
                    cfg.effSwThreadsPerProc() +
                op.thread,
            op);
    if (op.kind == MemOpKind::Store && cfg.cachesEnabled())
        pendingStores[op.proc].push_back({op.addr, op.value});
    if (net->zeroLatency()) {
        // Ideal network: the access completes at issue, in the bounded
        // causality window enforced by the zero-latency quantum.
        op.returnTime = op.issueTime;
        processArrival(MemEvent{op.issueTime, 0, op});
        return op.issueTime + 1;
    }

    // The backend owns all timing: latency, contention, ordering.
    NetworkTiming t = net->route(op);
    op.returnTime = t.returnTime;
    queue.pushMem(t.arrival, op);
    return op.returnTime;
}

std::uint64_t
Machine::directLoad(Addr addr)
{
    return mem.read(addr);
}

std::uint64_t
Machine::directFetchAdd(Addr addr, std::uint64_t addend)
{
    return mem.fetchAdd(addr, addend);
}

void
Machine::directStore(Addr addr, std::uint64_t value)
{
    mem.write(addr, value);
}

std::uint64_t
Machine::estimateRead(Addr addr)
{
    return mem.read(addr);
}

void
Machine::invalidateSharers(Addr addr, std::uint16_t writer)
{
    Addr base = addr & ~static_cast<Addr>(cfg.cache.lineWords - 1);
    for (std::uint16_t p : directory.writersInvalidationSet(base, writer)) {
        procs[p]->cache()->invalidate(addr);
        netStats.countInvalidation();
    }
    SharedCache *wc = procs[writer]->cache();
    if (wc && wc->present(addr))
        directory.addSharer(base, writer);
}

void
Machine::processArrival(const MemEvent &ev)
{
    const MemOp &op = ev.op;
    netStats.count(op, cfg.cache.lineWords);

    // Report data accesses here, where their effects serialize: the
    // event loop applies arrivals in (time, seq) order, so observers
    // see the exact interleaving the memory module executed — the one
    // the fetch-add return values witness (at issue time, same-cycle
    // ties across processors can resolve either way).
    if (cfg.tracer && op.pc >= 0)
        cfg.tracer->onSharedData(
            ev.time, op.proc,
            static_cast<std::uint32_t>(op.proc) *
                    static_cast<std::uint32_t>(
                        cfg.effSwThreadsPerProc()) +
                op.thread,
            op.pc, op.addr,
            op.kind == MemOpKind::FetchAdd ? SharedDataKind::Rmw
            : op.kind == MemOpKind::Store  ? SharedDataKind::Write
            : op.spin                      ? SharedDataKind::SpinRead
                                           : SharedDataKind::Read,
            op.kind == MemOpKind::LoadPair ? 2 : 1);

    switch (op.kind) {
      case MemOpKind::Store:
        mem.write(op.addr, op.value);
        if (cfg.cachesEnabled()) {
            invalidateSharers(op.addr, op.proc);
            // Now visible in memory: retire from the writer's store
            // buffer. Ordered delivery retires stores in issue order, so
            // the head must be this store. (The writer's own cached copy
            // was already updated at issue; re-applying op.value here
            // would roll back any younger store to the same word.)
            auto &sb = pendingStores[op.proc];
            MTS_ASSERT(!sb.empty() && sb.front().addr == op.addr,
                       "store buffer out of sync with arrival order");
            sb.pop_front();
        }
        break;

      case MemOpKind::FetchAdd: {
        std::uint64_t old = mem.fetchAdd(op.addr, op.value);
        if (cfg.cachesEnabled()) {
            // Same in-flight-fill hazard as stores: drop any copy that a
            // concurrent fill resurrected between issue and arrival
            // (before the directory pass so the writer is not re-added).
            if (SharedCache *wc = procs[op.proc]->cache())
                wc->invalidate(op.addr);
            invalidateSharers(op.addr, op.proc);
        }
        if (op.deliver)
            procs[op.proc]->deliver(op.thread, op.reg, false, false, old,
                                    0);
        break;
      }

      case MemOpKind::Load:
      case MemOpKind::LoadPair: {
        std::uint64_t v0 = mem.read(op.addr);
        std::uint64_t v1 =
            op.kind == MemOpKind::LoadPair ? mem.read(op.addr + 1) : 0;
        if (op.fillLine) {
            SharedCache *c = procs[op.proc]->cache();
            MTS_ASSERT(c, "fill for a processor without a cache");
            Addr base = c->lineBase(op.addr);
            std::uint64_t line[64];
            for (unsigned w = 0; w < cfg.cache.lineWords; ++w)
                line[w] = mem.read(base + w);
            c->install(base, line, op.returnTime);
            // The memory image lags this processor's own stores still in
            // flight; forward them (in issue order) onto the fresh line
            // so its hits respect the processor's program order.
            for (const PendingStore &ps : pendingStores[op.proc])
                if (c->lineBase(ps.addr) == base)
                    c->refresh(ps.addr, ps.value);
            directory.addSharer(base, op.proc);
        }
        if (op.deliver)
            procs[op.proc]->deliver(op.thread, op.reg, op.fpDest,
                                    op.kind == MemOpKind::LoadPair, v0, v1);
        break;
      }
    }
}

RunResult
Machine::run()
{
    MTS_REQUIRE(!ran, "Machine::run may only be called once");
    ran = true;

    for (int p = 0; p < cfg.numProcs; ++p)
        queue.pushProc(0, static_cast<std::uint16_t>(p));

    const Cycle lookahead =
        net->zeroLatency() ? cfg.zeroLatencyQuantum : net->minDelay();
    std::size_t finished = 0;

    while (!queue.empty()) {
        if (queue.memIsNext()) {
            // Process in place: processArrival never mutates the queue,
            // so the reference stays valid until dropMem().
            processArrival(queue.peekMem());
            queue.dropMem();
            continue;
        }
        ProcEvent pe = queue.popProc();
        MTS_REQUIRE(pe.time <= cfg.maxCycles,
                    "watchdog: simulation exceeded "
                        << cfg.maxCycles
                        << " cycles (deadlock or runaway spin?)");
        Cycle horizon = std::min(
            queue.nextMemTime(),
            saturatingAdd(queue.nextProcTime(), lookahead));
        RunStatus st = procs[pe.proc]->run(pe.time, horizon);
        if (st.outcome == RunOutcome::Finished)
            ++finished;
        else
            queue.pushProc(st.resumeAt, pe.proc);
    }

    MTS_ASSERT(finished == static_cast<std::size_t>(cfg.numProcs),
               "event queue drained with " << cfg.numProcs - finished
                                           << " processors unfinished");

    RunResult r;
    r.numProcs = cfg.numProcs;
    r.threadsPerProc = cfg.threadsPerProc;
    r.swThreadsPerProc = cfg.swThreadsPerProc;

    // Canonical final-state digest: the shared static segment (scratch
    // words and line padding excluded so cache geometry cannot leak in),
    // then every software thread's termination registers in global-id
    // order (software threads == hardware contexts when 1:1).
    for (Addr a = 0; a < prog->sharedWords; ++a)
        r.digest.addSharedWord(mem.read(kSharedBase + a));
    for (int p = 0; p < cfg.numProcs; ++p)
        for (int t = 0; t < cfg.effSwThreadsPerProc(); ++t) {
            const ThreadContext &th =
                procs[p]->thread(static_cast<std::uint16_t>(t));
            r.digest.addThreadRegs(th.iregs[kDigestIntReg0],
                                   th.iregs[kDigestIntReg1],
                                   th.fregs[kDigestFpReg0],
                                   th.fregs[kDigestFpReg1]);
        }

    // Machine-wide totals: each processor's structs summed with their
    // merge(). The per-processor structs stay where they were collected
    // (processor(p).stats/.sched/.fuse and its cache's statistics()).
    // The scheduler and fused-tier totals exist only while those layers
    // are on.
    r.hasSchedStats = cfg.swThreadsPerProc > 0;
    r.hasFuseStats = procs[0]->fuseTier();
    for (const auto &proc : procs) {
        r.cpu.merge(proc->stats);
        if (const SharedCache *c = proc->cache())
            r.cache.merge(c->statistics());
        if (r.hasSchedStats)
            r.sched.merge(proc->sched);
        if (r.hasFuseStats)
            r.fuse.merge(proc->fuse);
        for (int t = 0; t < cfg.effSwThreadsPerProc(); ++t) {
            const auto &g =
                proc->thread(static_cast<std::uint16_t>(t)).groupEstimate;
            r.estimateHits += g.hits();
            r.estimateMisses += g.misses();
        }
    }
    r.net = netStats;
    // Topology-aware backends expose per-link contention counters; the
    // constant-latency pipe has none.
    if (const NetLinkStats *ls = net->linkStats()) {
        r.link = *ls;
        r.hasLinkStats = true;
    }
    r.cycles = r.cpu.finishTime;
    r.metrics = runMetrics(r, cfg, directory);

    if (cfg.tracer)
        cfg.tracer->onMetricsSnapshot(r.cycles, r.metrics);
    return r;
}

} // namespace mts
