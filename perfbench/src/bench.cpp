#include "bench.hpp"

#include "isa/decoded.hpp"

namespace perfbench
{

void
ExactCounts::add(const mts::RunResult &r)
{
    ++runs;
    cycles += r.cycles;
    procCycles += r.cycles * static_cast<std::uint64_t>(r.numProcs);
    instructions += r.cpu.instructions;
    switchesTaken += r.cpu.switchesTaken;
    idleCycles += r.cpu.idleCycles;
    messages += r.net.messages;
    if (r.hasLinkStats) {
        routedMsgs += r.link.routedMsgs;
        hops += r.link.hops;
        linkWaitCycles += r.link.waitCycles;
    }
    cacheHits += r.cache.hits;
    cacheAccesses += r.cache.hits + r.cache.misses + r.cache.mergedMisses;
    invalidations += r.cache.invalidationsReceived;
    if (r.metrics.contains("directory.overflows"))
        dirOverflows += r.metrics.counter("directory.overflows");
    if (r.hasFuseStats) {
        fusedInstructions += r.fuse.instructions;
        fuseBailouts += r.fuse.bailoutWatermark + r.fuse.bailoutBudget;
    }
}

mts::JsonValue
ExactCounts::toJson() const
{
    mts::JsonValue j = mts::JsonValue::object();
    j["runs"] = mts::JsonValue(runs);
    j["cycles"] = mts::JsonValue(cycles);
    j["proc_cycles"] = mts::JsonValue(procCycles);
    j["instructions"] = mts::JsonValue(instructions);
    j["switches_taken"] = mts::JsonValue(switchesTaken);
    j["idle_cycles"] = mts::JsonValue(idleCycles);
    j["messages"] = mts::JsonValue(messages);
    j["routed_msgs"] = mts::JsonValue(routedMsgs);
    j["hops"] = mts::JsonValue(hops);
    j["link_wait_cycles"] = mts::JsonValue(linkWaitCycles);
    j["cache_hits"] = mts::JsonValue(cacheHits);
    j["cache_accesses"] = mts::JsonValue(cacheAccesses);
    j["invalidations"] = mts::JsonValue(invalidations);
    j["dir_overflows"] = mts::JsonValue(dirOverflows);
    j["fused_instructions"] = mts::JsonValue(fusedInstructions);
    j["fuse_bailouts"] = mts::JsonValue(fuseBailouts);
    j["ladder_answers"] = mts::JsonValue(ladderAnswers);
    j["machine_runs"] = mts::JsonValue(machineRuns);
    j["divergences"] = mts::JsonValue(divergences);
    j["failed_ops"] = mts::JsonValue(failedOps);
    return j;
}

void
Pass::addRun(const mts::RunResult &r)
{
    std::lock_guard<std::mutex> lock(mutex);
    counts.add(r);
}

void
Pass::addTaskWait(double waitS)
{
    std::lock_guard<std::mutex> lock(mutex);
    taskWaitS += waitS;
}

void
Pass::finishOp(const char *name, double seconds, double cpuSeconds,
               const std::string &failure)
{
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    opSeconds.push_back(seconds);
    opCpuSeconds.push_back(cpuSeconds);
    if (!failure.empty()) {
        ++failed;
        ++counts.failedOps;
        ++failures[std::string(name) + ": " + failure];
    }
}

const mts::PreparedApp &
prepare(mts::ExperimentRunner &runner, const mts::App &app)
{
    Span span("core.prepare");
    return runner.prepare(app);
}

mts::ExperimentRun
run(Pass &pass, mts::ExperimentRunner &runner, const mts::App &app,
    const mts::MachineConfig &cfg)
{
    mts::ExperimentRun r;
    {
        Span span("core.run");
        r = runner.run(app, cfg);
    }
    pass.addRun(r.result);
    return r;
}

int
ladder(Pass &pass, mts::ExperimentRunner &runner, const mts::App &app,
       const mts::MachineConfig &base, double target, int maxThreads)
{
    int t;
    {
        Span span("core.ladder");
        t = runner.threadsForEfficiency(app, base, target, maxThreads);
    }
    pass.count([t](ExactCounts &c) { c.ladderAnswers += t; });
    return t;
}

mts::Cycle
reference(mts::ExperimentRunner &runner, const mts::App &app)
{
    Span span("core.reference");
    return runner.referenceCycles(app);
}

mts::Program
assemble(const std::string &source, const mts::AsmOptions &options)
{
    Span span("asm.assemble");
    return mts::assemble(source, options);
}

mts::Program
group(const mts::Program &program)
{
    Span span("opt.group");
    return mts::applyGroupingPass(program);
}

mts::DecodedProgram
decode(const mts::Program &program)
{
    Span span("isa.decode");
    return mts::decodeProgram(program.code);
}

void
initApp(const mts::App &app, mts::Machine &machine)
{
    Span span("apps.init");
    app.init(machine);
}

mts::RunResult
simulate(Pass &pass, mts::Machine &machine)
{
    mts::RunResult r;
    {
        Span span("sim.run");
        r = machine.run();
    }
    pass.addRun(r);
    return r;
}

void
checkApp(const mts::App &app, mts::Machine &machine)
{
    mts::AppCheckResult chk;
    {
        Span span("apps.check");
        chk = app.check(machine);
    }
    if (!chk.ok)
        throw CheckFailed(app.name() + " failed self-check: " +
                          chk.message);
}

} // namespace perfbench
