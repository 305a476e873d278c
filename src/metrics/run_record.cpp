#include "metrics/run_record.hpp"

#include "cache/directory.hpp"
#include "mem/network_model.hpp"
#include "sim/machine_config.hpp"
#include "sim/run_result.hpp"
#include "util/strings.hpp"

namespace mts
{

MetricsRegistry
runMetrics(const RunResult &result, const MachineConfig &config,
           const Directory &directory)
{
    MetricsRegistry reg;

    const CpuStats &cpu = result.cpu;
    reg.add("cpu.instructions", cpu.instructions);
    reg.add("cpu.cycles.busy", cpu.busyCycles);
    reg.add("cpu.cycles.stall", cpu.stallCycles);
    reg.add("cpu.cycles.idle", cpu.idleCycles);
    reg.add("cpu.switches.taken", cpu.switchesTaken);
    reg.add("cpu.switches.skipped", cpu.switchesSkipped);
    reg.add("cpu.switches.slice_limit", cpu.sliceLimitSwitches);
    reg.add("cpu.switches.zero_run", cpu.zeroRuns);
    reg.add("cpu.loads.shared", cpu.sharedLoads);
    reg.add("cpu.loads.spin", cpu.spinLoads);
    reg.add("cpu.stores.shared", cpu.sharedStores);
    reg.add("cpu.fetch_adds", cpu.fetchAdds);
    reg.add("cpu.estimate_hits", cpu.estimateHits);
    reg.add("cpu.finish_time", cpu.finishTime);
    reg.histogram("cpu.run_lengths") = cpu.runLengths;

    if (config.cachesEnabled()) {
        const CacheStats &c = result.cache;
        reg.add("cache.hits", c.hits);
        reg.add("cache.misses", c.misses);
        reg.add("cache.merged_misses", c.mergedMisses);
        reg.add("cache.invalidations", c.invalidationsReceived);
        reg.add("cache.store_throughs", c.storeThroughs);
    }

    const NetworkStats &n = result.net;
    reg.add("net.messages", n.messages);
    reg.add("net.bits.forward", n.forwardBits);
    reg.add("net.bits.return", n.returnBits);
    reg.add("net.msgs.load", n.loadMsgs);
    reg.add("net.msgs.store", n.storeMsgs);
    reg.add("net.msgs.faa", n.faaMsgs);
    reg.add("net.msgs.fill", n.fillMsgs);
    reg.add("net.msgs.inval", n.invalMsgs);
    reg.add("net.msgs.spin", n.spinMsgs);
    reg.add("net.msgs.pair", n.pairMsgs);

    if (result.hasLinkStats) {
        const NetLinkStats &l = result.link;
        reg.add("link.msgs.routed", l.routedMsgs);
        reg.add("link.msgs.local", l.localMsgs);
        reg.add("link.hops", l.hops);
        reg.add("link.cycles.busy", l.busyCycles);
        reg.add("link.cycles.wait", l.waitCycles);
        reg.add("link.cycles.busy_max", l.busyMax);
        reg.set("derived.link_avg_hops", l.avgHops());
        reg.set("derived.link_max_utilization",
                l.maxLinkUtilization(result.cycles));
    }

    if (config.directory.mode != DirectoryMode::FullMap) {
        reg.add("directory.overflows", directory.overflows());
        reg.add("directory.broadcasts", directory.broadcasts());
    }

    if (result.hasSchedStats) {
        const SchedStats &s = result.sched;
        reg.add("sched.preemptions", s.preemptions);
        reg.add("sched.cycles.save", s.saveCycles);
        reg.add("sched.cycles.restore", s.restoreCycles);
        reg.add("sched.switches.block", s.blockSwitches);
        reg.add("sched.installs.halt", s.haltInstalls);
        reg.add("sched.requeues", s.requeues);
        reg.histogram("sched.queue_depth") = s.queueDepth;
    }

    if (result.hasFuseStats) {
        const FuseStats &f = result.fuse;
        reg.add("fuse.spans", f.spans);
        reg.add("fuse.execs", f.execs);
        reg.add("fuse.instructions", f.instructions);
        reg.add("fuse.bailouts.watermark", f.bailoutWatermark);
        reg.add("fuse.bailouts.budget", f.bailoutBudget);
    }

    if (config.groupEstimate) {
        reg.add("estimate.hits", result.estimateHits);
        reg.add("estimate.misses", result.estimateMisses);
        reg.set("derived.estimate_hit_rate", result.estimateHitRate());
    }
    reg.set("derived.utilization", result.utilization());
    reg.set("derived.grouping_factor", result.groupingFactor());
    reg.set("derived.bits_per_cycle_per_proc", result.bitsPerCycle());
    if (config.cachesEnabled())
        reg.set("derived.cache_hit_rate", result.cache.hitRate());
    return reg;
}

RunRecord
makeRunRecord(const RunResult &result, const MachineConfig &config,
              std::string appName)
{
    RunRecord rec;
    rec.app = std::move(appName);
    rec.model = std::string(switchModelName(config.model));
    rec.numProcs = result.numProcs;
    rec.threadsPerProc = result.threadsPerProc;
    rec.latency = config.network.roundTrip;
    rec.cycles = result.cycles;
    rec.digestShared = result.digest.sharedHash;
    rec.digestRegs = result.digest.regHash;
    rec.network = std::string(networkKindName(config.network.kind));
    if (config.network.kind == NetworkKind::Mesh) {
        auto [mx, my] = resolveMeshDims(config.network, config.numProcs);
        rec.meshX = mx;
        rec.meshY = my;
        rec.hopCycles = config.network.hopCycles;
        rec.linkBits = config.network.linkBits;
    }
    rec.directoryMode = directoryModeName(config.directory.mode);
    if (config.directory.mode == DirectoryMode::LimitedPtr)
        rec.dirPointers = config.directory.pointers;
    if (config.swThreadsPerProc > 0) {
        rec.swThreadsPerProc = config.swThreadsPerProc;
        rec.quantumCycles = config.quantumCycles;
        rec.ctxSwitchCost = config.ctxSwitchCost;
    }

    rec.metrics = result.metrics;
    return rec;
}

JsonValue
RunRecord::toJson() const
{
    JsonValue v = JsonValue::object();
    v["schema"] = JsonValue(RunRecord::kSchema);
    if (!app.empty())
        v["app"] = JsonValue(app);
    v["model"] = JsonValue(model);
    v["procs"] = JsonValue(numProcs);
    v["threads"] = JsonValue(threadsPerProc);
    if (swThreadsPerProc) {
        v["sw_threads"] = JsonValue(swThreadsPerProc);
        v["quantum_cycles"] = JsonValue(quantumCycles);
        v["ctx_cost"] = JsonValue(ctxSwitchCost);
    }
    v["latency"] = JsonValue(latency);
    v["network"] = JsonValue(network);
    if (network == "mesh") {
        v["mesh_x"] = JsonValue(meshX);
        v["mesh_y"] = JsonValue(meshY);
        v["hop_cycles"] = JsonValue(hopCycles);
        v["link_bits"] = JsonValue(linkBits);
    }
    v["directory"] = JsonValue(directoryMode);
    if (dirPointers)
        v["dir_pointers"] = JsonValue(dirPointers);
    v["cycles"] = JsonValue(cycles);
    v["digest_shared"] = JsonValue(format("0x%016llx",
        static_cast<unsigned long long>(digestShared)));
    v["digest_regs"] = JsonValue(format("0x%016llx",
        static_cast<unsigned long long>(digestRegs)));
    if (hasEfficiency) {
        v["efficiency"] = JsonValue(efficiency);
        v["speedup"] = JsonValue(speedup);
        v["reference_cycles"] = JsonValue(referenceCycles);
    }
    v["metrics"] = metrics.toJson();
    return v;
}

JsonValue
OptRecord::toJson() const
{
    JsonValue v = JsonValue::object();
    v["schema"] = JsonValue(OptRecord::kSchema);
    v["program"] = JsonValue(program);
    v["basic_blocks"] = JsonValue(std::uint64_t(stats.basicBlocks));
    v["instructions_in"] =
        JsonValue(std::uint64_t(stats.instructionsIn));
    v["instructions_out"] =
        JsonValue(std::uint64_t(stats.instructionsOut));
    v["shared_loads"] = JsonValue(std::uint64_t(stats.sharedLoads));
    v["switches_inserted"] =
        JsonValue(std::uint64_t(stats.switchesInserted));
    v["load_groups"] = JsonValue(std::uint64_t(stats.loadGroups));
    v["reordered_blocks"] =
        JsonValue(std::uint64_t(stats.reorderedBlocks));
    v["static_grouping_factor"] =
        JsonValue(stats.staticGroupingFactor());
    return v;
}

} // namespace mts
