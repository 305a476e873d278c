#include "verify/differential.hpp"

#include "apps/app.hpp"
#include "asm/assembler.hpp"
#include "opt/grouping_pass.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mts
{

std::string_view
divergenceKindName(DivergenceKind kind)
{
    switch (kind) {
      case DivergenceKind::Digest: return "digest";
      case DivergenceKind::Invariant: return "invariant";
      case DivergenceKind::RunError: return "run-error";
      case DivergenceKind::Unstable: return "unstable";
    }
    return "?";
}

namespace
{

/** Shared-segment symbol covering word offset @p off, or "". */
std::string
sharedSymbolAt(const Program &prog, Addr off)
{
    Addr addr = kSharedBase + off;
    for (const auto &[name, sym] : prog.symbols) {
        if (sym.kind != SymbolKind::Shared)
            continue;
        Addr base = static_cast<Addr>(sym.value);
        if (addr >= base && addr < base + (sym.size ? sym.size : 1))
            return format("%s+%llu", name.c_str(),
                          static_cast<unsigned long long>(addr - base));
    }
    return "";
}

/** First few shared-word and register differences, for the report. */
std::string
describeDigestDiff(const Program &prog, const RefResult &ref,
                   Machine &machine, const MachineConfig &cfg)
{
    std::string out;
    int shown = 0;
    for (Addr w = 0; w < prog.sharedWords && shown < 4; ++w) {
        std::uint64_t got = machine.sharedMem().read(kSharedBase + w);
        std::uint64_t want = ref.sharedImage[static_cast<std::size_t>(w)];
        if (got == want)
            continue;
        std::string sym = sharedSymbolAt(prog, w);
        out += format("  shared[%llu]%s%s: machine=%llu reference=%llu\n",
                      static_cast<unsigned long long>(w),
                      sym.empty() ? "" : " ", sym.c_str(),
                      static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(want));
        ++shown;
    }
    const int swPerProc = cfg.effSwThreadsPerProc();
    for (int p = 0; p < cfg.numProcs && shown < 8; ++p)
        for (int t = 0; t < swPerProc && shown < 8; ++t) {
            const ThreadContext &th =
                machine.processor(p).thread(static_cast<std::uint16_t>(t));
            int gid = p * swPerProc + t;
            const RefThreadState &rt =
                ref.threads[static_cast<std::size_t>(gid)];
            if (th.iregs[kDigestIntReg0] != rt.iregs[kDigestIntReg0] ||
                th.iregs[kDigestIntReg1] != rt.iregs[kDigestIntReg1]) {
                out += format("  thread %d v0/v1: machine=%lld/%lld "
                              "reference=%lld/%lld\n",
                              gid,
                              static_cast<long long>(
                                  th.iregs[kDigestIntReg0]),
                              static_cast<long long>(
                                  th.iregs[kDigestIntReg1]),
                              static_cast<long long>(
                                  rt.iregs[kDigestIntReg0]),
                              static_cast<long long>(
                                  rt.iregs[kDigestIntReg1]));
                ++shown;
            }
            if (th.fregs[kDigestFpReg0] != rt.fregs[kDigestFpReg0] ||
                th.fregs[kDigestFpReg1] != rt.fregs[kDigestFpReg1]) {
                out += format("  thread %d f0/f1: machine=%.17g/%.17g "
                              "reference=%.17g/%.17g\n",
                              gid, th.fregs[kDigestFpReg0],
                              th.fregs[kDigestFpReg1],
                              rt.fregs[kDigestFpReg0],
                              rt.fregs[kDigestFpReg1]);
                ++shown;
            }
        }
    if (out.empty())
        out = "  (hash mismatch with no visible word/register diff)\n";
    return out;
}

/** Check the accounting identities of one finished run: per processor
 *  on @p machine's live stat structs, machine-wide on @p r. */
void
checkInvariants(Machine &machine, const RunResult &r,
                const MachineConfig &cfg, const std::string &label,
                std::vector<Divergence> &divergences)
{
    auto fail = [&](const std::string &detail) {
        divergences.push_back(
            {DivergenceKind::Invariant, label, detail});
    };

    const bool vt = cfg.swThreadsPerProc > 0;
    for (int p = 0; p < cfg.numProcs; ++p) {
        const CpuStats &c = machine.processor(p).stats;
        Cycle accounted = c.busyCycles + c.stallCycles + c.idleCycles;
        if (accounted != c.finishTime)
            fail(format("cpu.p%d: busy+stall+idle = %llu != finish_time "
                        "%llu",
                        p, static_cast<unsigned long long>(accounted),
                        static_cast<unsigned long long>(c.finishTime)));
        const SchedStats &s = machine.processor(p).sched;
        std::uint64_t runsEnded = c.runLengths.count() + c.zeroRuns;
        std::uint64_t runsExpected =
            c.switchesTaken + s.preemptions +
            static_cast<std::uint64_t>(cfg.effSwThreadsPerProc());
        if (runsEnded != runsExpected)
            fail(format("cpu.p%d: run_lengths mass + zero_runs = %llu != "
                        "switches.taken + preemptions + threads = %llu",
                        p, static_cast<unsigned long long>(runsEnded),
                        static_cast<unsigned long long>(runsExpected)));
        if (vt) {
            // Only timer preemptions pay the context-switch cost, and
            // they pay the save and restore halves symmetrically.
            std::uint64_t expect = s.preemptions * cfg.ctxSwitchCost;
            if (s.saveCycles != expect || s.restoreCycles != expect)
                fail(format(
                    "sched.p%d: save/restore = %llu/%llu != ctx cost x "
                    "preemptions = %llu",
                    p, static_cast<unsigned long long>(s.saveCycles),
                    static_cast<unsigned long long>(s.restoreCycles),
                    static_cast<unsigned long long>(expect)));
        }
    }

    const NetworkStats &n = r.net;
    std::uint64_t msgSum = n.loadMsgs + n.storeMsgs + n.faaMsgs +
                           n.fillMsgs + n.invalMsgs;
    if (n.messages != msgSum)
        fail(format("net: messages %llu != per-type sum %llu",
                    static_cast<unsigned long long>(n.messages),
                    static_cast<unsigned long long>(msgSum)));

    std::uint64_t fwd = (n.loadMsgs + n.fillMsgs) *
                            (kHeaderBits + kAddrBits) +
                        (n.storeMsgs + n.faaMsgs) *
                            (kHeaderBits + kAddrBits + kDataBits) +
                        n.invalMsgs * (kHeaderBits + kAddrBits);
    if (n.forwardBits != fwd)
        fail(format("net: forward bits %llu != reconstruction %llu",
                    static_cast<unsigned long long>(n.forwardBits),
                    static_cast<unsigned long long>(fwd)));

    std::uint64_t lineBits =
        kHeaderBits + cfg.cache.lineWords * kDataBits;
    std::uint64_t ret = (n.loadMsgs - n.pairMsgs) *
                            (kHeaderBits + kDataBits) +
                        n.pairMsgs * (kHeaderBits + 2 * kDataBits) +
                        n.fillMsgs * lineBits + n.storeMsgs * kHeaderBits +
                        n.faaMsgs * (kHeaderBits + kDataBits) +
                        n.invalMsgs * kHeaderBits;
    if (n.returnBits != ret)
        fail(format("net: return bits %llu != reconstruction %llu",
                    static_cast<unsigned long long>(n.returnBits),
                    static_cast<unsigned long long>(ret)));
}

} // namespace

std::string
DiffReport::summary() const
{
    if (divergences.empty())
        return format("ok (%d machine runs, reference %s)\n", machineRuns,
                      refDigest.hex().c_str());
    std::string out = format("%zu divergence(s) in %d machine runs:\n",
                             divergences.size(), machineRuns);
    for (const Divergence &d : divergences) {
        out += format("[%s] %s\n",
                      std::string(divergenceKindName(d.kind)).c_str(),
                      d.config.c_str());
        out += d.detail;
        if (!d.detail.empty() && d.detail.back() != '\n')
            out += '\n';
    }
    return out;
}

DiffReport
runDifferential(const std::string &userSource, const DiffOptions &opts)
{
    DiffReport report;

    Program raw = assemble(runtimePrelude() + userSource);

    // Interleaving-independence screen: the reference digest must be the
    // same under two different round-robin schedules. A racy program
    // would turn every digest comparison below into noise.
    //
    // A reference failure (livelock budget, runtime fault) is reported
    // as a RunError divergence rather than thrown: one bad program must
    // not abort a whole fuzz campaign.
    RefOptions refOpts = opts.ref;
    refOpts.threads = opts.threads;
    RefResult ref;
    try {
        ref = runReference(raw, refOpts);
    } catch (const FatalError &e) {
        report.divergences.push_back({DivergenceKind::RunError,
                                      "reference run",
                                      format("  %s\n", e.what())});
        return report;
    }
    {
        RefOptions alt = refOpts;
        alt.quantum = refOpts.quantum == 3 ? 5 : 3;
        RefResult ref2;
        try {
            ref2 = runReference(raw, alt);
        } catch (const FatalError &e) {
            // Terminates under one schedule but faults under another:
            // order-dependent by definition.
            report.divergences.push_back(
                {DivergenceKind::Unstable, "reference self-check",
                 format("  quantum %llu ok, quantum %llu failed: %s\n",
                        static_cast<unsigned long long>(refOpts.quantum),
                        static_cast<unsigned long long>(alt.quantum),
                        e.what())});
            report.refDigest = ref.digest;
            return report;
        }
        if (ref.digest != ref2.digest) {
            report.divergences.push_back(
                {DivergenceKind::Unstable, "reference self-check",
                 format("  quantum %llu -> %s\n  quantum %llu -> %s\n",
                        static_cast<unsigned long long>(refOpts.quantum),
                        ref.digest.hex().c_str(),
                        static_cast<unsigned long long>(alt.quantum),
                        ref2.digest.hex().c_str())});
            report.refDigest = ref.digest;
            return report;
        }
    }
    report.refDigest = ref.digest;

    Program grouped = opts.groupedTransform ? opts.groupedTransform(raw)
                                            : applyGroupingPass(raw);

    // The grouped program must still be architecturally equivalent.
    {
        RefResult refG;
        try {
            refG = runReference(grouped, refOpts);
        } catch (const FatalError &e) {
            report.divergences.push_back(
                {DivergenceKind::RunError, "grouped reference",
                 format("  %s\n", e.what())});
            return report;
        }
        if (refG.digest != ref.digest) {
            report.divergences.push_back(
                {DivergenceKind::Digest, "grouped reference",
                 format("  grouping changed the reference digest:\n"
                        "  raw %s\n  grouped %s\n",
                        ref.digest.hex().c_str(),
                        refG.digest.hex().c_str())});
            return report;
        }
    }

    // Each variant is copied and decoded once; every Machine of the
    // matrix shares it (and so its FuseCache) immutably.
    struct Variant
    {
        const char *name;
        std::shared_ptr<const Program> prog;
        std::shared_ptr<const DecodedProgram> decoded;
    };
    auto makeVariant = [](const char *name, Program &&program) {
        auto prog = std::make_shared<const Program>(std::move(program));
        auto decoded = std::make_shared<const DecodedProgram>(
            decodeProgram(prog->code));
        return Variant{name, std::move(prog), std::move(decoded)};
    };
    const Variant variants[] = {makeVariant("raw", std::move(raw)),
                                makeVariant("grouped", std::move(grouped))};

    std::vector<SwitchModel> models = opts.models;
    if (models.empty())
        models.assign(std::begin(kAllModels), std::end(kAllModels));

    // Cache geometries: the default, plus a tiny thrashing cache that
    // forces eviction/invalidation traffic.
    const CacheConfig cacheVariants[] = {{2048, 4}, {8, 2}};

    auto runOne = [&](const Variant &v, SwitchModel model, int tpp,
                      const CacheConfig &cache, const NetworkConfig &net,
                      const DirectoryConfig &dir = {}, int swThreads = 0,
                      Cycle quantum = 0, Cycle ctxCost = 0,
                      bool fuseOff = false) {
        MachineConfig cfg;
        // Virtual-threading runs put all `threads` software threads on
        // enough processors that tpp hardware contexts each multiplex
        // swThreads of them; 1:1 runs split threads across processors.
        cfg.numProcs =
            opts.threads / (swThreads > 0 ? swThreads : tpp);
        cfg.threadsPerProc = tpp;
        cfg.swThreadsPerProc = swThreads;
        if (swThreads > 0) {
            cfg.quantumCycles = quantum;
            cfg.ctxSwitchCost = ctxCost;
        }
        cfg.model = model;
        cfg.network = net;
        cfg.cache = cache;
        cfg.directory = dir;
        cfg.maxCycles = opts.maxCycles;
        cfg.fuseSpans = !fuseOff;
        cfg.fuseThreshold = opts.fuseThreshold;
        std::string label = format(
            "%s %s tpp=%d latency=%llu",
            std::string(switchModelName(model)).c_str(), v.name, tpp,
            static_cast<unsigned long long>(net.roundTrip));
        if (swThreads > 0)
            label += format(" vt=%d/%d q=%llu c=%llu", swThreads, tpp,
                            static_cast<unsigned long long>(quantum),
                            static_cast<unsigned long long>(ctxCost));
        if (net.kind == NetworkKind::Mesh)
            label += format(" net=mesh:lb%llu",
                            static_cast<unsigned long long>(net.linkBits));
        if (dir.mode == DirectoryMode::LimitedPtr)
            label += format(" dir=limited/%d", dir.pointers);
        if (modelUsesCache(model))
            label += format(" cache=%ux%u", cache.sizeWords,
                            cache.lineWords);
        if (fuseOff)
            label += " fuse=off";
        ++report.machineRuns;
        try {
            Machine machine(v.prog, v.decoded, cfg);
            machine.setPrintHandler([](const std::string &) {});
            RunResult r = machine.run();
            if (r.digest != ref.digest)
                report.divergences.push_back(
                    {DivergenceKind::Digest, label,
                     describeDigestDiff(*v.prog, ref, machine, cfg)});
            if (opts.checkInvariants)
                checkInvariants(machine, r, cfg, label,
                                report.divergences);
        } catch (const FatalError &e) {
            report.divergences.push_back(
                {DivergenceKind::RunError, label,
                 format("  %s\n", e.what())});
        }
    };

    auto constNet = [&](Cycle latency) {
        NetworkConfig n;
        n.roundTrip = latency;
        return n;
    };

    for (const Variant &v : variants)
        for (SwitchModel model : models) {
            // Raw code has no cswitch anywhere (including the prelude's
            // spin loops), so cswitch-driven models would livelock.
            if (&v == &variants[0] && modelNeedsSwitchInstr(model))
                continue;
            for (int tpp : opts.tppList) {
                if (tpp <= 0 || opts.threads % tpp != 0)
                    continue;
                if (modelUsesCache(model)) {
                    for (const CacheConfig &cache : cacheVariants)
                        runOne(v, model, tpp, cache,
                               constNet(opts.latency));
                } else {
                    runOne(v, model, tpp, CacheConfig{},
                           constNet(opts.latency));
                }
            }
        }

    int tppMax = 1;
    for (int t : opts.tppList)
        if (t > tppMax && opts.threads % t == 0)
            tppMax = t;

    if (opts.includeZeroLatency) {
        // Zero-latency machines take the direct-access fast path; one
        // representative per variant keeps the matrix affordable.
        runOne(variants[0], SwitchModel::SwitchOnLoad, tppMax,
               CacheConfig{}, constNet(0));
        runOne(variants[1], SwitchModel::ExplicitSwitch, tppMax,
               CacheConfig{}, constNet(0));
    }

    if (opts.includeVThreads && opts.threads >= 2) {
        // Virtual-threading slice: every software thread still runs to
        // the same architectural end state when time-multiplexed over
        // fewer hardware contexts, under both a thrashing quantum (50)
        // and a coarse one (500), free and costed context switches, and
        // both a blocking and a cswitch-driven model. K = threads/2
        // exercises queue + contexts jointly; K = 1 serializes the whole
        // processor through one context.
        const int kHalf = opts.threads / 2;
        runOne(variants[0], SwitchModel::SwitchOnLoad, kHalf,
               CacheConfig{}, constNet(opts.latency), {}, opts.threads,
               50, 4);
        runOne(variants[1], SwitchModel::ExplicitSwitch, kHalf,
               CacheConfig{}, constNet(opts.latency), {}, opts.threads,
               500, 0);
        runOne(variants[0], SwitchModel::SwitchOnUse, 1, CacheConfig{},
               constNet(opts.latency), {}, opts.threads, 50, 0);
        runOne(variants[1], SwitchModel::ConditionalSwitch, 1,
               CacheConfig{8, 2}, constNet(opts.latency), {},
               opts.threads, 500, 4);
    }

    if (opts.includeMesh) {
        // Mesh slice: narrow links make every queueing path (link
        // contention, per-source ordering, delayed fills) actually
        // exercise; the architectural digest must not notice. The
        // cached config also runs a 1-pointer directory, so overflow
        // broadcasts fire.
        NetworkConfig mesh;
        mesh.kind = NetworkKind::Mesh;
        mesh.linkBits = 16;
        runOne(variants[0], SwitchModel::SwitchOnLoad, tppMax,
               CacheConfig{}, mesh);
        DirectoryConfig dir;
        dir.mode = DirectoryMode::LimitedPtr;
        dir.pointers = 1;
        runOne(variants[1], SwitchModel::ConditionalSwitch, tppMax,
               CacheConfig{8, 2}, mesh, dir);
    }

    if (opts.includeFused) {
        // Fused-vs-decoded slice: the matrix above fuses hot spans on
        // first touch, so re-running two representative configs with
        // the tier off pins the decoded path against the same reference
        // digest — any fused/decoded divergence shows up as one of the
        // two sides disagreeing with the reference.
        runOne(variants[0], SwitchModel::SwitchOnLoad, tppMax,
               CacheConfig{}, constNet(opts.latency), {}, 0, 0, 0,
               /*fuseOff=*/true);
        runOne(variants[1], SwitchModel::ConditionalSwitch, tppMax,
               CacheConfig{8, 2}, constNet(opts.latency), {}, 0, 0, 0,
               /*fuseOff=*/true);
    }

    return report;
}

} // namespace mts
