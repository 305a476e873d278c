/**
 * @file
 * `repro`: the time to regenerate the reproduction. It makes the calls
 * every table/figure driver in bench/ makes, except bench_psweep and
 * bench_simulator_speed, each at that driver's MTS_FAST scale and
 * through one ExperimentRunner per driver. Rows are fanned over
 * SweepRunner::map with a fixed 4 workers; ladders run with ladder
 * jobs 1. Two changes of call order, for visibility from outside:
 * program preparation (assemble, group, decode) happens in set-up, and
 * each driver first fans out the reference runs its rows would
 * otherwise compute lazily, so core.reference_s can see them.
 */
#include <iterator>

#include "bench.hpp"

namespace perfbench
{

namespace
{

using namespace mts;

constexpr unsigned kWorkers = 4;

/** bench_common.hpp's MTS_FAST multiplier of each driver's scale. */
constexpr double kFast = 0.2;

constexpr double kTargets[] = {0.5, 0.6, 0.7, 0.8, 0.9};

// The hand-written kernels of bench_ablations and bench_extensions.
const char *const kLockKernel = R"(
.const K, 40
.shared counter, 1
.shared lk, 2
.shared arr, 4096
.entry main
main:
    mv  s0, a0
    mv  s1, a1
    li  s2, 0
loop:
    la  a0, lk
    call __mts_lock
    lds t1, counter
    add t1, t1, 1
    sts t1, counter
    la  a0, lk
    call __mts_unlock
    li  t2, 512
    mul t3, s0, t2
    li  t4, arr
    add t3, t4, t3
    li  t5, 0
stream:
    lds t6, 0(t3)
    add t3, t3, 1
    add t5, t5, 1
    blt t5, 64, stream
    add s2, s2, 1
    blt s2, K, loop
    halt
)";

const char *const kCentralBarrier = R"(
.shared bar, 2
.shared tree, 512
.entry main
main:
    mv  s0, a0
    mv  s1, a1
    li  s2, 0
loop:
    la  a0, bar
    mv  a1, s1
    call __mts_barrier
    add s2, s2, 1
    blt s2, 4, loop
    halt
)";

const char *const kTreeBarrier = R"(
.shared bar, 2
.shared tree, 512
.entry main
main:
    mv  s0, a0
    mv  s1, a1
    li  s2, 0
loop:
    la  a0, tree
    mv  a1, s1
    mv  a2, s0
    call __mts_barrier_tree
    add s2, s2, 1
    blt s2, 4, loop
    halt
)";

const char *const kPriorityKernel = R"(
.const K, 30
.shared counter, 1
.shared lk, 2
.shared arr, 1024*16
.entry main
main:
    mv  s0, a0
    mv  s1, a1
    li  s2, 0
loop:
    la  a0, lk
    call __mts_lock
    lds t1, counter
    add t1, t1, 1
    sts t1, counter
    la  a0, lk
    call __mts_unlock
    li  t2, 1024
    mul t3, s0, t2
    li  t4, arr
    add t3, t4, t3
    li  t5, 0
stream:
    lds t6, 0(t3)
    add t3, t3, 1
    add t5, t5, 1
    blt t5, 96, stream
    add s2, s2, 1
    blt s2, K, loop
    halt
)";

/** A driver's runner: its MTS_FAST scale and the apps it prepares. */
struct RunnerSpec
{
    const char *driver;
    double scale;
    std::vector<const App *> apps;
};

std::vector<RunnerSpec>
runnerSpecs()
{
    const std::vector<const App *> &all = allApps();
    return {
        {"table1", kFast, all},
        {"fig1_models", kFast, {&sorApp(), &mp3dApp()}},
        {"fig2_ideal", kFast, all},
        // bench_fig2_ideal builds a second runner for the water quirk.
        {"fig2_ideal.water", kFast, {&waterApp()}},
        {"table2_runlength", kFast, all},
        {"fig3_sieve", kFast, {&sieveApp()}},
        {"table3_sol", kFast, all},
        {"table4_runlength_es", kFast, all},
        {"table5_es", kFast, all},
        {"table6_interblock", kFast, all},
        {"table7_bandwidth", kFast, all},
        {"table8_cs", kFast, all},
        {"dash_mp3d", kFast, {&mp3dApp()}},
        {"ablations", 0.5 * kFast, {&sorApp(), &sieveApp(), &mp3dApp()}},
        {"extensions", 0.5 * kFast, {&sorApp()}},
        // bench_vthreads drives Machines directly; SweepRunner still
        // needs a runner to fan its rows.
        {"vthreads", 0.5 * kFast, {}},
    };
}

/** Everything one pass consumes, built by set-up. */
struct Inputs
{
    std::map<std::string, std::unique_ptr<ExperimentRunner>> runners;
    std::map<std::string, const RunnerSpec *> specs;
    Program lockKernel;
    Program centralBarrier;
    Program treeBarrier;
    Program priorityKernel;
    Program vtRaw;
    Program vtGrouped;
};

/** One driver's runner and sweep, inside the driver's span. */
class Driver
{
  public:
    Driver(Pass &pass, Inputs &in, const char *name)
        : pass(pass), name(name), span(name), runner(*in.runners.at(name)),
          apps(in.specs.at(name)->apps), sweep(runner, kWorkers)
    {
    }

    /** SweepRunner::map over @p n tasks; each task is one op. */
    template <typename Fn>
    void
    fan(std::size_t n, Fn fn)
    {
        Span fanSpan("core.map");
        const std::int32_t parent = fanSpan.id();
        const Clock::time_point t0 = Clock::now();
        sweep.map(n, [this, &fn, parent, t0](std::size_t i) {
            pass.addTaskWait(secondsSince(t0));
            pass.op(name, [&] { fn(i); }, parent);
            return 0;
        });
    }

    /** The reference runs of every app this driver's rows use. */
    void
    references()
    {
        fan(apps.size(),
            [this](std::size_t i) { reference(runner, *apps[i]); });
    }

    ExperimentRun
    run(const App &app, const MachineConfig &cfg)
    {
        return perfbench::run(pass, runner, app, cfg);
    }

    /** One table row of threads-for-efficiency ladders. */
    void
    ladders(const App &app, const MachineConfig &base)
    {
        for (double target : kTargets)
            ladder(pass, runner, app, base, target, 32);
    }

    Pass &pass;
    const char *name;
    Span span;
    ExperimentRunner &runner;
    const std::vector<const App *> &apps;
    SweepRunner sweep;
};

MachineConfig
config(SwitchModel model, int procs, int threads, Cycle latency = 200)
{
    return ExperimentRunner::makeConfig(model, procs, threads, latency);
}

std::uint64_t
sharedWord(Machine &m, const Program &prog, const char *name)
{
    return static_cast<std::uint64_t>(
        m.sharedMem().readInt(prog.sharedAddr(name)));
}

class Repro final : public Workload
{
  public:
    Repro() : specs(runnerSpecs()) {}

    void
    setup() override
    {
        for (const RunnerSpec &spec : specs) {
            auto runner = std::make_unique<ExperimentRunner>(spec.scale);
            for (const App *app : spec.apps)
                prepare(*runner, *app);
            in.runners[spec.driver] = std::move(runner);
            in.specs[spec.driver] = &spec;
        }
        // bench_fig4_grouping: sor before and after grouping, scale 1.
        group(assemble(sorApp().source(), sorApp().options(1.0)));
        in.lockKernel = group(assemble(runtimePrelude() + kLockKernel));
        in.centralBarrier = assemble(runtimePrelude() + kCentralBarrier);
        in.treeBarrier = assemble(runtimePrelude() + kTreeBarrier);
        in.priorityKernel =
            group(assemble(runtimePrelude() + kPriorityKernel));
        in.vtRaw = assemble(sieveApp().source(),
                            sieveApp().options(0.5 * kFast));
        in.vtGrouped = group(in.vtRaw);
    }

    void
    release() override
    {
        in = Inputs{};
    }

    void
    run(Pass &pass) override
    {
        const std::vector<const App *> &all = allApps();
        const std::size_t nApps = all.size();
        const std::size_t nModels = std::size(kAllModels);

        {
            Driver d(pass, in, "table1");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.run(*all[i], config(SwitchModel::Ideal, 1, 1, 0));
            });
        }
        {
            Driver d(pass, in, "fig1_models");
            d.references();
            for (const App *app : d.apps)
                d.fan(nModels, [&](std::size_t i) {
                    d.run(*app, config(kAllModels[i], 8, 6));
                });
        }
        {
            Driver d(pass, in, "fig2_ideal");
            constexpr int kProcs[] = {1, 2, 4, 8, 16, 32, 64, 128};
            constexpr std::size_t nP = std::size(kProcs);
            d.references();
            d.fan(nApps * nP, [&](std::size_t i) {
                d.run(*all[i / nP],
                      config(SwitchModel::Ideal, kProcs[i % nP], 1, 0));
            });
        }
        {
            Driver d(pass, in, "fig2_ideal.water");
            constexpr int kProcs[] = {7, 8, 9, 10, 11, 12};
            d.references();
            d.fan(std::size(kProcs), [&](std::size_t i) {
                d.run(waterApp(), config(SwitchModel::Ideal, kProcs[i], 1, 0));
            });
        }
        {
            Driver d(pass, in, "table2_runlength");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.run(*all[i], config(SwitchModel::SwitchOnLoad,
                                      all[i]->tableProcs(), 4));
            });
        }
        {
            Driver d(pass, in, "fig3_sieve");
            constexpr int kProcs[] = {1, 2, 4, 8, 16};
            constexpr int kLevels[] = {1, 2, 4, 6, 8, 10, 12, 14};
            d.references();
            // Row 0 is the ideal curve; rows 1.. sweep MT levels.
            d.fan(1 + std::size(kLevels), [&](std::size_t i) {
                for (int p : kProcs)
                    d.run(sieveApp(),
                          i == 0 ? config(SwitchModel::Ideal, p, 1, 0)
                                 : config(SwitchModel::SwitchOnLoad, p,
                                          kLevels[i - 1]));
            });
        }
        {
            Driver d(pass, in, "table3_sol");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.ladders(*all[i], config(SwitchModel::SwitchOnLoad,
                                          all[i]->tableProcs(), 1));
            });
        }
        {
            Driver d(pass, in, "table4_runlength_es");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.run(*all[i], config(SwitchModel::ExplicitSwitch,
                                      all[i]->tableProcs(), 4));
            });
            d.fan(nApps, [&](std::size_t i) {
                d.run(*all[i], config(SwitchModel::SwitchOnLoad,
                                      all[i]->tableProcs(), 4));
                d.run(*all[i], config(SwitchModel::ExplicitSwitch,
                                      all[i]->tableProcs(), 4));
            });
        }
        {
            Driver d(pass, in, "table5_es");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                const App &app = *all[i];
                d.ladders(app, config(SwitchModel::ExplicitSwitch,
                                      app.tableProcs(), 1));
                // Reorganization penalty: grouped code on one ideal
                // processor.
                const PreparedApp &pa = prepare(d.runner, app);
                MachineConfig ideal = config(SwitchModel::Ideal, 1, 1, 0);
                auto m = construct(pa.grouped, pa.groupedDecoded, ideal);
                initApp(app, *m);
                simulate(pass, *m);
                checkApp(app, *m);
                reference(d.runner, app);
            });
        }
        {
            Driver d(pass, in, "table6_interblock");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                MachineConfig cfg = config(SwitchModel::ExplicitSwitch,
                                           all[i]->tableProcs(), 4);
                d.run(*all[i], cfg);
                cfg.groupEstimate = true;
                d.run(*all[i], cfg);
            });
            d.fan(nApps, [&](std::size_t i) {
                MachineConfig base = config(SwitchModel::ExplicitSwitch,
                                            all[i]->tableProcs(), 1);
                base.groupEstimate = true;
                d.ladders(*all[i], base);
            });
        }
        {
            Driver d(pass, in, "table7_bandwidth");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.run(*all[i], config(SwitchModel::ExplicitSwitch,
                                      all[i]->tableProcs(), 6));
                d.run(*all[i], config(SwitchModel::ConditionalSwitch,
                                      all[i]->tableProcs(), 6));
            });
        }
        {
            Driver d(pass, in, "table8_cs");
            d.references();
            d.fan(nApps, [&](std::size_t i) {
                d.ladders(*all[i], config(SwitchModel::ConditionalSwitch,
                                          all[i]->tableProcs(), 1));
            });
        }
        {
            Driver d(pass, in, "dash_mp3d");
            constexpr int kLevels[] = {1, 2, 3, 4, 6, 8};
            const int procs = mp3dApp().tableProcs();
            d.references();
            d.fan(std::size(kLevels), [&](std::size_t i) {
                int mt = kLevels[i];
                d.run(mp3dApp(),
                      config(SwitchModel::SwitchOnMiss, procs, mt, 100));
                d.run(mp3dApp(),
                      config(SwitchModel::ExplicitSwitch, procs, mt));
                d.run(mp3dApp(),
                      config(SwitchModel::ConditionalSwitch, procs, mt));
            });
        }
        ablations(pass);
        extensions(pass);
        vthreads(pass);
    }

    std::map<std::string, double>
    layerMetrics(const Pass &traced) const override
    {
        // Every repro op is a fanned-out task.
        double busy = 0.0;
        for (double s : traced.opSeconds)
            busy += s;
        return {{"core.task_wait_s", traced.taskWaitS},
                {"core.worker_util",
                 traced.wallS > 0 ? busy / (kWorkers * traced.wallS) : 0.0}};
    }

  private:
    void
    ablations(Pass &pass)
    {
        Driver d(pass, in, "ablations");
        d.references();
        constexpr SwitchModel kModels[] = {SwitchModel::SwitchOnLoad,
                                           SwitchModel::ExplicitSwitch,
                                           SwitchModel::ConditionalSwitch};
        constexpr Cycle kLatencies[] = {0, 100, 200, 400, 800};
        constexpr std::size_t nLat = std::size(kLatencies);
        d.fan(std::size(kModels) * nLat, [&](std::size_t i) {
            d.run(sorApp(), config(kModels[i / nLat], 8, 8,
                                   kLatencies[i % nLat]));
        });

        // Slice limit vs lock contention.
        constexpr Cycle kLimits[] = {0, 100, 200, 400, 1000};
        d.fan(std::size(kLimits), [&](std::size_t i) {
            MachineConfig cfg = config(SwitchModel::ConditionalSwitch, 4, 2);
            cfg.sliceLimit = kLimits[i];
            cfg.maxCycles = 10'000'000;
            auto m = construct(in.lockKernel, cfg);
            simulate(pass, *m);
            if (sharedWord(*m, in.lockKernel, "counter") != 40 * 8)
                throw CheckFailed("lock kernel counter is wrong");
        });

        constexpr unsigned kSizes[] = {512, 2048, 8192};
        constexpr unsigned kLines[] = {2, 4, 8, 16};
        constexpr std::size_t nLines = std::size(kLines);
        d.fan(std::size(kSizes) * nLines, [&](std::size_t i) {
            MachineConfig cfg = config(SwitchModel::ConditionalSwitch, 8, 4);
            cfg.cache.sizeWords = kSizes[i / nLines];
            cfg.cache.lineWords = kLines[i % nLines];
            d.run(sieveApp(), cfg);
        });

        constexpr int kPenalties[] = {0, 3, 6, 12};
        d.fan(std::size(kPenalties), [&](std::size_t i) {
            MachineConfig cfg = config(SwitchModel::SwitchOnMiss, 8, 4);
            cfg.missSwitchPenalty = kPenalties[i];
            d.run(mp3dApp(), cfg);
        });
    }

    void
    extensions(Pass &pass)
    {
        Driver d(pass, in, "extensions");
        d.references();
        // Channel-width sweep, one op per cell.
        constexpr SwitchModel kModels[] = {SwitchModel::ExplicitSwitch,
                                           SwitchModel::ConditionalSwitch};
        constexpr std::uint64_t kBits[] = {0, 16, 8, 4, 2, 1};
        constexpr std::size_t nBits = std::size(kBits);
        d.fan(std::size(kModels) * nBits, [&](std::size_t i) {
            MachineConfig cfg = config(kModels[i / nBits], 8, 6);
            cfg.network.channelBits = kBits[i % nBits];
            d.run(sorApp(), cfg);
        });

        // Centralized vs combining-tree barrier under a hot spot.
        constexpr int kProcs[] = {4, 8, 16, 32, 64};
        d.fan(std::size(kProcs), [&](std::size_t i) {
            MachineConfig cfg =
                config(SwitchModel::SwitchOnLoad, kProcs[i], 1);
            cfg.network.memPortCycles = 32;
            for (const Program *prog : {&in.centralBarrier, &in.treeBarrier}) {
                auto m = construct(*prog, cfg);
                simulate(pass, *m);
            }
        });

        // Critical-region priority scheduling.
        d.fan(2, [&](std::size_t i) {
            MachineConfig cfg = config(SwitchModel::ConditionalSwitch, 4, 4);
            cfg.prioritySched = i == 1;
            auto m = construct(in.priorityKernel, cfg);
            simulate(pass, *m);
            if (sharedWord(*m, in.priorityKernel, "counter") != 30 * 16)
                throw CheckFailed("priority kernel counter is wrong");
        });
    }

    void
    vthreads(Pass &pass)
    {
        Driver d(pass, in, "vthreads");
        constexpr int kProcs = 16;
        constexpr int kContexts = 4;
        auto sim = [&](SwitchModel model, int ratio, Cycle quantum,
                       Cycle ctxCost) {
            MachineConfig cfg = config(model, kProcs, kContexts);
            if (ratio > 1) {
                cfg.swThreadsPerProc = kContexts * ratio;
                cfg.quantumCycles = quantum;
                cfg.ctxSwitchCost = ctxCost;
            }
            const Program &prog =
                modelNeedsSwitchInstr(model) ? in.vtGrouped : in.vtRaw;
            auto m = construct(prog, cfg);
            initApp(sieveApp(), *m);
            simulate(pass, *m);
            checkApp(sieveApp(), *m);
        };
        d.fan(std::size(kAllModels), [&](std::size_t i) {
            for (int ratio : {1, 2, 4})
                sim(kAllModels[i], ratio, 200, 4);
        });
        constexpr Cycle kQuanta[] = {50, 100, 200, 500, 1000};
        d.fan(std::size(kQuanta), [&](std::size_t i) {
            sim(SwitchModel::SwitchOnLoad, 4, kQuanta[i], 0);
            sim(SwitchModel::SwitchOnLoad, 4, kQuanta[i], 4);
        });
    }

    const std::vector<RunnerSpec> specs;
    Inputs in;
};

} // namespace

std::unique_ptr<Workload>
makeRepro()
{
    return std::make_unique<Repro>();
}

} // namespace perfbench
