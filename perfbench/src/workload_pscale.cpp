/**
 * @file
 * `pscale`: single runs as P grows, on one thread. bench_psweep's
 * machine (sieve on the 2D mesh with the Dir_4 B limited-pointer
 * directory) under conditional-switch with 2 threads per processor at
 * P = 16, 64, 256 and 1024, plus the same P = 1024 run on the
 * constant-latency network. It is the only workload past P = 64, where
 * the event loop, mem routing and the cache directory do almost all the
 * work; the constant-latency point separates the O(P) slot-queue pop
 * from the mesh's 2-cycle lookahead.
 */
#include <array>

#include "bench.hpp"
#include "isa/decoded.hpp"

namespace perfbench
{

namespace
{

using namespace mts;

/** Small enough that the P = 1024 mesh run takes seconds, not minutes. */
constexpr double kScale = 0.01;
constexpr int kThreads = 2;

struct Point
{
    const char *name;  ///< suffix of the sim.ns_per_instr metric
    NetworkKind network;
    int procs;
};

constexpr std::array<Point, 5> kPoints = {{
    {"mesh.p16", NetworkKind::Mesh, 16},
    {"mesh.p64", NetworkKind::Mesh, 64},
    {"mesh.p256", NetworkKind::Mesh, 256},
    {"mesh.p1024", NetworkKind::Mesh, 1024},
    {"const.p1024", NetworkKind::ConstantLatency, 1024},
}};

class Pscale final : public Workload
{
  public:
    void
    setup() override
    {
        const App &app = sieveApp();
        Program raw = assemble(app.source(), app.options(kScale));
        auto grouped = std::make_shared<const Program>(group(raw));
        auto decoded = std::make_shared<const DecodedProgram>(
            decode(*grouped));
        for (std::size_t i = 0; i < kPoints.size(); ++i) {
            MachineConfig cfg = ExperimentRunner::makeConfig(
                SwitchModel::ConditionalSwitch, kPoints[i].procs, kThreads);
            cfg.network.kind = kPoints[i].network;
            cfg.directory.mode = DirectoryMode::LimitedPtr;
            cfg.directory.pointers = 4;
            machines[i] = construct(grouped, decoded, cfg);
            initApp(app, *machines[i]);
        }
    }

    void
    release() override
    {
        for (auto &m : machines)
            m.reset();
    }

    void
    run(Pass &pass) override
    {
        runs = {};
        for (std::size_t i = 0; i < kPoints.size(); ++i) {
            pass.op(kPoints[i].name, [&] {
                Machine &m = *machines[i];
                Clock::time_point t0 = Clock::now();
                RunResult r = simulate(pass, m);
                runs[i] = {secondsSince(t0), r.cpu.instructions, r.cycles};
                checkApp(sieveApp(), m);
            });
            machines[i].reset();
        }
    }

    std::map<std::string, double>
    layerMetrics(const Pass &) const override
    {
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < kPoints.size(); ++i) {
            const Timing &t = runs[i];
            out[std::string("sim.ns_per_instr.") + kPoints[i].name] =
                t.instructions ? t.seconds * 1e9 / t.instructions : 0.0;
        }
        // Host time per simulated processor-cycle of the P = 1024 mesh.
        const Timing &big = runs[3];
        out["sim.ns_per_proc_cycle.mesh.p1024"] =
            big.cycles ? big.seconds * 1e9 /
                             (static_cast<double>(big.cycles) *
                              kPoints[3].procs)
                       : 0.0;
        return out;
    }

  private:
    /** Machine::run of one point in the last pass. */
    struct Timing
    {
        double seconds = 0.0;
        std::uint64_t instructions = 0;
        Cycle cycles = 0;
    };

    std::array<std::unique_ptr<Machine>, kPoints.size()> machines;
    std::array<Timing, kPoints.size()> runs{};
};

} // namespace

std::unique_ptr<Workload>
makePscale()
{
    return std::make_unique<Pscale>();
}

} // namespace perfbench
