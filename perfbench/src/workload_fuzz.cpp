/**
 * @file
 * `fuzz`: differential testing of generated programs, on one thread.
 * Programs have the default mtfuzz shape (4 threads, 10 segments,
 * 200-cycle round trip, all models, with the mesh, virtual-thread and
 * fused slices) and are generated from the workload seed in set-up.
 * Each op is one program through runDifferential, with no shrinking.
 * Each program builds about 61 small Machines, so per-program set-up
 * and the verify layer do most of the work: a change that speeds long
 * runs by adding per-Machine cost loses here.
 */
#include "bench.hpp"
#include "verify/differential.hpp"
#include "verify/program_gen.hpp"
#include "verify/reference_interp.hpp"

namespace perfbench
{

namespace
{

using namespace mts;

/** Enough programs that the op percentiles and the pass total barely
 *  depend on which programs a seed draws; few enough that a run makes
 *  several passes and reports their median. */
constexpr std::uint64_t kPrograms = 500;

class Fuzz final : public Workload
{
  public:
    explicit Fuzz(std::uint64_t seed) : firstSeed(seed * kPrograms) {}

    void
    setup() override
    {
        programs.reserve(kPrograms);
        for (std::uint64_t i = 0; i < kPrograms; ++i) {
            Span span("verify.gen");
            GenOptions gen;
            gen.seed = firstSeed + i;
            gen.threads = diff.threads;
            programs.push_back(generateProgram(gen).source);
        }
    }

    void
    release() override
    {
        programs.clear();
    }

    void
    run(Pass &pass) override
    {
        for (const std::string &source : programs) {
            pass.op("fuzz", [&] {
                DiffReport report;
                {
                    Span span("verify.diff");
                    report = runDifferential(source, diff);
                }
                pass.count([&](ExactCounts &c) {
                    c.machineRuns +=
                        static_cast<std::uint64_t>(report.machineRuns);
                    c.divergences += report.divergences.size();
                });
                if (!report.ok())
                    throw CheckFailed(report.summary());
            });
        }
    }

    /**
     * Repeats, outside the timed phase, the calls runDifferential makes
     * first on every program: assemble, group, and the reference run.
     * The traced run times them as replays; the reference runs' step
     * counts are the simulated instructions behind instr_per_s.
     */
    void
    replay() override
    {
        Span span("replay");
        refSteps = 0;
        RefOptions ref = diff.ref;
        ref.threads = diff.threads;
        for (const std::string &source : programs) {
            Program raw = assemble(runtimePrelude() + source);
            group(raw);
            Span refSpan("verify.ref");
            refSteps += runReference(raw, ref).steps;
        }
    }

    double
    instructions(const Pass &) const override
    {
        return static_cast<double>(refSteps);
    }

    std::map<std::string, std::uint64_t>
    exactExtras() const override
    {
        return {{"ref_steps", refSteps}};
    }

  private:
    const std::uint64_t firstSeed;
    const DiffOptions diff{};  ///< mtfuzz's defaults
    std::vector<std::string> programs;
    std::uint64_t refSteps = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFuzz(std::uint64_t seed)
{
    return std::make_unique<Fuzz>(seed);
}

} // namespace perfbench
