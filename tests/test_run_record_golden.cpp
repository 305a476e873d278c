/**
 * @file
 * Golden-file tests of the `mts.run/1` record (`mtsim --json`, the bench
 * Reporter's attached records). Each case runs a small sieve and pins
 * the whole JSON text of makeRunRecord, so any change to which metrics
 * a run publishes, their names, order or values shows up as a diff.
 *
 * Together the cases cover every optional scope: cache, estimate
 * (groupEstimate on), link (mesh), sched (virtual threading), fuse (the
 * default fused tier) and directory (limited pointers).
 *
 * Expected outputs live in tests/golden/; regenerate intentionally
 * changed ones with `mtsim_verify_tests --update-golden`.
 */
#include <gtest/gtest.h>

#include "core/mtsim.hpp"
#include "golden.hpp"
#include "metrics/run_record.hpp"

using namespace mts;

namespace
{

void
expectRecordMatchesGolden(const std::string &golden,
                          const MachineConfig &cfg)
{
    ExperimentRunner runner(0.05);
    ExperimentRun run = runner.run(sieveApp(), cfg);
    RunRecord rec = makeRunRecord(run.result, cfg, "sieve");
    test::compareGolden(golden, rec.toJson().dump(2) + "\n");
}

} // namespace

TEST(RunRecordGolden, CachedWithGroupEstimate)
{
    MachineConfig cfg = ExperimentRunner::makeConfig(
        SwitchModel::ConditionalSwitch, 2, 2, 200);
    cfg.groupEstimate = true;
    expectRecordMatchesGolden("run_record_cached.json", cfg);
}

TEST(RunRecordGolden, MeshWithVirtualThreads)
{
    MachineConfig cfg = ExperimentRunner::makeConfig(
        SwitchModel::SwitchOnLoad, 4, 2, 200);
    cfg.network.kind = NetworkKind::Mesh;
    cfg.swThreadsPerProc = 4;
    cfg.quantumCycles = 500;
    cfg.ctxSwitchCost = 4;
    expectRecordMatchesGolden("run_record_mesh_vthreads.json", cfg);
}

TEST(RunRecordGolden, LimitedDirectory)
{
    MachineConfig cfg = ExperimentRunner::makeConfig(
        SwitchModel::SwitchOnMiss, 4, 2, 200);
    cfg.directory.mode = DirectoryMode::LimitedPtr;
    cfg.directory.pointers = 1;
    expectRecordMatchesGolden("run_record_limited_dir.json", cfg);
}
