/**
 * @file
 * MetricsRegistry: typed metrics, JSON nesting, RunRecord emission, and
 * the one registry Machine::run builds from its totals (including the
 * tracer metrics-snapshot hook).
 */
#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "core/mtsim.hpp"
#include "metrics/metrics.hpp"
#include "metrics/run_record.hpp"
#include "test_helpers.hpp"

using namespace mts;

TEST(MetricsRegistry, CountersAccumulate)
{
    MetricsRegistry reg;
    reg.add("cpu.p0.instructions", 10);
    reg.add("cpu.p0.instructions", 5);
    EXPECT_EQ(reg.counter("cpu.p0.instructions"), 15u);
    EXPECT_EQ(reg.counter("missing"), 0u);
    EXPECT_TRUE(reg.contains("cpu.p0.instructions"));
    EXPECT_FALSE(reg.contains("missing"));
}

TEST(MetricsRegistry, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.add("x", 1);
    EXPECT_THROW(reg.set("x", 1.0), FatalError);
    EXPECT_THROW(reg.histogram("x"), FatalError);
    EXPECT_THROW(reg.hist("x"), FatalError);
}

TEST(MetricsRegistry, ToJsonNestsScopes)
{
    MetricsRegistry reg;
    reg.add("cpu.p0.instructions", 42);
    reg.set("derived.utilization", 0.5);
    reg.histogram("cpu.p0.run_lengths").add(4, 3);
    JsonValue j = reg.toJson();
    EXPECT_EQ(
        j.find("cpu")->find("p0")->find("instructions")->asUint(), 42u);
    EXPECT_DOUBLE_EQ(j.find("derived")->find("utilization")->asNumber(),
                     0.5);
    const JsonValue *h = j.find("cpu")->find("p0")->find("run_lengths");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->asUint(), 3u);
    EXPECT_EQ(h->find("buckets")->find("3-4")->asUint(), 3u);
}

namespace
{

/** Captures the end-of-run metrics snapshot. */
class SnapshotTracer : public Tracer
{
  public:
    void
    onMetricsSnapshot(Cycle cycle, const MetricsRegistry &metrics) override
    {
        snapshotCycle = cycle;
        instructions = metrics.counter("cpu.instructions");
        calls++;
    }

    Cycle snapshotCycle = 0;
    std::uint64_t instructions = 0;
    int calls = 0;
};

} // namespace

TEST(MetricsEndToEnd, MachinePublishesPerProcAndTotalScopes)
{
    const std::string src = R"(
.shared arr, 16
main:
    li  r8, 5
    li  r9, 0
    li  r11, arr
loop:
    lds r10, 0(r11)
    add r11, r11, 1
    add r9, r9, 1
    blt r9, r8, loop
    halt
)";
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.threadsPerProc = 1;
    cfg.model = SwitchModel::SwitchOnLoad;
    cfg.network.roundTrip = 200;
    SnapshotTracer tracer;
    cfg.tracer = &tracer;
    Machine m(assemble(src), cfg);
    RunResult r = m.run();

    // Registry totals equal the merged structs they were built from,
    // and the merge sums the per-processor structs.
    EXPECT_EQ(r.metrics.counter("cpu.instructions"), r.cpu.instructions);
    EXPECT_GT(m.processor(0).stats.instructions, 0u);
    EXPECT_EQ(m.processor(0).stats.instructions +
                  m.processor(1).stats.instructions,
              r.cpu.instructions);
    EXPECT_EQ(r.metrics.counter("cpu.finish_time"), r.cycles);
    EXPECT_EQ(r.metrics.counter("net.messages"), r.net.messages);
    ASSERT_NE(r.metrics.hist("cpu.run_lengths"), nullptr);
    EXPECT_EQ(r.metrics.hist("cpu.run_lengths")->count(),
              r.cpu.runLengths.count());

    // The tracer saw the same snapshot.
    EXPECT_EQ(tracer.calls, 1);
    EXPECT_EQ(tracer.snapshotCycle, r.cycles);
    EXPECT_EQ(tracer.instructions, r.cpu.instructions);
}

TEST(RunRecordTest, CarriesConfigAndHeadlineMetrics)
{
    ExperimentRunner runner(0.2);
    auto cfg = ExperimentRunner::makeConfig(SwitchModel::SwitchOnLoad, 2,
                                            2, 200);
    ExperimentRun run = runner.run(sieveApp(), cfg);

    const RunRecord &rec = run.record;
    EXPECT_EQ(rec.app, "sieve");
    EXPECT_EQ(rec.model, "switch-on-load");
    EXPECT_EQ(rec.numProcs, 2);
    EXPECT_EQ(rec.threadsPerProc, 2);
    EXPECT_EQ(rec.latency, 200u);
    EXPECT_EQ(rec.cycles, run.result.cycles);
    EXPECT_TRUE(rec.hasEfficiency);
    EXPECT_DOUBLE_EQ(rec.efficiency, run.efficiency);
    EXPECT_EQ(rec.referenceCycles, run.referenceCycles);
    EXPECT_EQ(rec.metrics.counter("cpu.instructions"),
              run.result.cpu.instructions);

    // The JSON form round-trips the headline numbers.
    JsonValue j = parseJson(rec.toJson().dump(2));
    EXPECT_EQ(j.find("schema")->asString(), "mts.run/1");
    EXPECT_EQ(j.find("app")->asString(), "sieve");
    EXPECT_EQ(j.find("cycles")->asUint(), run.result.cycles);
    EXPECT_DOUBLE_EQ(j.find("efficiency")->asNumber(), run.efficiency);
    EXPECT_EQ(j.find("metrics")
                  ->find("cpu")
                  ->find("instructions")
                  ->asUint(),
              run.result.cpu.instructions);
}

TEST(ReporterTest, BenchSchemaMatchesRenderedTable)
{
    // Schema-shape smoke test for the mts.bench/1 documents the bench
    // drivers emit: rows keyed by column name, cell values exactly as
    // printed, notes and attached records carried through.
    using mts::bench::Reporter;
    char prog[] = "bench_demo";
    char *argv[] = {prog, nullptr};
    Reporter rep("demo", 1, argv);
    testing::internal::CaptureStdout();
    rep.banner("Demo table", 0.5);

    Table t("Demo: one row");
    t.header({"Application", "Cycles"});
    t.row({"sieve", "123"});
    rep.table(t);
    rep.note("trailing note");

    RunRecord rec;
    rec.app = "sieve";
    rec.cycles = 123;
    rep.attach(rec);
    std::string text = testing::internal::GetCapturedStdout();
    EXPECT_NE(text.find("Demo: one row"), std::string::npos);
    EXPECT_NE(text.find("trailing note"), std::string::npos);

    JsonValue j = parseJson(rep.toJson().dump(2));
    EXPECT_EQ(j.find("schema")->asString(), "mts.bench/1");
    EXPECT_EQ(j.find("bench")->asString(), "demo");
    EXPECT_EQ(j.find("title")->asString(), "Demo table");
    EXPECT_DOUBLE_EQ(j.find("scale")->asNumber(), 0.5);
    ASSERT_EQ(j.find("tables")->size(), 1u);
    const JsonValue &jt = j.find("tables")->at(0);
    EXPECT_EQ(jt.find("title")->asString(), "Demo: one row");
    ASSERT_EQ(jt.find("rows")->size(), 1u);
    EXPECT_EQ(jt.find("rows")->at(0).find("Application")->asString(),
              "sieve");
    EXPECT_EQ(jt.find("rows")->at(0).find("Cycles")->asString(), "123");
    ASSERT_EQ(j.find("notes")->size(), 1u);
    EXPECT_EQ(j.find("notes")->at(0).asString(), "trailing note");
    ASSERT_EQ(j.find("records")->size(), 1u);
    EXPECT_EQ(j.find("records")->at(0).find("app")->asString(), "sieve");
    EXPECT_EQ(j.find("records")->at(0).find("cycles")->asUint(), 123u);
}
