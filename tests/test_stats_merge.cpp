/**
 * @file
 * Pins the merge() semantics of the per-component stat structs.
 * Machine::run sums each processor's CpuStats, CacheStats, SchedStats
 * and FuseStats with these merges, so every machine-wide total a run
 * reports (and every mts.run/1 metric built from it) rests on them.
 */
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cpu/cpu_stats.hpp"
#include "cpu/fuse_stats.hpp"
#include "cpu/sched_stats.hpp"
#include "mem/network.hpp"

using namespace mts;

namespace
{

CpuStats
sampleCpu(std::uint64_t base, Cycle finish)
{
    CpuStats s;
    s.instructions = base + 1;
    s.busyCycles = base + 2;
    s.stallCycles = base + 3;
    s.idleCycles = base + 4;
    s.switchesTaken = base + 5;
    s.switchesSkipped = base + 6;
    s.sliceLimitSwitches = base + 7;
    s.zeroRuns = base + 13;
    s.sharedLoads = base + 8;
    s.spinLoads = base + 9;
    s.sharedStores = base + 10;
    s.fetchAdds = base + 11;
    s.estimateHits = base + 12;
    s.finishTime = finish;
    s.runLengths.add(base + 1);
    s.runLengths.add(2 * base + 1);
    return s;
}

} // namespace

TEST(StatsMerge, CpuStatsSumsEveryCounter)
{
    CpuStats a = sampleCpu(100, 500);
    CpuStats b = sampleCpu(1000, 400);
    a.merge(b);
    EXPECT_EQ(a.instructions, 101u + 1001u);
    EXPECT_EQ(a.busyCycles, 102u + 1002u);
    EXPECT_EQ(a.stallCycles, 103u + 1003u);
    EXPECT_EQ(a.idleCycles, 104u + 1004u);
    EXPECT_EQ(a.switchesTaken, 105u + 1005u);
    EXPECT_EQ(a.switchesSkipped, 106u + 1006u);
    EXPECT_EQ(a.sliceLimitSwitches, 107u + 1007u);
    EXPECT_EQ(a.zeroRuns, 113u + 1013u);
    EXPECT_EQ(a.sharedLoads, 108u + 1008u);
    EXPECT_EQ(a.spinLoads, 109u + 1009u);
    EXPECT_EQ(a.sharedStores, 110u + 1010u);
    EXPECT_EQ(a.fetchAdds, 111u + 1011u);
    EXPECT_EQ(a.estimateHits, 112u + 1012u);
}

TEST(StatsMerge, CpuStatsFinishTimeIsMax)
{
    CpuStats early = sampleCpu(1, 100);
    CpuStats late = sampleCpu(1, 900);
    CpuStats a = early;
    a.merge(late);
    EXPECT_EQ(a.finishTime, 900u);
    CpuStats b = late;
    b.merge(early);
    EXPECT_EQ(b.finishTime, 900u);
}

TEST(StatsMerge, CpuStatsRunLengthHistogramsConcatenate)
{
    CpuStats a, b;
    a.runLengths.add(3);
    a.runLengths.add(5);
    b.runLengths.add(3, 2);
    a.merge(b);
    EXPECT_EQ(a.runLengths.count(), 4u);
    EXPECT_DOUBLE_EQ(a.runLengths.fractionAt(3), 3.0 / 4);
    EXPECT_DOUBLE_EQ(a.runLengths.mean(), (3 + 5 + 3 + 3) / 4.0);
}

TEST(StatsMerge, CpuStatsMergeWithDefaultIsIdentity)
{
    CpuStats a = sampleCpu(7, 77);
    CpuStats before = a;
    a.merge(CpuStats{});
    EXPECT_EQ(a.instructions, before.instructions);
    EXPECT_EQ(a.finishTime, before.finishTime);
    EXPECT_EQ(a.runLengths.count(), before.runLengths.count());
}

TEST(StatsMerge, NetworkStatsSumsAllFields)
{
    NetworkStats a, b;
    a.messages = 3;
    a.forwardBits = 100;
    a.returnBits = 200;
    a.loadMsgs = 1;
    a.storeMsgs = 2;
    a.faaMsgs = 3;
    a.fillMsgs = 4;
    a.invalMsgs = 5;
    a.spinMsgs = 6;
    a.pairMsgs = 7;
    b = a;
    a.merge(b);
    EXPECT_EQ(a.messages, 6u);
    EXPECT_EQ(a.forwardBits, 200u);
    EXPECT_EQ(a.returnBits, 400u);
    EXPECT_EQ(a.loadMsgs, 2u);
    EXPECT_EQ(a.storeMsgs, 4u);
    EXPECT_EQ(a.faaMsgs, 6u);
    EXPECT_EQ(a.fillMsgs, 8u);
    EXPECT_EQ(a.invalMsgs, 10u);
    EXPECT_EQ(a.spinMsgs, 12u);
    EXPECT_EQ(a.pairMsgs, 14u);
    EXPECT_EQ(a.totalBits(), 600u);
}

TEST(StatsMerge, CacheStatsSumsAndHitRateFollows)
{
    CacheStats a, b;
    a.hits = 90;
    a.misses = 5;
    a.mergedMisses = 5;
    a.invalidationsReceived = 2;
    a.storeThroughs = 7;
    b.hits = 10;
    b.misses = 85;
    b.mergedMisses = 5;
    b.invalidationsReceived = 1;
    b.storeThroughs = 3;
    a.merge(b);
    EXPECT_EQ(a.hits, 100u);
    EXPECT_EQ(a.misses, 90u);
    EXPECT_EQ(a.mergedMisses, 10u);
    EXPECT_EQ(a.invalidationsReceived, 3u);
    EXPECT_EQ(a.storeThroughs, 10u);
    EXPECT_DOUBLE_EQ(a.hitRate(), 100.0 / 200.0);
}

TEST(StatsMerge, HistogramMergePreservesSumAndCount)
{
    Histogram a, b;
    a.add(1);
    a.add(17);
    b.add(1000, 3);
    std::uint64_t wantCount = a.count() + b.count();
    std::uint64_t wantSum = a.sum() + b.sum();
    a.merge(b);
    EXPECT_EQ(a.count(), wantCount);
    EXPECT_EQ(a.sum(), wantSum);
    EXPECT_DOUBLE_EQ(a.fractionAt(1000), 3.0 / 5);
}

TEST(StatsMerge, MergeIsOrderIndependent)
{
    CpuStats x = sampleCpu(10, 50), y = sampleCpu(20, 60),
             z = sampleCpu(30, 40);
    CpuStats ab = x;
    ab.merge(y);
    ab.merge(z);
    CpuStats ba = z;
    ba.merge(x);
    ba.merge(y);
    EXPECT_EQ(ab.instructions, ba.instructions);
    EXPECT_EQ(ab.finishTime, ba.finishTime);
    EXPECT_EQ(ab.runLengths.count(), ba.runLengths.count());
    EXPECT_DOUBLE_EQ(ab.runLengths.mean(), ba.runLengths.mean());
}

TEST(StatsMerge, SchedStatsSumsEveryCounter)
{
    SchedStats a, b;
    a.preemptions = 1;
    a.saveCycles = 2;
    a.restoreCycles = 3;
    a.blockSwitches = 4;
    a.haltInstalls = 5;
    a.requeues = 6;
    b.preemptions = 10;
    b.saveCycles = 20;
    b.restoreCycles = 30;
    b.blockSwitches = 40;
    b.haltInstalls = 50;
    b.requeues = 60;
    a.merge(b);
    EXPECT_EQ(a.preemptions, 11u);
    EXPECT_EQ(a.saveCycles, 22u);
    EXPECT_EQ(a.restoreCycles, 33u);
    EXPECT_EQ(a.blockSwitches, 44u);
    EXPECT_EQ(a.haltInstalls, 55u);
    EXPECT_EQ(a.requeues, 66u);
}

TEST(StatsMerge, SchedStatsQueueDepthHistogramsConcatenate)
{
    SchedStats a, b;
    a.queueDepth.add(1);
    a.queueDepth.add(6);
    b.queueDepth.add(1, 2);
    a.merge(b);
    EXPECT_EQ(a.queueDepth.count(), 4u);
    EXPECT_EQ(a.queueDepth.sum(), 1u + 6u + 2u);
    EXPECT_DOUBLE_EQ(a.queueDepth.fractionAt(1), 3.0 / 4);
}

TEST(StatsMerge, FuseStatsSumsEveryCounter)
{
    FuseStats a, b;
    a.spans = 1;
    a.execs = 2;
    a.instructions = 3;
    a.bailoutWatermark = 4;
    a.bailoutBudget = 5;
    b.spans = 10;
    b.execs = 20;
    b.instructions = 30;
    b.bailoutWatermark = 40;
    b.bailoutBudget = 50;
    a.merge(b);
    EXPECT_EQ(a.spans, 11u);
    EXPECT_EQ(a.execs, 22u);
    EXPECT_EQ(a.instructions, 33u);
    EXPECT_EQ(a.bailoutWatermark, 44u);
    EXPECT_EQ(a.bailoutBudget, 55u);
}
