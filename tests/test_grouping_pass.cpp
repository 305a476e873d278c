/**
 * Tests of the grouping compiler pass (paper Section 5.1), including the
 * semantic-equivalence property the pass must preserve.
 */
#include <gtest/gtest.h>

#include "opt/basic_blocks.hpp"
#include "test_helpers.hpp"

using namespace mts;
using namespace mts::test;

namespace
{

std::size_t
countOp(const Program &p, Opcode op)
{
    std::size_t n = 0;
    for (const auto &inst : p.code)
        if (inst.op == op)
            ++n;
    return n;
}

} // namespace

TEST(BasicBlocks, LeadersAtLabelsTargetsAndAfterControl)
{
    Program p = assemble(R"(
main:
    li  r1, 0
loop:
    add r1, r1, 1
    blt r1, 10, loop
    li  r2, 5
    j   end
mid:
    nop
end:
    halt
)");
    auto blocks = findBasicBlocks(p);
    // main[0..1), loop[1..3), [3..5), mid[5..6), end[6..7)
    ASSERT_EQ(blocks.size(), 5u);
    EXPECT_EQ(blocks[0].begin, 0);
    EXPECT_EQ(blocks[1].begin, 1);
    EXPECT_EQ(blocks[1].end, 3);
    EXPECT_EQ(blocks[2].begin, 3);
    EXPECT_EQ(blocks[3].begin, 5);
    EXPECT_EQ(blocks[4].begin, 6);
}

TEST(GroupingPass, SorStyleFiveLoadsFormOneGroup)
{
    // The paper's Figure 4: five independent loads, one cswitch.
    // Loads interleaved with independent fp work: the pass must hoist
    // all five into one group above the unrelated fadds.
    Program p = assemble(R"(
.shared u, 100
main:
    li   r1, u
    flds f1, 10(r1)
    fadd f8, f10, f11
    flds f2, 30(r1)
    fadd f9, f8, f10
    flds f3, 19(r1)
    flds f4, 21(r1)
    flds f5, 20(r1)
    fadd f6, f1, f2
    fadd f7, f3, f4
    halt
)");
    GroupingStats gs;
    Program g = applyGroupingPass(p, &gs);
    EXPECT_EQ(countOp(g, Opcode::CSWITCH), 1u);
    EXPECT_EQ(gs.loadGroups, 1u);
    EXPECT_DOUBLE_EQ(gs.staticGroupingFactor(), 5.0);
    // All five loads precede the cswitch.
    std::size_t switchPos = 0;
    for (std::size_t i = 0; i < g.code.size(); ++i)
        if (g.code[i].op == Opcode::CSWITCH)
            switchPos = i;
    std::size_t loadsBefore = 0;
    for (std::size_t i = 0; i < switchPos; ++i)
        if (g.code[i].op == Opcode::FLDS)
            ++loadsBefore;
    EXPECT_EQ(loadsBefore, 5u);
}

TEST(GroupingPass, DependentLoadsSplitIntoTwoGroups)
{
    // Pointer chase: the second load's address needs the first's value.
    Program p = assemble(R"(
.shared a, 10
main:
    li  r1, a
    lds r2, 0(r1)
    lds r3, 0(r2)
    halt
)");
    GroupingStats gs;
    Program g = applyGroupingPass(p, &gs);
    EXPECT_EQ(countOp(g, Opcode::CSWITCH), 2u);
    EXPECT_EQ(gs.loadGroups, 2u);
}

TEST(GroupingPass, PessimisticSharedStoreAliasing)
{
    // A store between two loads must not be crossed (paper footnote 1),
    // even though the addresses are statically distinct.
    Program p = assemble(R"(
.shared a, 10
main:
    li  r1, a
    lds r2, 0(r1)
    sts r2, 5(r1)
    lds r3, 1(r1)
    halt
)");
    Program g = applyGroupingPass(p, nullptr);
    // Order must remain load, store, load.
    std::vector<Opcode> memOps;
    for (const auto &inst : g.code)
        if (isSharedMem(inst.op))
            memOps.push_back(inst.op);
    ASSERT_EQ(memOps.size(), 3u);
    EXPECT_EQ(memOps[0], Opcode::LDS);
    EXPECT_EQ(memOps[1], Opcode::STS);
    EXPECT_EQ(memOps[2], Opcode::LDS);
    EXPECT_EQ(countOp(g, Opcode::CSWITCH), 2u);
}

TEST(GroupingPass, LocalDisjointAccessesMayReorder)
{
    // Two local stores at distinct offsets from the same base do not
    // block hoisting the second shared load over them.
    Program p = assemble(R"(
.shared a, 10
main:
    li  r1, a
    lds r2, 0(r1)
    stl r2, 0(sp)
    lds r3, 1(r1)
    halt
)");
    GroupingStats gs;
    Program g = applyGroupingPass(p, &gs);
    // stl depends on r2 (RAW) so it cannot move above the wait, but the
    // second load is independent and joins the first group.
    EXPECT_EQ(countOp(g, Opcode::CSWITCH), 1u);
    EXPECT_DOUBLE_EQ(gs.staticGroupingFactor(), 2.0);
}

TEST(GroupingPass, GroupsNeverCrossBasicBlocks)
{
    Program p = assemble(R"(
.shared a, 10
main:
    li  r1, a
    lds r2, 0(r1)
    beq r2, r0, skip
    lds r3, 1(r1)
skip:
    halt
)");
    GroupingStats gs;
    Program g = applyGroupingPass(p, &gs);
    EXPECT_EQ(countOp(g, Opcode::CSWITCH), 2u);
}

TEST(GroupingPass, BranchConsumingLoadGetsSwitchFirst)
{
    Program p = assemble(R"(
.shared a, 10
main:
    li  r1, a
    lds r2, 0(r1)
    bne r2, r0, main
    halt
)");
    Program g = applyGroupingPass(p, nullptr);
    // Sequence must be ... lds, cswitch, bne.
    std::size_t i = 0;
    while (g.code[i].op != Opcode::LDS)
        ++i;
    EXPECT_EQ(g.code[i + 1].op, Opcode::CSWITCH);
    EXPECT_EQ(g.code[i + 2].op, Opcode::BNE);
}

TEST(GroupingPass, IdempotentOnItsOwnOutput)
{
    Program p = assemble(R"(
.shared u, 100
main:
    li   r1, u
    flds f1, 0(r1)
    flds f2, 1(r1)
    fadd f3, f1, f2
    halt
)");
    Program once = applyGroupingPass(p, nullptr);
    Program twice = applyGroupingPass(once, nullptr);
    ASSERT_EQ(once.code.size(), twice.code.size());
    for (std::size_t i = 0; i < once.code.size(); ++i)
        EXPECT_EQ(once.code[i].op, twice.code[i].op) << "at " << i;
}

TEST(GroupingPass, BranchTargetsRemappedCorrectly)
{
    Program p = assemble(R"(
.shared a, 4
main:
    li  r4, 0
loop:
    lds r2, a
    add r4, r4, 1
    blt r4, 3, loop
    sts r4, a+1
    halt
)");
    Program g = applyGroupingPass(p, nullptr);
    // Run both: same result.
    MachineConfig cfg = miniConfig();
    Machine m1(p, cfg);
    m1.run();
    MachineConfig cfg2 = miniConfig();
    cfg2.model = SwitchModel::ExplicitSwitch;
    Machine m2(g, cfg2);
    m2.run();
    EXPECT_EQ(m1.sharedMem().readInt(p.sharedAddr("a") + 1),
              m2.sharedMem().readInt(g.sharedAddr("a") + 1));
}

TEST(GroupingPass, EntrySymbolSurvives)
{
    Program p = assemble(R"(
.entry main
helper:
    ret
main:
    halt
)");
    Program g = applyGroupingPass(p, nullptr);
    EXPECT_EQ(g.code[g.entry].op, Opcode::HALT);
    EXPECT_EQ(g.labelFor(g.entry), "main");
}

TEST(GroupingPass, SpinLoadsStayOrderedWithSharedAccesses)
{
    // A spin load is a synchronization access; a later shared load must
    // not be hoisted above it.
    Program p = assemble(R"(
.shared f, 1
.shared d, 1
main:
    lds.spin r1, f
    lds r2, d
    halt
)");
    Program g = applyGroupingPass(p, nullptr);
    std::size_t spinPos = 0, loadPos = 0;
    for (std::size_t i = 0; i < g.code.size(); ++i) {
        if (g.code[i].op == Opcode::LDS_SPIN)
            spinPos = i;
        if (g.code[i].op == Opcode::LDS)
            loadPos = i;
    }
    EXPECT_LT(spinPos, loadPos);
}

// ---- The big property: the pass preserves application semantics. ----

namespace
{

/**
 * One app per case, printed as its name. Test discovery names each case
 * after its printed parameter, and a bare `const App *` would print as
 * an address, which moves with every relink.
 */
struct AppParam
{
    const App *app;
};

void
PrintTo(const AppParam &p, std::ostream *os)
{
    *os << p.app->name();
}

std::vector<AppParam>
appParams()
{
    std::vector<AppParam> params;
    for (const App *app : allApps())
        params.push_back({app});
    return params;
}

} // namespace

class GroupingSemanticsProperty
    : public ::testing::TestWithParam<AppParam>
{
};

TEST_P(GroupingSemanticsProperty, GroupedCodeComputesSameResults)
{
    const App &app = *GetParam().app;
    AsmOptions opts = app.options(0.05);
    Program original = assemble(app.source(), opts);
    GroupingStats gs;
    Program grouped = applyGroupingPass(original, &gs);
    EXPECT_EQ(gs.instructionsOut,
              gs.instructionsIn + gs.switchesInserted);

    // Original under switch-on-load.
    MachineConfig cfg = miniConfig();
    cfg.numProcs = 2;
    cfg.threadsPerProc = 2;
    Machine m1(original, cfg);
    app.init(m1);
    m1.run();
    AppCheckResult r1 = app.check(m1);
    EXPECT_TRUE(r1.ok) << r1.message;

    // Grouped under explicit-switch.
    MachineConfig cfg2 = cfg;
    cfg2.model = SwitchModel::ExplicitSwitch;
    Machine m2(grouped, cfg2);
    app.init(m2);
    m2.run();
    AppCheckResult r2 = app.check(m2);
    EXPECT_TRUE(r2.ok) << r2.message;
}

INSTANTIATE_TEST_SUITE_P(AllApps, GroupingSemanticsProperty,
                         ::testing::ValuesIn(appParams()));
