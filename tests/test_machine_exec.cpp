#include <gtest/gtest.h>

#include "test_helpers.hpp"

using namespace mts;
using namespace mts::test;

namespace
{

/** Run "result = a OP b" through the machine and return the result. */
std::int64_t
evalIntOp(const std::string &op, std::int64_t a, std::int64_t b)
{
    std::string src = ".shared result, 1\nmain:\n";
    src += "    li r8, " + std::to_string(a) + "\n";
    src += "    li r9, " + std::to_string(b) + "\n";
    src += "    " + op + " r10, r8, r9\n";
    src += "    sts r10, result\n    halt\n";
    return runAsm(src).sharedInt("result");
}

double
evalFpOp(const std::string &op, double a, double b, bool unary = false)
{
    char buf[64];
    std::string src = ".shared result, 1\nmain:\n";
    std::snprintf(buf, sizeof(buf), "    fli f1, %.17g\n", a);
    src += buf;
    std::snprintf(buf, sizeof(buf), "    fli f2, %.17g\n", b);
    src += buf;
    src += unary ? "    " + op + " f3, f1\n"
                 : "    " + op + " f3, f1, f2\n";
    src += "    fsts f3, result\n    halt\n";
    return runAsm(src).sharedDouble("result");
}

} // namespace

struct IntOpCase
{
    const char *op;
    std::int64_t a, b, expect;
};

// Test discovery names each case after its printed parameter. Print
// the operation ("add(3,4)"), not the struct's bytes: those start with
// the op pointer, which moves with every relink.
void
PrintTo(const IntOpCase &c, std::ostream *os)
{
    *os << c.op << "(" << c.a << "," << c.b << ")";
}

class IntAluTest : public ::testing::TestWithParam<IntOpCase>
{
};

TEST_P(IntAluTest, ComputesExpectedValue)
{
    const IntOpCase &c = GetParam();
    EXPECT_EQ(evalIntOp(c.op, c.a, c.b), c.expect)
        << c.op << " " << c.a << ", " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    AllIntOps, IntAluTest,
    ::testing::Values(
        IntOpCase{"add", 3, 4, 7}, IntOpCase{"add", -3, 4, 1},
        IntOpCase{"sub", 3, 4, -1}, IntOpCase{"sub", -5, -5, 0},
        IntOpCase{"mul", 7, -6, -42}, IntOpCase{"mul", 1 << 20, 1 << 20,
                                                1ll << 40},
        IntOpCase{"div", 42, 5, 8}, IntOpCase{"div", -42, 5, -8},
        IntOpCase{"rem", 42, 5, 2}, IntOpCase{"rem", -42, 5, -2},
        IntOpCase{"and", 0b1100, 0b1010, 0b1000},
        IntOpCase{"or", 0b1100, 0b1010, 0b1110},
        IntOpCase{"xor", 0b1100, 0b1010, 0b0110},
        IntOpCase{"sll", 3, 4, 48}, IntOpCase{"srl", 48, 4, 3},
        IntOpCase{"sra", -16, 2, -4}, IntOpCase{"slt", 3, 4, 1},
        IntOpCase{"slt", 4, 3, 0}, IntOpCase{"slt", -1, 0, 1},
        IntOpCase{"sle", 4, 4, 1}, IntOpCase{"sle", 5, 4, 0},
        IntOpCase{"seq", 9, 9, 1}, IntOpCase{"seq", 9, 8, 0},
        IntOpCase{"sne", 9, 8, 1}, IntOpCase{"sne", 9, 9, 0}));

TEST(MachineExec, AddWrapsWithoutUb)
{
    // INT64_MAX + 1 wraps to INT64_MIN (two's complement).
    EXPECT_EQ(evalIntOp("add", 0x7fffffffffffffffll, 1),
              -0x7fffffffffffffffll - 1);
}

TEST(MachineExec, MulWrapsWithoutUb)
{
    std::int64_t got = evalIntOp("mul", 0x7fffffffffffffffll, 3);
    std::uint64_t expect = 0x7fffffffffffffffull * 3ull;
    EXPECT_EQ(static_cast<std::uint64_t>(got), expect);
}

TEST(MachineExec, DivByZeroIsFatal)
{
    EXPECT_THROW(evalIntOp("div", 5, 0), FatalError);
    EXPECT_THROW(evalIntOp("rem", 5, 0), FatalError);
}

struct FpOpCase
{
    const char *op;
    double a, b, expect;
    bool unary;
};

// Printed as "fadd(1.5,2.25)" or "fsqrt(9)", for the reason above.
void
PrintTo(const FpOpCase &c, std::ostream *os)
{
    *os << c.op << "(" << c.a;
    if (!c.unary)
        *os << "," << c.b;
    *os << ")";
}

class FpAluTest : public ::testing::TestWithParam<FpOpCase>
{
};

TEST_P(FpAluTest, ComputesExpectedValue)
{
    const FpOpCase &c = GetParam();
    EXPECT_DOUBLE_EQ(evalFpOp(c.op, c.a, c.b, c.unary), c.expect)
        << c.op;
}

INSTANTIATE_TEST_SUITE_P(
    AllFpOps, FpAluTest,
    ::testing::Values(
        FpOpCase{"fadd", 1.5, 2.25, 3.75, false},
        FpOpCase{"fsub", 1.5, 2.25, -0.75, false},
        FpOpCase{"fmul", 1.5, 2.0, 3.0, false},
        FpOpCase{"fdiv", 3.0, 2.0, 1.5, false},
        FpOpCase{"fmin", 3.0, 2.0, 2.0, false},
        FpOpCase{"fmax", 3.0, 2.0, 3.0, false},
        FpOpCase{"fsqrt", 9.0, 0.0, 3.0, true},
        FpOpCase{"fneg", 2.5, 0.0, -2.5, true},
        FpOpCase{"fabs", -2.5, 0.0, 2.5, true},
        FpOpCase{"fmv", 7.25, 0.0, 7.25, true}));

TEST(MachineExec, FpCompares)
{
    auto run = [](const char *op, double a, double b) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      ".shared result, 1\nmain:\n    fli f1, %.17g\n"
                      "    fli f2, %.17g\n", a, b);
        std::string src = buf;
        src += std::string("    ") + op + " r10, f1, f2\n";
        src += "    sts r10, result\n    halt\n";
        return runAsm(src).sharedInt("result");
    };
    EXPECT_EQ(run("feq", 1.0, 1.0), 1);
    EXPECT_EQ(run("feq", 1.0, 2.0), 0);
    EXPECT_EQ(run("flt", 1.0, 2.0), 1);
    EXPECT_EQ(run("flt", 2.0, 1.0), 0);
    EXPECT_EQ(run("fle", 2.0, 2.0), 1);
}

TEST(MachineExec, Conversions)
{
    MiniRun mr = runAsm(R"(
.shared a, 1
.shared b, 1
main:
    li   r1, -7
    cvtif f1, r1
    fsts f1, a
    fli  f2, 9.75
    cvtfi r2, f2
    sts  r2, b
    halt
)");
    EXPECT_DOUBLE_EQ(mr.sharedDouble("a"), -7.0);
    EXPECT_EQ(mr.sharedInt("b"), 9);  // truncation toward zero
}

TEST(MachineExec, R0IsAlwaysZero)
{
    MiniRun mr = runAsm(R"(
.shared result, 1
main:
    li  r0, 99
    add r0, r0, 5
    sts r0, result
    halt
)");
    EXPECT_EQ(mr.sharedInt("result"), 0);
}

TEST(MachineExec, BranchesTakenAndNotTaken)
{
    MiniRun mr = runAsm(R"(
.shared result, 1
main:
    li  r1, 0
    li  r2, 10
loop:
    add r1, r1, 1
    blt r1, r2, loop
    sts r1, result
    halt
)");
    EXPECT_EQ(mr.sharedInt("result"), 10);
}

TEST(MachineExec, CallAndReturn)
{
    MiniRun mr = runAsm(R"(
.shared result, 1
.entry main
double_it:
    add  v0, a0, a0
    ret
main:
    li   a0, 21
    call double_it
    sts  v0, result
    halt
)");
    EXPECT_EQ(mr.sharedInt("result"), 42);
}

TEST(MachineExec, LocalMemoryStack)
{
    MiniRun mr = runAsm(R"(
.shared result, 1
main:
    sub  sp, sp, 2
    li   r1, 11
    stl  r1, 0(sp)
    li   r2, 31
    stl  r2, 1(sp)
    ldl  r3, 0(sp)
    ldl  r4, 1(sp)
    add  r5, r3, r4
    sts  r5, result
    halt
)");
    EXPECT_EQ(mr.sharedInt("result"), 42);
}

TEST(MachineExec, LocalStaticsAreZeroInitialized)
{
    MiniRun mr = runAsm(R"(
.shared result, 1
.local buf, 8
main:
    la  r1, buf
    ldl r2, 3(r1)
    sts r2, result
    halt
)");
    EXPECT_EQ(mr.sharedInt("result"), 0);
}

TEST(MachineExec, LocalMemoryIsPerThread)
{
    // Each thread stores its id into the same local static address; the
    // values must not interfere.
    MachineConfig cfg = miniConfig();
    cfg.numProcs = 1;
    cfg.threadsPerProc = 4;
    MiniRun mr = runAsm(R"(
.shared results, 4
.local mine, 1
main:
    la  r1, mine
    stl a0, 0(r1)
    ldl r2, 0(r1)
    la  r3, results
    add r3, r3, a0
    sts r2, 0(r3)
    halt
)",
                        cfg);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(mr.machine->sharedMem().readInt(
                      mr.prog.sharedAddr("results") + t),
                  t);
}

TEST(MachineExec, ThreadStartupRegisters)
{
    MachineConfig cfg = miniConfig();
    cfg.numProcs = 2;
    cfg.threadsPerProc = 3;
    MiniRun mr = runAsm(R"(
.shared ids, 6
.shared counts, 6
main:
    la  r1, ids
    add r1, r1, a0
    sts a0, 0(r1)
    la  r2, counts
    add r2, r2, a0
    sts a1, 0(r2)
    halt
)",
                        cfg);
    for (int t = 0; t < 6; ++t) {
        EXPECT_EQ(mr.machine->sharedMem().readInt(
                      mr.prog.sharedAddr("ids") + t),
                  t);
        EXPECT_EQ(mr.machine->sharedMem().readInt(
                      mr.prog.sharedAddr("counts") + t),
                  6);
    }
}

TEST(MachineExec, PrintOpcodesReachHandler)
{
    Program p = assemble(R"(
main:
    li r1, 123
    print r1
    fli f1, 2.5
    fprint f1
    halt
)");
    MachineConfig cfg = miniConfig();
    Machine m(p, cfg);
    std::vector<std::string> lines;
    m.setPrintHandler([&](const std::string &s) { lines.push_back(s); });
    m.run();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "123");
    EXPECT_EQ(lines[1], "2.5");
}

TEST(MachineExec, SharedOpcodeWithLocalAddressIsFatal)
{
    EXPECT_THROW(runAsm("main:\n    lds r1, 5(r0)\n    halt\n"),
                 FatalError);
}

TEST(MachineExec, LocalOpcodeWithSharedAddressIsFatal)
{
    EXPECT_THROW(runAsm(".shared x, 1\nmain:\n    li r1, x\n"
                        "    ldl r2, 0(r1)\n    halt\n"),
                 FatalError);
}

TEST(MachineExec, LocalAddressOutOfRangeIsFatal)
{
    MachineConfig cfg = miniConfig();
    cfg.localWords = 1024;
    EXPECT_THROW(runAsm("main:\n    li r1, 5000\n    stl r0, 0(r1)\n"
                        "    halt\n",
                        cfg),
                 FatalError);
}

TEST(MachineExec, SharedAddressOutOfRangeIsFatal)
{
    EXPECT_THROW(runAsm(".shared x, 4\nmain:\n    li r1, x\n"
                        "    lds r2, 1000(r1)\n    halt\n"),
                 FatalError);
}

TEST(MachineExec, JumpToGarbageIsFatal)
{
    EXPECT_THROW(runAsm("main:\n    li r1, 99999\n    jr r1\n    halt\n"),
                 FatalError);
}

TEST(MachineExec, WatchdogCatchesInfiniteLoop)
{
    MachineConfig cfg = miniConfig();
    cfg.maxCycles = 10'000;
    EXPECT_THROW(runAsm("main:\nloop:\n    j loop\n", cfg), FatalError);
}

TEST(MachineExec, DeterministicAcrossRuns)
{
    auto once = [] {
        MachineConfig cfg = miniConfig();
        cfg.numProcs = 4;
        cfg.threadsPerProc = 3;
        return runAsmWithRuntime(R"(
.shared c, 1
.shared bar, 2
.entry main
main:
    li  t0, 1
    faa t1, c(r0), t0
    la  a0, bar
    mv  a1, a1
    call __mts_barrier
    halt
)",
                                 cfg)
            .result.cycles;
    };
    EXPECT_EQ(once(), once());
}

TEST(MachineExec, MachineRunTwiceIsFatal)
{
    Program p = assemble("main:\n    halt\n");
    Machine m(p, miniConfig());
    m.run();
    EXPECT_THROW(m.run(), FatalError);
}
