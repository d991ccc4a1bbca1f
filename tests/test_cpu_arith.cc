/**
 * @file
 * CPU tests: arithmetic, logical, shift, and multiply/divide
 * instruction semantics, executed as guest code in kseg0 on both
 * interpreters.
 */

#include <gtest/gtest.h>

#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using testutil::BareMachine;

/** Run a 3-register op with given inputs; return rd. */
Word
runRRR(const MachineConfig &config,
       Word (*encode)(unsigned, unsigned, unsigned), Word a, Word b)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li32(T0, a);
        as.li32(T1, b);
        as.emit(encode(V0, T0, T1));
        as.hcall(0);
    });
    m.runToHalt();
    return m.cpu().reg(V0);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, AdduSubu)
{
    EXPECT_EQ(runRRR(config, enc::addu, 2, 3), 5u);
    EXPECT_EQ(runRRR(config, enc::addu, 0xffffffffu, 1), 0u); // wraps
    EXPECT_EQ(runRRR(config, enc::subu, 5, 7), 0xfffffffeu);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, Logical)
{
    const Word a = 0xff00ff00u, b = 0x0ff00ff0u;
    EXPECT_EQ(runRRR(config, enc::and_, a, b), 0x0f000f00u);
    EXPECT_EQ(runRRR(config, enc::or_, a, b), 0xfff0fff0u);
    EXPECT_EQ(runRRR(config, enc::xor_, a, b), 0xf0f0f0f0u);
    EXPECT_EQ(runRRR(config, enc::nor, a, b), 0x000f000fu);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, SetLessThan)
{
    EXPECT_EQ(runRRR(config, enc::slt, 0xffffffffu, 0), 1u);  // -1 < 0
    EXPECT_EQ(runRRR(config, enc::sltu, 0xffffffffu, 0), 0u); // max > 0
    EXPECT_EQ(runRRR(config, enc::slt, 3, 3), 0u);
    EXPECT_EQ(runRRR(config, enc::sltu, 2, 3), 1u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, ImmediateForms)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 10);
        as.addiu(V0, T0, -3);
        as.slti(V1, T0, 11);
        as.andi(A0, T0, 0x3);
        as.ori(A1, T0, 0x100);
        as.xori(A2, T0, 0xf);
        as.sltiu(A3, T0, 5);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 7u);
    EXPECT_EQ(m.cpu().reg(V1), 1u);
    EXPECT_EQ(m.cpu().reg(A0), 2u);
    EXPECT_EQ(m.cpu().reg(A1), 0x10au);
    EXPECT_EQ(m.cpu().reg(A2), 5u);
    EXPECT_EQ(m.cpu().reg(A3), 0u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, Lui)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.lui(V0, 0x1234);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 0x12340000u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, Shifts)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li32(T0, 0x80000001u);
        as.sll(V0, T0, 1);
        as.srl(V1, T0, 1);
        as.sra(A0, T0, 1);
        as.li(T1, 4);
        as.sllv(A1, T0, T1);
        as.srlv(A2, T0, T1);
        as.srav(A3, T0, T1);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 0x00000002u);
    EXPECT_EQ(m.cpu().reg(V1), 0x40000000u);
    EXPECT_EQ(m.cpu().reg(A0), 0xc0000000u);
    EXPECT_EQ(m.cpu().reg(A1), 0x00000010u);
    EXPECT_EQ(m.cpu().reg(A2), 0x08000000u);
    EXPECT_EQ(m.cpu().reg(A3), 0xf8000000u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, ShiftAmountFromRegisterIsMasked)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 1);
        as.li(T1, 33);  // 33 & 31 == 1
        as.sllv(V0, T0, T1);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 2u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, MultiplySignedUnsigned)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li32(T0, 0xffffffffu);  // -1
        as.li(T1, 2);
        as.mult(T0, T1);
        as.mfhi(V0);
        as.mflo(V1);
        as.multu(T0, T1);
        as.mfhi(A0);
        as.mflo(A1);
        as.hcall(0);
    });
    m.runToHalt();
    // signed: -1 * 2 = -2
    EXPECT_EQ(m.cpu().reg(V0), 0xffffffffu);
    EXPECT_EQ(m.cpu().reg(V1), 0xfffffffeu);
    // unsigned: 0xffffffff * 2 = 0x1_fffffffe
    EXPECT_EQ(m.cpu().reg(A0), 1u);
    EXPECT_EQ(m.cpu().reg(A1), 0xfffffffeu);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, DivideSignedUnsigned)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, -7);
        as.li(T1, 2);
        as.div(T0, T1);
        as.mflo(V0);  // quotient -3 (truncating)
        as.mfhi(V1);  // remainder -1
        as.li32(T2, 0xfffffff9u);
        as.li(T3, 2);
        as.divu(T2, T3);
        as.mflo(A0);
        as.mfhi(A1);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(static_cast<SWord>(m.cpu().reg(V0)), -3);
    EXPECT_EQ(static_cast<SWord>(m.cpu().reg(V1)), -1);
    EXPECT_EQ(m.cpu().reg(A0), 0x7ffffffcu);
    EXPECT_EQ(m.cpu().reg(A1), 1u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, DivideByZeroHasDefinedResult)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 42);
        as.li(T1, 0);
        as.div(T0, T1);
        as.mflo(V0);
        as.mfhi(V1);
        as.hcall(0);
    });
    m.runToHalt();
    // no exception; our defined UNPREDICTABLE result
    EXPECT_EQ(m.cpu().reg(V0), 0xffffffffu);
    EXPECT_EQ(m.cpu().reg(V1), 42u);
    EXPECT_EQ(m.cpu().stats().exceptionsTaken, 0u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, MtHiLo)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 11);
        as.li(T1, 22);
        as.mthi(T0);
        as.mtlo(T1);
        as.mfhi(V0);
        as.mflo(V1);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 11u);
    EXPECT_EQ(m.cpu().reg(V1), 22u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, RegisterZeroIsHardwiredZero)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 99);
        as.addu(Zero, T0, T0);  // writes to $zero are discarded
        as.move(V0, Zero);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 0u);
    EXPECT_EQ(m.cpu().reg(Zero), 0u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, MultDivCostsAreCharged)
{
    BareMachine a_mult(config), a_add(config);
    a_mult.loadAsm([&](Assembler &as) {
        as.mult(T0, T1);
        as.hcall(0);
    });
    a_add.loadAsm([&](Assembler &as) {
        as.addu(V0, T0, T1);
        as.hcall(0);
    });
    a_mult.runToHalt();
    a_add.runToHalt();
    CostModel cost;
    EXPECT_EQ(a_mult.cpu().cycles() - a_add.cpu().cycles(),
              cost.multCost - cost.baseCost);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuArith, CyclesAndInstructionsAdvance)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        for (int i = 0; i < 10; i++)
            as.nop();
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().instret(), 11u);
    EXPECT_GE(m.cpu().cycles(), 11u);
}

} // namespace
} // namespace uexc::sim
