/**
 * @file
 * CPU tests: branches, jumps, and branch-delay-slot semantics, on
 * both interpreters.
 */

#include <gtest/gtest.h>

#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using testutil::BareMachine;

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, TakenBranchExecutesDelaySlot)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(V0, 0);
        as.beq(Zero, Zero, "target");
        as.addiu(V0, V0, 1);   // delay slot: executes
        as.addiu(V0, V0, 100); // skipped
        as.label("target");
        as.addiu(V0, V0, 10);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 11u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl,
                            NotTakenBranchExecutesDelaySlotAndFallsThrough)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(V0, 0);
        as.li(T0, 1);
        as.beq(T0, Zero, "target");
        as.addiu(V0, V0, 1);   // delay slot
        as.addiu(V0, V0, 100); // falls through
        as.label("target");
        as.addiu(V0, V0, 10);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 111u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, BackwardLoop)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 5);
        as.li(V0, 0);
        as.label("loop");
        as.addiu(V0, V0, 2);
        as.addiu(T0, T0, -1);
        as.bne(T0, Zero, "loop");
        as.nop();
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 10u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, ConditionalVariants)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(V0, 0);
        as.li(T0, -1);

        as.bltz(T0, "l1");
        as.nop();
        as.addiu(V0, V0, 1);  // skipped
        as.label("l1");

        as.bgez(T0, "l2");    // not taken (-1 < 0)
        as.nop();
        as.addiu(V0, V0, 2);  // executed
        as.label("l2");

        as.blez(Zero, "l3");  // taken (0 <= 0)
        as.nop();
        as.addiu(V0, V0, 4);  // skipped
        as.label("l3");

        as.bgtz(Zero, "l4");  // not taken
        as.nop();
        as.addiu(V0, V0, 8);  // executed
        as.label("l4");
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 10u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, JalSetsRaPastDelaySlot)
{
    BareMachine m(config);
    Program p = m.loadAsm([&](Assembler &as) {
        as.label("start");
        as.jal("func");
        as.li(A0, 55);        // delay slot
        as.label("after");
        as.hcall(0);
        as.label("func");
        as.move(V0, A0);
        as.jr(RA);
        as.nop();
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 55u);
    EXPECT_EQ(m.cpu().reg(RA), p.symbol("after"));
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, JalrLinksThroughChosenRegister)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.la(T9, "func");
        as.jalr(T8, T9);
        as.nop();
        as.hcall(0);
        as.label("func");
        as.li(V0, 7);
        as.jr(T8);
        as.nop();
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 7u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, BltzalBgezalLink)
{
    BareMachine m(config);
    Program p = m.loadAsm([&](Assembler &as) {
        as.li(T0, -5);
        as.bltzal(T0, "sub");
        as.nop();
        as.label("ret_here");
        as.hcall(0);
        as.label("sub");
        as.li(V0, 1);
        as.jr(RA);
        as.nop();
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 1u);
    EXPECT_EQ(m.cpu().reg(RA), p.symbol("ret_here"));
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, BranchInDelaySlotTargetAppliesAfterSlot)
{
    // j target; delay slot increments -- classic pattern
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(V0, 0);
        as.j("out");
        as.addiu(V0, V0, 1);
        as.addiu(V0, V0, 100);  // never executed
        as.label("out");
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 1u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, BranchToPcPlus8BehavesLikeFallThrough)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(V0, 0);
        as.beq(Zero, Zero, "next");  // target is pc+8
        as.addiu(V0, V0, 1);         // delay slot
        as.label("next");
        as.addiu(V0, V0, 2);
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), 3u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, BranchStatsCounted)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.li(T0, 3);
        as.label("loop");
        as.addiu(T0, T0, -1);
        as.bne(T0, Zero, "loop");
        as.nop();
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().stats().branches, 3u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, RunStopsAtBreakpoint)
{
    BareMachine m(config);
    Program p = m.loadAsm([&](Assembler &as) {
        as.li(V0, 1);
        as.label("bp");
        as.li(V0, 2);
        as.hcall(0);
    });
    m.cpu().addBreakpoint(p.symbol("bp"));
    RunResult r = m.cpu().run(1000);
    EXPECT_EQ(r.reason, StopReason::Breakpoint);
    EXPECT_EQ(m.cpu().reg(V0), 1u);
    EXPECT_EQ(m.cpu().pc(), p.symbol("bp"));
    // continuing past the breakpoint works (first-step exemption)
    r = m.cpu().run(1000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.cpu().reg(V0), 2u);
}

UEXC_TEST_BOTH_INTERPRETERS(CpuControl, RunHonorsInstLimit)
{
    BareMachine m(config);
    m.loadAsm([&](Assembler &as) {
        as.label("spin");
        as.j("spin");
        as.nop();
    });
    RunResult r = m.cpu().run(100);
    EXPECT_EQ(r.reason, StopReason::InstLimit);
    EXPECT_EQ(r.instsExecuted, 100u);
}

} // namespace
} // namespace uexc::sim
