/**
 * @file
 * Shared helpers for simulator unit tests: build a bare machine, load
 * a short guest program written with the Assembler, and run it.
 */

#ifndef UEXC_TESTS_SIM_TEST_UTIL_H
#define UEXC_TESTS_SIM_TEST_UTIL_H

#include <functional>

#include "sim/assembler.h"
#include "sim/machine.h"

namespace uexc::sim::testutil {

/** Default origin for test programs: kseg0, clear of the vectors. */
constexpr Addr kTestOrigin = 0x80010000u;

/**
 * A machine plus conveniences for short guest programs. The CPU
 * starts in kernel mode (status = 0), so kseg0 programs run without
 * TLB setup.
 */
struct BareMachine
{
    explicit BareMachine(const MachineConfig &config = MachineConfig())
        : machine(config)
    {
    }

    /**
     * Assemble @p body at kTestOrigin, load it, point the PC at it.
     * The body is responsible for ending execution (hcall 0 halts).
     */
    Program loadAsm(const std::function<void(Assembler &)> &body)
    {
        Assembler a(kTestOrigin);
        body(a);
        Program p = a.finalize();
        machine.load(p);
        machine.cpu().setPc(kTestOrigin);
        return p;
    }

    /** Run until halt; asserts the program did halt. */
    RunResult runToHalt(InstCount max_insts = 1'000'000)
    {
        RunResult r = machine.cpu().run(max_insts);
        return r;
    }

    Cpu &cpu() { return machine.cpu(); }

    Machine machine;
};

/** The default machine, on the fast interpreter when @p fast. */
inline MachineConfig
interpreterConfig(bool fast)
{
    MachineConfig config;
    config.cpu.fastInterpreter = fast;
    return config;
}

/**
 * A known-answer test run on both interpreters: the body is registered
 * as Suite.Name on the reference interpreter and as SuiteFast.Name on
 * the fast one, and reads its machine configuration from `config`.
 * Both interpreters execute the same instruction semantics, so only
 * known answers, not a comparison between the two, can catch a wrong
 * result there.
 */
#define UEXC_TEST_BOTH_INTERPRETERS(Suite, Name)                          \
    void Suite##_##Name##_Body(const ::uexc::sim::MachineConfig &config); \
    TEST(Suite, Name)                                                     \
    {                                                                     \
        Suite##_##Name##_Body(                                            \
            ::uexc::sim::testutil::interpreterConfig(false));             \
    }                                                                     \
    TEST(Suite##Fast, Name)                                               \
    {                                                                     \
        Suite##_##Name##_Body(                                            \
            ::uexc::sim::testutil::interpreterConfig(true));              \
    }                                                                     \
    void Suite##_##Name##_Body(const ::uexc::sim::MachineConfig &config)

/**
 * Establish a kuseg mapping: virtual page @p vaddr -> physical frame
 * @p paddr for @p asid, via a wired TLB entry.
 */
inline void
mapPage(Machine &m, Addr vaddr, Addr paddr, unsigned asid,
        unsigned tlb_index, bool writable = true,
        bool user_modifiable = false)
{
    Word hi = (vaddr & entryhi::VpnMask) |
              (asid << entryhi::AsidShift);
    Word lo = (paddr & entrylo::PfnMask) | entrylo::V;
    if (writable)
        lo |= entrylo::D;
    if (user_modifiable)
        lo |= entrylo::U;
    m.cpu().tlb().setEntry(tlb_index, hi, lo);
}

/** Switch the CPU to user mode with the given ASID. */
inline void
enterUserMode(Machine &m, unsigned asid)
{
    Cp0 &cp0 = m.cpu().cp0();
    cp0.setStatusReg(cp0.statusReg() | status::KUc);
    cp0.write(cp0reg::EntryHi,
              (cp0.entryHi() & ~entryhi::AsidMask) |
              (asid << entryhi::AsidShift));
}

} // namespace uexc::sim::testutil

#endif // UEXC_TESTS_SIM_TEST_UTIL_H
