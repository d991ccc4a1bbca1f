/**
 * @file
 * Shared lockstep-fuzz machinery: the seeded random guest-program
 * generator, the skip-everything exception handlers, and the
 * bit-for-bit architectural comparison. Used by the cross-interpreter
 * differential fuzz (test_cpu_random) and by the snapshot round-trip
 * property test (test_snapshot), which replays the same corpus with a
 * checkpoint/restore in the middle.
 */

#ifndef UEXC_TESTS_FUZZ_UTIL_H
#define UEXC_TESTS_FUZZ_UTIL_H

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim_test_util.h"

namespace uexc::sim::fuzzutil {

constexpr Addr kMapVa = 0x2000;      // kuseg page accessed via the TLB
constexpr Addr kMapFrame = 0x30000;  // physical frame it maps to
constexpr InstCount kFuzzInstLimit = 30'000;

const unsigned kDataRegs[] = {T0, T1, T2, T3, T4, T5, T6, T7,
                              S0, S1, S2, S3, V0, V1, A0, A1, A2, A3};

/** Emits one random program; block labels keep all branches forward
 *  except the explicitly bounded backward loops. */
struct FuzzGen
{
    Assembler &as;
    std::mt19937 &rng;
    unsigned patches = 0;
    unsigned loops = 0;
    std::vector<std::string> pendingPatches; // placed at next block start

    unsigned reg() { return kDataRegs[rng() % std::size(kDataRegs)]; }

    /** Exception-free non-control filler, safe in a delay slot: every
     *  shift, ALU and non-trapping immediate op. */
    void safeOp()
    {
        unsigned r = reg(), a = reg(), b = reg();
        SWord simm = SWord(rng() % 4096) - 2048;
        switch (rng() % 19) {
          case 0: as.addu(r, a, b); break;
          case 1: as.subu(r, a, b); break;
          case 2: as.xor_(r, a, b); break;
          case 3: as.and_(r, a, b); break;
          case 4: as.or_(r, a, b); break;
          case 5: as.nor(r, a, b); break;
          case 6: as.slt(r, a, b); break;
          case 7: as.sltu(r, a, b); break;
          case 8: as.sll(r, a, rng() % 32); break;
          case 9: as.srl(r, a, rng() % 32); break;
          case 10: as.sra(r, a, rng() % 32); break;
          case 11: as.sllv(r, a, b); break;
          case 12: as.srlv(r, a, b); break;
          case 13: as.srav(r, a, b); break;
          case 14: as.addiu(r, a, simm); break;
          case 15: as.slti(r, a, simm); break;
          case 16: as.sltiu(r, a, simm); break;
          case 17: as.andi(r, a, rng() & 0xffff); break;
          default: as.xori(r, a, rng() & 0xffff); break;
        }
    }

    /** Mostly safe; sometimes a misaligned load so exceptions are
     *  raised from branch delay slots. */
    void delaySlot()
    {
        if (rng() % 5 == 0)
            as.lw(reg(), SWord(1 + 2 * (rng() % 2)), T9);
        else
            safeOp();
    }

    void memOp()
    {
        unsigned r = reg();
        SWord off = SWord(4 * (rng() % 60));
        if (rng() % 8 == 0)
            off += 1 + SWord(rng() % 3); // misaligned word/half access
        switch (rng() % 8) {
          case 0: as.lw(r, off, T9); break;
          case 1: as.sw(r, off, T9); break;
          case 2: as.lh(r, off & ~1, T9); break;
          case 3: as.lhu(r, off, T9); break;
          case 4: as.lb(r, off, T9); break;
          case 5: as.lbu(r, off, T9); break;
          case 6: as.sh(r, off, T9); break;
          default: as.sb(r, off, T9); break;
        }
    }

    /** Multiply, divide and hi/lo moves, including the divisions
     *  with a defined result for an undefined quotient: by zero, and
     *  INT_MIN / -1. */
    void multDiv()
    {
        unsigned a = reg(), b = reg();
        while (b == a)
            b = reg();
        switch (rng() % 11) {
          case 0: as.mult(a, b); break;
          case 1: as.multu(a, b); break;
          case 2: as.div(a, b); break;
          case 3: as.divu(a, b); break;
          case 4: as.mfhi(reg()); break;
          case 5: as.mflo(reg()); break;
          case 6: as.mthi(a); break;
          case 7: as.mtlo(a); break;
          case 8: as.div(a, Zero); break;
          case 9: as.divu(a, Zero); break;
          default:
            as.li32(a, 0x80000000u);
            as.li32(b, 0xffffffffu);
            as.div(a, b);
            break;
        }
    }

    void branchTo(const std::string &target)
    {
        unsigned a = reg(), b = reg();
        switch (rng() % 8) {
          case 0: as.beq(a, b, target); break;
          case 1: as.bne(a, b, target); break;
          case 2: as.blez(a, target); break;
          case 3: as.bgtz(a, target); break;
          case 4: as.bltz(a, target); break;
          case 5: as.bgez(a, target); break;
          case 6: as.bltzal(a, target); break;
          default: as.bgezal(a, target); break;
        }
        delaySlot();
    }

    /** An unconditional jump to @p target, direct or through a
     *  register, linking or not. */
    void jumpTo(const std::string &target)
    {
        unsigned t = reg(), link = reg();
        while (link == t)
            link = reg();
        switch (rng() % 4) {
          case 0: as.j(target); break;
          case 1: as.jal(target); break;
          case 2:
            as.la(t, target);
            as.jr(t);
            break;
          default:
            as.la(t, target);
            as.jalr(link, t);
            break;
        }
        delaySlot();
    }

    /** A bounded counted loop: the only backward control flow. */
    void boundedLoop()
    {
        std::string head = "loop" + std::to_string(loops++);
        as.li(S7, 2 + rng() % 5);
        as.label(head);
        unsigned n = 1 + rng() % 3;
        for (unsigned i = 0; i < n; i++)
            safeOp();
        as.addiu(S7, S7, -1);
        as.bne(S7, Zero, head);
        delaySlot();
    }

    /** Rewrite a random TLB entry, then access kuseg through it. The
     *  entry is sometimes read-only (store -> Mod fault) and
     *  sometimes invalid (access faults); the skip handlers step
     *  over the faulting access either way. */
    void tlbSequence()
    {
        unsigned t = reg(), u = reg();
        Word lo = (kMapFrame & entrylo::PfnMask) | entrylo::V;
        if (rng() % 2)
            lo |= entrylo::D;
        if (rng() % 4 == 0)
            lo &= ~Word(entrylo::V);
        as.li32(t, kMapVa & entryhi::VpnMask); // asid 0 = current
        as.mtc0(t, cp0reg::EntryHi);
        as.li32(t, lo);
        as.mtc0(t, cp0reg::EntryLo);
        if (rng() % 4 == 0) {
            as.tlbwr();
        } else {
            as.li32(t, (8 + rng() % 56) << 8);
            as.mtc0(t, cp0reg::Index);
            as.tlbwi();
        }
        if (rng() % 4 == 0) {
            as.tlbp();
            as.tlbr();
        }
        as.li32(u, kMapVa);
        if (rng() % 2)
            as.sw(reg(), SWord(4 * (rng() % 16)), u);
        else
            as.lw(reg(), SWord(4 * (rng() % 16)), u);
    }

    /** Store a fresh (harmless) instruction over a nop a few blocks
     *  ahead, inside the page currently being executed: the fast
     *  path must re-decode before reaching it. */
    void patchAhead()
    {
        std::string site = "patch" + std::to_string(patches++);
        unsigned r = reg();
        as.la(T8, site);
        as.li32(r, enc::addiu(reg(), reg(), SWord(rng() % 64)));
        as.sw(r, 0, T8);
        pendingPatches.push_back(site);
    }

    void emitBlock(const std::string &next)
    {
        for (const std::string &site : pendingPatches) {
            as.label(site);
            as.nop(); // overwritten by the earlier store
        }
        pendingPatches.clear();

        unsigned n = 2 + rng() % 5;
        for (unsigned i = 0; i < n; i++) {
            unsigned kind = rng() % 100;
            if (kind < 40) {
                safeOp();
            } else if (kind < 55) {
                memOp();
            } else if (kind < 65) {
                multDiv();
            } else if (kind < 72) {
                // overflow-prone signed arithmetic (Ov is skipped)
                unsigned a = reg(), b = reg();
                as.li32(a, 0x7fffff00u + rng() % 512);
                as.li32(b, rng() % 1024);
                if (rng() % 2)
                    as.add(reg(), a, b);
                else
                    as.addi(reg(), a, SWord(rng() % 2048));
            } else if (kind < 79) {
                boundedLoop();
            } else if (kind < 86) {
                tlbSequence();
            } else if (kind < 93) {
                patchAhead();
            } else if (i > 0) {
                break; // end the block early
            } else {
                safeOp(); // keep every block non-empty
            }
        }
        if (rng() % 3 == 0)
            jumpTo(next);
        else
            branchTo(next);
    }
};

inline Program
buildFuzzProgram(unsigned seed)
{
    std::mt19937 rng(seed);
    Assembler as(testutil::kTestOrigin);
    FuzzGen gen{as, rng, 0, 0, {}};

    as.la(T9, "buf");
    for (unsigned r : kDataRegs)
        as.li32(r, rng());

    unsigned blocks = 6 + rng() % 10;
    for (unsigned b = 0; b < blocks; b++) {
        as.label("B" + std::to_string(b));
        gen.emitBlock("B" + std::to_string(b + 1));
    }
    as.label("B" + std::to_string(blocks));
    for (const std::string &site : gen.pendingPatches) {
        as.label(site);
        as.nop();
    }
    as.hcall(0);
    as.align(8);
    as.label("buf");
    as.space(256);
    return as.finalize();
}

inline void
installFuzzSkipHandlers(Machine &m)
{
    for (Addr vector : {Cpu::RefillVector, Cpu::GeneralVector}) {
        Assembler a(vector);
        a.mfc0(K0, cp0reg::Epc);
        a.addiu(K0, K0, 4);
        a.jr(K0);
        a.rfe(); // delay slot
        m.load(a.finalize());
    }
}

inline void
expectLockstepState(Machine &ref, Machine &fst)
{
    const Cpu &rc = ref.cpu();
    const Cpu &fc = fst.cpu();
    for (unsigned r = 0; r < NumRegs; r++)
        EXPECT_EQ(rc.reg(r), fc.reg(r)) << "GPR " << regName(r);
    EXPECT_EQ(rc.hi(), fc.hi());
    EXPECT_EQ(rc.lo(), fc.lo());
    EXPECT_EQ(rc.pc(), fc.pc());
    EXPECT_EQ(rc.npc(), fc.npc());

    static const unsigned cp0_regs[] = {
        cp0reg::Index, cp0reg::Random, cp0reg::EntryLo, cp0reg::Context,
        cp0reg::BadVAddr, cp0reg::EntryHi, cp0reg::Status, cp0reg::Cause,
        cp0reg::Epc,
    };
    for (unsigned r : cp0_regs)
        EXPECT_EQ(rc.cp0().read(r), fc.cp0().read(r)) << "CP0 reg " << r;

    for (unsigned i = 0; i < Tlb::NumEntries; i++) {
        EXPECT_EQ(rc.tlb().entry(i).hi, fc.tlb().entry(i).hi)
            << "TLB entry " << i;
        EXPECT_EQ(rc.tlb().entry(i).lo, fc.tlb().entry(i).lo)
            << "TLB entry " << i;
    }

    const CpuStats &rs = rc.stats();
    const CpuStats &fs = fc.stats();
    EXPECT_EQ(rs.instructions, fs.instructions);
    EXPECT_EQ(rs.cycles, fs.cycles);
    EXPECT_EQ(rs.branches, fs.branches);
    EXPECT_EQ(rs.exceptionsTaken, fs.exceptionsTaken);
    for (unsigned c = 0; c < NumExcCodes; c++)
        EXPECT_EQ(rs.perExcCode[c], fs.perExcCode[c]) << "exc code " << c;
    EXPECT_EQ(rc.tlb().stats().lookups, fc.tlb().stats().lookups);
    EXPECT_EQ(rc.tlb().stats().misses, fc.tlb().stats().misses);

    ASSERT_EQ(ref.mem().size(), fst.mem().size());
    std::vector<Word> rmem(ref.mem().size() / 4);
    std::vector<Word> fmem(fst.mem().size() / 4);
    ref.mem().readBlock(0, rmem.data(), ref.mem().size());
    fst.mem().readBlock(0, fmem.data(), fst.mem().size());
    unsigned reported = 0;
    for (std::size_t i = 0; i < rmem.size() && reported < 4; i++) {
        if (rmem[i] != fmem[i]) {
            ADD_FAILURE() << "memory differs at paddr 0x" << std::hex
                          << (i * 4) << ": ref 0x" << rmem[i]
                          << " fast 0x" << fmem[i];
            reported++;
        }
    }
}

} // namespace uexc::sim::fuzzutil

#endif // UEXC_TESTS_FUZZ_UTIL_H
