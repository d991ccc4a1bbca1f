/**
 * @file
 * Encode/decode round-trip and disassembly tests for the ISA.
 */

#include <gtest/gtest.h>

#include "sim/encoding.h"
#include "sim/isa.h"

namespace uexc::sim {
namespace {

using namespace enc;

struct EncodedCase
{
    const char *name;
    Word raw;
    Op op;
    unsigned rs, rt, rd;
};

// gtest would otherwise print the raw bytes of the case, name pointer
// included, and the discovered test names would change with every build.
void PrintTo(const EncodedCase &c, std::ostream *os) { *os << c.name; }

class DecodeRoundTrip : public ::testing::TestWithParam<EncodedCase> {};

TEST_P(DecodeRoundTrip, OpAndFieldsSurvive)
{
    const EncodedCase &c = GetParam();
    DecodedInst inst = decode(c.raw);
    EXPECT_EQ(inst.op, c.op) << c.name;
    EXPECT_EQ(inst.rs, c.rs) << c.name;
    EXPECT_EQ(inst.rt, c.rt) << c.name;
    EXPECT_EQ(inst.rd, c.rd) << c.name;
    EXPECT_EQ(inst.raw, c.raw) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, DecodeRoundTrip,
    ::testing::Values(
        EncodedCase{"sll", sll(T0, T1, 4), Op::Sll, 0, T1, T0},
        EncodedCase{"srl", srl(T0, T1, 4), Op::Srl, 0, T1, T0},
        EncodedCase{"sra", sra(V0, A0, 31), Op::Sra, 0, A0, V0},
        EncodedCase{"sllv", sllv(T0, T1, T2), Op::Sllv, T2, T1, T0},
        EncodedCase{"srlv", srlv(T0, T1, T2), Op::Srlv, T2, T1, T0},
        EncodedCase{"srav", srav(T0, T1, T2), Op::Srav, T2, T1, T0},
        EncodedCase{"add", add(S0, S1, S2), Op::Add, S1, S2, S0},
        EncodedCase{"addu", addu(S0, S1, S2), Op::Addu, S1, S2, S0},
        EncodedCase{"sub", sub(S0, S1, S2), Op::Sub, S1, S2, S0},
        EncodedCase{"subu", subu(S0, S1, S2), Op::Subu, S1, S2, S0},
        EncodedCase{"and", and_(S0, S1, S2), Op::And, S1, S2, S0},
        EncodedCase{"or", or_(S0, S1, S2), Op::Or, S1, S2, S0},
        EncodedCase{"xor", xor_(S0, S1, S2), Op::Xor, S1, S2, S0},
        EncodedCase{"nor", nor(S0, S1, S2), Op::Nor, S1, S2, S0},
        EncodedCase{"slt", slt(V0, A0, A1), Op::Slt, A0, A1, V0},
        EncodedCase{"sltu", sltu(V0, A0, A1), Op::Sltu, A0, A1, V0},
        EncodedCase{"mult", mult(A0, A1), Op::Mult, A0, A1, 0},
        EncodedCase{"multu", multu(A0, A1), Op::Multu, A0, A1, 0},
        EncodedCase{"div", div(A0, A1), Op::Div, A0, A1, 0},
        EncodedCase{"divu", divu(A0, A1), Op::Divu, A0, A1, 0},
        EncodedCase{"mfhi", mfhi(V0), Op::Mfhi, 0, 0, V0},
        EncodedCase{"mthi", mthi(V0), Op::Mthi, V0, 0, 0},
        EncodedCase{"mflo", mflo(V0), Op::Mflo, 0, 0, V0},
        EncodedCase{"mtlo", mtlo(V0), Op::Mtlo, V0, 0, 0},
        EncodedCase{"jr", jr(RA), Op::Jr, RA, 0, 0},
        EncodedCase{"jalr", jalr(T9, RA), Op::Jalr, RA, 0, T9},
        EncodedCase{"syscall", syscall(), Op::Syscall, 0, 0, 0},
        EncodedCase{"tlbr", tlbr(), Op::Tlbr, 16, 0, 0},
        EncodedCase{"tlbwi", tlbwi(), Op::Tlbwi, 16, 0, 0},
        EncodedCase{"tlbwr", tlbwr(), Op::Tlbwr, 16, 0, 0},
        EncodedCase{"tlbp", tlbp(), Op::Tlbp, 16, 0, 0},
        EncodedCase{"rfe", rfe(), Op::Rfe, 16, 0, 0},
        EncodedCase{"xret", xret(), Op::Xret, 16, 0, 0}),
    [](const ::testing::TestParamInfo<EncodedCase> &info) {
        return info.param.name;
    });

struct ImmCase
{
    const char *name;
    Word raw;
    Op op;
    Word imm;
    Word simm;
};

void PrintTo(const ImmCase &c, std::ostream *os) { *os << c.name; }

class ImmediateDecode : public ::testing::TestWithParam<ImmCase> {};

TEST_P(ImmediateDecode, ImmediateFields)
{
    const ImmCase &c = GetParam();
    DecodedInst inst = decode(c.raw);
    EXPECT_EQ(inst.op, c.op) << c.name;
    EXPECT_EQ(inst.imm, c.imm) << c.name;
    EXPECT_EQ(inst.simm, c.simm) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImmediateDecode,
    ::testing::Values(
        ImmCase{"addi_neg", addi(T0, T1, -1), Op::Addi, 0xffffu,
                0xffffffffu},
        ImmCase{"addiu_pos", addiu(T0, T1, 0x7fff), Op::Addiu, 0x7fffu,
                0x7fffu},
        ImmCase{"slti", slti(T0, T1, -32768), Op::Slti, 0x8000u,
                0xffff8000u},
        ImmCase{"sltiu", sltiu(T0, T1, 1), Op::Sltiu, 1u, 1u},
        ImmCase{"andi", andi(T0, T1, 0xff00), Op::Andi, 0xff00u,
                0xffffff00u},
        ImmCase{"ori", ori(T0, T1, 0xabcd), Op::Ori, 0xabcdu,
                0xffffabcdu},
        ImmCase{"xori", xori(T0, T1, 0x00ff), Op::Xori, 0x00ffu,
                0x00ffu},
        ImmCase{"lui", lui(T0, 0x8000), Op::Lui, 0x8000u, 0xffff8000u},
        ImmCase{"lw", lw(T0, -4, SP), Op::Lw, 0xfffcu, 0xfffffffcu},
        ImmCase{"sw", sw(T0, 8, SP), Op::Sw, 8u, 8u},
        ImmCase{"lb", lb(T0, 1, A0), Op::Lb, 1u, 1u},
        ImmCase{"lbu", lbu(T0, 2, A0), Op::Lbu, 2u, 2u},
        ImmCase{"lh", lh(T0, -2, A0), Op::Lh, 0xfffeu, 0xfffffffeu},
        ImmCase{"lhu", lhu(T0, 4, A0), Op::Lhu, 4u, 4u},
        ImmCase{"sb", sb(T0, 3, A0), Op::Sb, 3u, 3u},
        ImmCase{"sh", sh(T0, 6, A0), Op::Sh, 6u, 6u}),
    [](const ::testing::TestParamInfo<ImmCase> &info) {
        return info.param.name;
    });

TEST(Decode, BranchOffsets)
{
    DecodedInst inst = decode(enc::beq(T0, T1, -5));
    EXPECT_EQ(inst.op, Op::Beq);
    EXPECT_EQ(static_cast<SWord>(inst.simm), -5);

    inst = decode(enc::bne(T0, T1, 100));
    EXPECT_EQ(inst.op, Op::Bne);
    EXPECT_EQ(inst.simm, 100u);

    inst = decode(enc::bltz(A0, 12));
    EXPECT_EQ(inst.op, Op::Bltz);
    inst = decode(enc::bgez(A0, 12));
    EXPECT_EQ(inst.op, Op::Bgez);
    inst = decode(enc::bltzal(A0, 12));
    EXPECT_EQ(inst.op, Op::Bltzal);
    inst = decode(enc::bgezal(A0, 12));
    EXPECT_EQ(inst.op, Op::Bgezal);
}

TEST(Decode, JumpTarget)
{
    DecodedInst inst = decode(enc::j(0x0123456));
    EXPECT_EQ(inst.op, Op::J);
    EXPECT_EQ(inst.target, 0x0123456u);

    inst = decode(enc::jal(0x3ffffff));
    EXPECT_EQ(inst.op, Op::Jal);
    EXPECT_EQ(inst.target, 0x3ffffffu);
}

TEST(Decode, Cop0Moves)
{
    DecodedInst inst = decode(enc::mfc0(T0, 12));
    EXPECT_EQ(inst.op, Op::Mfc0);
    EXPECT_EQ(inst.rt, unsigned{T0});
    EXPECT_EQ(inst.rd, 12u);

    inst = decode(enc::mtc0(T1, 14));
    EXPECT_EQ(inst.op, Op::Mtc0);
    EXPECT_EQ(inst.rd, 14u);
}

TEST(Decode, Extensions)
{
    DecodedInst inst = decode(enc::mfux(T0, UxReg::Cond));
    EXPECT_EQ(inst.op, Op::Mfux);
    EXPECT_EQ(inst.rd, static_cast<unsigned>(UxReg::Cond));

    inst = decode(enc::mtux(T1, UxReg::Target));
    EXPECT_EQ(inst.op, Op::Mtux);
    EXPECT_EQ(inst.rd, static_cast<unsigned>(UxReg::Target));

    inst = decode(enc::tlbmp(A0, A1));
    EXPECT_EQ(inst.op, Op::Tlbmp);
    EXPECT_EQ(inst.rs, unsigned{A0});
    EXPECT_EQ(inst.rt, unsigned{A1});

    inst = decode(enc::hcall(0x1234));
    EXPECT_EQ(inst.op, Op::Hcall);
    EXPECT_EQ(inst.target, 0x1234u);
}

TEST(Decode, InvalidEncodings)
{
    // unassigned SPECIAL funct
    EXPECT_EQ(decode(0x0000003fu).op, Op::Invalid);
    // unassigned primary opcode (0x3c)
    EXPECT_EQ(decode(0xf0000000u).op, Op::Invalid);
    // COP0 with bad rs
    EXPECT_EQ(decode(enc::mfc0(T0, 12) | (0x1fu << 21)).op, Op::Invalid);
}

TEST(Decode, NopIsSllZero)
{
    DecodedInst inst = decode(enc::nop());
    EXPECT_EQ(inst.op, Op::Sll);
    EXPECT_EQ(inst.raw, 0u);
    EXPECT_EQ(disassemble(inst), "nop");
}

TEST(Decode, Classification)
{
    EXPECT_TRUE(decode(enc::beq(T0, T1, 4)).isControl());
    EXPECT_TRUE(decode(enc::j(0)).isControl());
    EXPECT_TRUE(decode(enc::jr(RA)).isControl());
    EXPECT_FALSE(decode(enc::addu(T0, T1, T2)).isControl());
    EXPECT_FALSE(decode(enc::syscall()).isControl());

    EXPECT_TRUE(decode(enc::lw(T0, 0, SP)).isMemory());
    EXPECT_TRUE(decode(enc::sb(T0, 0, SP)).isMemory());
    EXPECT_FALSE(decode(enc::addu(T0, T1, T2)).isMemory());

    EXPECT_TRUE(decode(enc::sw(T0, 0, SP)).isStore());
    EXPECT_FALSE(decode(enc::lw(T0, 0, SP)).isStore());

    EXPECT_TRUE(decode(enc::mtc0(T0, 12)).isPrivileged());
    EXPECT_TRUE(decode(enc::rfe()).isPrivileged());
    EXPECT_TRUE(decode(enc::tlbwi()).isPrivileged());
    EXPECT_FALSE(decode(enc::mfux(T0, UxReg::Cond)).isPrivileged());
    EXPECT_FALSE(decode(enc::syscall()).isPrivileged());
}

TEST(Disassemble, RepresentativeFormats)
{
    EXPECT_EQ(disassemble(decode(enc::addu(V0, A0, A1))),
              "addu v0, a0, a1");
    EXPECT_EQ(disassemble(decode(enc::addiu(SP, SP, -32))),
              "addiu sp, sp, -32");
    EXPECT_EQ(disassemble(decode(enc::lw(RA, 28, SP))),
              "lw ra, 28(sp)");
    EXPECT_EQ(disassemble(decode(enc::jr(RA))), "jr ra");
    EXPECT_EQ(disassemble(decode(enc::syscall())), "syscall");
    EXPECT_EQ(disassemble(decode(enc::rfe())), "rfe");
    // branch target rendered PC-relative
    EXPECT_EQ(disassemble(decode(enc::beq(T0, T1, 1)), 0x1000),
              "beq t0, t1, 0x00001008");
}

TEST(Disassemble, NoCrashOnAllOpcodeSpace)
{
    // property: every 1-in-65536 sampled word disassembles without
    // throwing (Invalid decodes render as .word)
    for (std::uint64_t raw = 0; raw <= 0xffffffffull; raw += 65537) {
        DecodedInst inst = decode(static_cast<Word>(raw));
        EXPECT_FALSE(disassemble(inst).empty());
    }
}

TEST(RegNames, Canonical)
{
    EXPECT_STREQ(regName(0), "zero");
    EXPECT_STREQ(regName(V0), "v0");
    EXPECT_STREQ(regName(SP), "sp");
    EXPECT_STREQ(regName(RA), "ra");
}

} // namespace
} // namespace uexc::sim
