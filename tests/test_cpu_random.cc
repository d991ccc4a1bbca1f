/**
 * @file
 * Randomized tests: the simulated CPU's arithmetic, logical, shift,
 * multiply/divide and comparison results, register and immediate
 * forms, are checked against host-computed semantics over hundreds of
 * random operand pairs on both interpreters, and random straight-line
 * programs must retire exactly as many instructions as they contain.
 * Then the lockstep fuzz runs seeded random programs on both
 * interpreters and compares them bit for bit.
 */

#include <gtest/gtest.h>

#include <random>

#include "fuzz_util.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using testutil::BareMachine;
using namespace fuzzutil;

/** A register-register op: V0 = op(T0 = a, T1 = b). */
struct BinOp
{
    const char *name;
    Word (*encode)(unsigned, unsigned, unsigned); // (rd, T0, T1)
    Word (*eval)(Word, Word);
};

// The variable shifts encode as (rd, rt = value, rs = amount), so
// T0 (= a) is shifted by T1 (= b) like the others' (rd, rs, rt).
const BinOp kBinOps[] = {
    {"addu", enc::addu, [](Word a, Word b) { return a + b; }},
    {"subu", enc::subu, [](Word a, Word b) { return a - b; }},
    {"and", enc::and_, [](Word a, Word b) { return a & b; }},
    {"or", enc::or_, [](Word a, Word b) { return a | b; }},
    {"xor", enc::xor_, [](Word a, Word b) { return a ^ b; }},
    {"nor", enc::nor, [](Word a, Word b) { return ~(a | b); }},
    {"slt", enc::slt,
     [](Word a, Word b) {
         return Word(static_cast<SWord>(a) < static_cast<SWord>(b));
     }},
    {"sltu", enc::sltu, [](Word a, Word b) { return Word(a < b); }},
    {"sllv", enc::sllv,
     [](Word a, Word b) { return a << (b & 31); }},
    {"srlv", enc::srlv,
     [](Word a, Word b) { return a >> (b & 31); }},
    {"srav", enc::srav,
     [](Word a, Word b) {
         return static_cast<Word>(static_cast<SWord>(a) >> (b & 31));
     }},
};

/** A register-immediate op: V0 = op(T0 = a, imm = b & immMask). */
struct ImmOp
{
    const char *name;
    Word (*encode)(unsigned, unsigned, Word); // (rt or rd, T0, imm)
    Word immMask;
    Word (*eval)(Word, Word);
};

/** The 16-bit immediate @p b sign-extended, as slti/sltiu see it. */
SWord
simm(Word b)
{
    return static_cast<std::int16_t>(b);
}

const ImmOp kImmOps[] = {
    {"slti",
     [](unsigned d, unsigned s, Word b) { return enc::slti(d, s, simm(b)); },
     0xffff,
     [](Word a, Word b) { return Word(static_cast<SWord>(a) < simm(b)); }},
    {"sltiu",
     [](unsigned d, unsigned s, Word b) {
         return enc::sltiu(d, s, simm(b));
     },
     0xffff,
     [](Word a, Word b) { return Word(a < static_cast<Word>(simm(b))); }},
    {"andi", enc::andi, 0xffff, [](Word a, Word b) { return a & b; }},
    {"xori", enc::xori, 0xffff, [](Word a, Word b) { return a ^ b; }},
    {"sll", enc::sll, 31, [](Word a, Word b) { return a << b; }},
    {"srl", enc::srl, 31, [](Word a, Word b) { return a >> b; }},
    {"sra", enc::sra, 31,
     [](Word a, Word b) {
         return static_cast<Word>(static_cast<SWord>(a) >> b);
     }},
};

/** A seed, and which interpreter runs the generated programs. */
struct AluParam
{
    unsigned seed;
    bool fast;
};

/** Print only the seed: the instantiation name tells the interpreter. */
void
PrintTo(const AluParam &p, std::ostream *os)
{
    *os << p.seed;
}

std::vector<AluParam>
aluSeeds(bool fast)
{
    std::vector<AluParam> params;
    for (unsigned seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u})
        params.push_back({seed, fast});
    return params;
}

class RandomAlu : public ::testing::TestWithParam<AluParam>
{
  protected:
    /** A fresh machine on the parameter's interpreter, with just
     *  enough memory for the test programs. */
    BareMachine machine()
    {
        MachineConfig config = testutil::interpreterConfig(GetParam().fast);
        config.memBytes = 1 << 18;
        return BareMachine(config);
    }
};

TEST_P(RandomAlu, MatchesHostSemantics)
{
    std::mt19937 rng(GetParam().seed);
    constexpr unsigned kNumOps = std::size(kBinOps) + std::size(kImmOps);
    for (int trial = 0; trial < 60; trial++) {
        Word a = rng();
        Word b = rng();
        unsigned pick = rng() % kNumOps;

        const char *name;
        Word expected;
        BareMachine m = machine();
        if (pick < std::size(kBinOps)) {
            const BinOp &op = kBinOps[pick];
            name = op.name;
            expected = op.eval(a, b);
            m.loadAsm([&](Assembler &as) {
                as.li32(T0, a);
                as.li32(T1, b);
                as.emit(op.encode(V0, T0, T1));
                as.hcall(0);
            });
        } else {
            const ImmOp &op = kImmOps[pick - std::size(kBinOps)];
            name = op.name;
            b &= op.immMask;
            expected = op.eval(a, b);
            m.loadAsm([&](Assembler &as) {
                as.li32(T0, a);
                as.emit(op.encode(V0, T0, b));
                as.hcall(0);
            });
        }
        m.runToHalt();
        EXPECT_EQ(m.cpu().reg(V0), expected)
            << name << "(" << a << ", " << b << ")";
    }
}

TEST_P(RandomAlu, MultDivAgainstHost64Bit)
{
    std::mt19937 rng(GetParam().seed ^ 0x9e3779b9u);
    for (int trial = 0; trial < 20; trial++) {
        Word a = rng();
        Word b = rng() | 1;   // avoid divide-by-zero UNPREDICTABLE
        BareMachine m = machine();
        m.loadAsm([&](Assembler &as) {
            as.li32(T0, a);
            as.li32(T1, b);
            as.multu(T0, T1);
            as.mfhi(V0);
            as.mflo(V1);
            as.divu(T0, T1);
            as.mfhi(A0);
            as.mflo(A1);
            as.hcall(0);
        });
        m.runToHalt();
        std::uint64_t prod = static_cast<std::uint64_t>(a) * b;
        EXPECT_EQ(m.cpu().reg(V0), Word(prod >> 32));
        EXPECT_EQ(m.cpu().reg(V1), Word(prod));
        EXPECT_EQ(m.cpu().reg(A0), a % b);
        EXPECT_EQ(m.cpu().reg(A1), a / b);
    }
}

TEST_P(RandomAlu, StraightLineProgramsRetireExactly)
{
    std::mt19937 rng(GetParam().seed ^ 0x1234567u);
    unsigned n = 20 + rng() % 100;
    BareMachine m = machine();
    m.loadAsm([&](Assembler &as) {
        for (unsigned i = 0; i < n; i++) {
            switch (rng() % 4) {
              case 0: as.addiu(T0, T0, SWord(rng() % 1000)); break;
              case 1: as.ori(T1, T0, rng() & 0xffff); break;
              case 2: as.sll(T2, T1, rng() % 32); break;
              default: as.xor_(T3, T0, T1); break;
            }
        }
        as.hcall(0);
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().instret(), n + 1);
    EXPECT_EQ(m.cpu().stats().exceptionsTaken, 0u);
}

TEST_P(RandomAlu, MemoryPatternRoundTrip)
{
    std::mt19937 rng(GetParam().seed ^ 0xabcdefu);
    // write a random pattern through guest stores, read it back
    // through guest loads: verifies address computation end to end
    std::vector<Word> pattern(32);
    for (Word &w : pattern)
        w = rng();
    BareMachine m = machine();
    m.loadAsm([&](Assembler &as) {
        as.la(T0, "buf");
        for (unsigned i = 0; i < pattern.size(); i++) {
            as.li32(T1, pattern[i]);
            as.sw(T1, SWord(4 * i), T0);
        }
        Word checksum = 0;
        as.li(V0, 0);
        for (unsigned i = 0; i < pattern.size(); i++) {
            as.lw(T1, SWord(4 * i), T0);
            as.xor_(V0, V0, T1);
            checksum ^= pattern[i];
        }
        as.li32(V1, checksum);
        as.hcall(0);
        as.align(8);
        as.label("buf");
        as.space(4 * static_cast<unsigned>(pattern.size()));
    });
    m.runToHalt();
    EXPECT_EQ(m.cpu().reg(V0), m.cpu().reg(V1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAlu,
                         ::testing::ValuesIn(aluSeeds(false)));
INSTANTIATE_TEST_SUITE_P(FastSeeds, RandomAlu,
                         ::testing::ValuesIn(aluSeeds(true)));

// -- lockstep differential fuzz ----------------------------------------------
//
// Seeded random guest programs executed on the reference interpreter
// and on the predecoded fast path (CpuConfig::fastInterpreter), then
// compared architecturally bit-for-bit: registers, CP0, TLB, memory
// and the cycle/statistics counters. The generator deliberately
// produces the sequences the fast path must invalidate on: faulting
// loads and stores (including in branch delay slots), TLB-modifying
// instruction sequences with mapped kuseg accesses through the fresh
// entries, and stores into the instruction stream ahead of execution.
// A failure prints the seed and a disassembly of the whole program.

constexpr unsigned kFuzzShards = 8;
constexpr unsigned kSeedsPerShard = 125; // 1000 seeds total

void
runLockstepSeed(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed);

    MachineConfig ref_cfg;
    ref_cfg.memBytes = 1 << 18;
    MachineConfig fst_cfg = ref_cfg;
    fst_cfg.cpu.fastInterpreter = true;
    testutil::BareMachine ref(ref_cfg);
    testutil::BareMachine fst(fst_cfg);

    Program prog = buildFuzzProgram(seed);
    for (testutil::BareMachine *m : {&ref, &fst}) {
        installFuzzSkipHandlers(m->machine);
        m->machine.load(prog);
        m->cpu().setPc(testutil::kTestOrigin);
    }

    RunResult r = ref.cpu().run(kFuzzInstLimit);
    RunResult f = fst.cpu().run(kFuzzInstLimit);
    EXPECT_EQ(static_cast<int>(r.reason), static_cast<int>(f.reason));
    EXPECT_EQ(r.instsExecuted, f.instsExecuted);
    expectLockstepState(ref.machine, fst.machine);

    if (::testing::Test::HasNonfatalFailure()) {
        ::testing::Message dump;
        dump << "program for failing seed " << seed << ":\n";
        for (std::size_t i = 0; i < prog.words.size(); i++) {
            Addr pc = prog.origin + 4 * static_cast<Addr>(i);
            dump << "  " << std::hex << pc << ": "
                 << disassemble(decode(prog.words[i]), pc) << "\n";
        }
        ADD_FAILURE() << dump;
    }
}

class LockstepFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(LockstepFuzz, RandomProgramsAgreeAcrossInterpreters)
{
    const unsigned base = GetParam() * kSeedsPerShard;
    for (unsigned s = 0; s < kSeedsPerShard; s++) {
        runLockstepSeed(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break; // first failing seed is dumped; stop the shard
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, LockstepFuzz,
                         ::testing::Range(0u, kFuzzShards));

/** Records which ops a run retires, and the divisions whose quotient
 *  the architecture leaves undefined. */
class OpCoverage : public InstObserver
{
  public:
    void onInst(Addr, const DecodedInst &inst, Cycles) override
    {
        retired[static_cast<unsigned>(inst.op)] = true;
        // div/divu write only hi/lo: the operands are still there
        Word rs = cpu->reg(inst.rs), rt = cpu->reg(inst.rt);
        if (inst.op == Op::Div && rt == 0)
            divByZero = true;
        if (inst.op == Op::Divu && rt == 0)
            divuByZero = true;
        if (inst.op == Op::Div && rs == 0x80000000u && rt == 0xffffffffu)
            divIntMinByMinusOne = true;
    }
    void onException(ExcCode, Addr, Addr) override {}

    const Cpu *cpu = nullptr; ///< the observed CPU
    bool retired[NumOps] = {};
    bool divByZero = false;
    bool divuByZero = false;
    bool divIntMinByMinusOne = false;
};

// The lockstep fuzz can only catch a fast-path difference in an op
// its corpus runs: every op the fast interpreter executes without
// leaving its block loop must retire somewhere in the 1000 seeds.
TEST(LockstepFuzzCorpus, RetiresEveryInlineOp)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    OpCoverage cov;
    for (unsigned seed = 0; seed < kFuzzShards * kSeedsPerShard; seed++) {
        testutil::BareMachine m(cfg);
        installFuzzSkipHandlers(m.machine);
        m.machine.load(buildFuzzProgram(seed));
        m.cpu().setPc(testutil::kTestOrigin);
        cov.cpu = &m.cpu();
        m.cpu().setObserver(&cov);
        m.cpu().run(kFuzzInstLimit);
    }

    static const std::pair<Op, const char *> kInlineOps[] = {
        {Op::Sll, "sll"},     {Op::Srl, "srl"},       {Op::Sra, "sra"},
        {Op::Sllv, "sllv"},   {Op::Srlv, "srlv"},     {Op::Srav, "srav"},
        {Op::Addu, "addu"},   {Op::Subu, "subu"},     {Op::And, "and"},
        {Op::Or, "or"},       {Op::Xor, "xor"},       {Op::Nor, "nor"},
        {Op::Slt, "slt"},     {Op::Sltu, "sltu"},     {Op::Mult, "mult"},
        {Op::Multu, "multu"}, {Op::Div, "div"},       {Op::Divu, "divu"},
        {Op::Mfhi, "mfhi"},   {Op::Mthi, "mthi"},     {Op::Mflo, "mflo"},
        {Op::Mtlo, "mtlo"},   {Op::Addiu, "addiu"},   {Op::Slti, "slti"},
        {Op::Sltiu, "sltiu"}, {Op::Andi, "andi"},     {Op::Ori, "ori"},
        {Op::Xori, "xori"},   {Op::Lui, "lui"},       {Op::J, "j"},
        {Op::Jal, "jal"},     {Op::Jr, "jr"},         {Op::Jalr, "jalr"},
        {Op::Beq, "beq"},     {Op::Bne, "bne"},       {Op::Blez, "blez"},
        {Op::Bgtz, "bgtz"},   {Op::Bltz, "bltz"},     {Op::Bgez, "bgez"},
        {Op::Bltzal, "bltzal"}, {Op::Bgezal, "bgezal"},
    };
    for (const auto &[op, name] : kInlineOps)
        EXPECT_TRUE(cov.retired[static_cast<unsigned>(op)]) << name;
    EXPECT_TRUE(cov.divByZero);
    EXPECT_TRUE(cov.divuByZero);
    EXPECT_TRUE(cov.divIntMinByMinusOne);
}

} // namespace
} // namespace uexc::sim
