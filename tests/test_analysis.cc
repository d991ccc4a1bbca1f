/**
 * @file
 * Tests for the guest-code static analyzer (uexc-lint): CFG
 * construction, the dataflow lattices, each check against seeded
 * violations, and the positive assertions that the stock kernel image
 * and every shipped guest program lint clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "core/env.h"
#include "core/lintspec.h"
#include "core/microbench.h"
#include "os/kernelimage.h"
#include "sim/cp0.h"

using namespace uexc;
using namespace uexc::sim;
using namespace uexc::analysis;

namespace {

constexpr Addr kBase = 0x00400000;

/** Lint @p prog as one whole-text region with the given flags. */
std::vector<Finding>
lintText(const Program &prog, bool user_mode = true,
         std::vector<AddrRange> data = {})
{
    RegionSpec spec;
    spec.name = "test";
    spec.begin = prog.origin;
    spec.end = prog.end();
    spec.userMode = user_mode;
    spec.entries = {prog.origin};
    spec.dataRanges = std::move(data);
    return lint(prog, {{spec}});
}

unsigned
count(const std::vector<Finding> &fs, Check c)
{
    return static_cast<unsigned>(
        std::count_if(fs.begin(), fs.end(),
                      [c](const Finding &f) { return f.check == c; }));
}

Cfg
buildCfg(const Program &prog, std::vector<Addr> entries = {},
         std::vector<AddrRange> data = {})
{
    if (entries.empty())
        entries = {prog.origin};
    CodeRegion region;
    region.begin = prog.origin;
    region.end = prog.end();
    region.entries = std::move(entries);
    region.dataRanges = std::move(data);
    return Cfg::build(prog, region);
}

// -- CFG construction ------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock)
{
    Assembler a(kBase);
    a.addiu(T0, Zero, 1);
    a.addiu(T1, Zero, 2);
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    Cfg cfg = buildCfg(p);
    ASSERT_EQ(cfg.blocks().size(), 1u);
    EXPECT_EQ(cfg.blocks()[0].begin, kBase);
    EXPECT_EQ(cfg.blocks()[0].end, p.end());
    EXPECT_FALSE(cfg.blocks()[0].fallsOff);
    EXPECT_TRUE(cfg.reached(kBase + 8));
    EXPECT_TRUE(cfg.isDelaySlot(kBase + 12));
}

TEST(Cfg, BranchSplitsBlocksAndKeepsDelaySlot)
{
    Assembler a(kBase);
    a.beq(T0, Zero, "skip");   // block 0: beq + delay slot
    a.addiu(T1, Zero, 1);      //   delay slot
    a.addiu(T2, Zero, 2);      // block 1: fallthrough
    a.label("skip");
    a.jr(RA);                  // block 2
    a.nop();
    Program p = a.finalize();

    Cfg cfg = buildCfg(p);
    ASSERT_EQ(cfg.blocks().size(), 3u);
    const BasicBlock &b0 = cfg.blocks()[0];
    EXPECT_EQ(b0.end, kBase + 8); // branch travels with its slot
    ASSERT_EQ(b0.succs.size(), 2u);
    EXPECT_TRUE(cfg.isDelaySlot(kBase + 4));
    // the delay slot executes before both successor targets
    std::vector<Addr> next = cfg.nextExecuted(kBase + 4);
    EXPECT_EQ(next.size(), 2u);
}

TEST(Cfg, JumpTableWordsAreMinedAsEntries)
{
    Assembler a(kBase);
    a.jr(RA);                 // entry block; table is not fallthrough
    a.nop();
    a.label("target");
    a.jr(RA);
    a.nop();
    a.label("table");
    a.wordAddr("target");
    Program p = a.finalize();

    Addr table = p.symbol("table");
    Cfg cfg = buildCfg(p, {p.origin}, {{table, table + 4}});
    EXPECT_TRUE(cfg.reached(p.symbol("target")));
    EXPECT_FALSE(cfg.reached(table));
    ASSERT_EQ(cfg.minedEntries().size(), 1u);
    EXPECT_EQ(cfg.minedEntries()[0], p.symbol("target"));
}

// -- dataflow --------------------------------------------------------------

TEST(Dataflow, SavedInIsIntersectionOverPaths)
{
    // One path saves s0, the other does not; at the join s0 must not
    // count as saved.
    Assembler a(kBase);
    a.beq(T0, Zero, "other");
    a.nop();
    a.sw(S0, 0, T3);          // path A saves s0
    a.j("join");
    a.nop();
    a.label("other");
    a.sw(S1, 4, T3);          // path B saves s1 instead
    a.label("join");
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    Cfg cfg = buildCfg(p);
    std::vector<Word> saved = savedInMasks(cfg);
    int join = cfg.blockIndexAt(p.symbol("join"));
    ASSERT_GE(join, 0);
    EXPECT_EQ(saved[join] & (Word{1} << S0), 0u);
    EXPECT_EQ(saved[join] & (Word{1} << S1), 0u);
}

TEST(Dataflow, LiveInSeesReadsThroughBranches)
{
    Assembler a(kBase);
    a.beq(T0, Zero, "use");
    a.nop();
    a.jr(RA);
    a.nop();
    a.label("use");
    a.addu(T1, S3, S4);       // s3/s4 live into the region
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    Cfg cfg = buildCfg(p);
    std::vector<Word> live = liveInMasks(cfg);
    int entry = cfg.blockIndexAt(kBase);
    ASSERT_GE(entry, 0);
    EXPECT_NE(live[entry] & (Word{1} << S3), 0u);
    EXPECT_NE(live[entry] & (Word{1} << S4), 0u);
    EXPECT_NE(live[entry] & (Word{1} << T0), 0u);
}

// -- seeded violations -----------------------------------------------------

TEST(LintNegative, LoadDelayHazardIsFlagged)
{
    Assembler a(kBase);
    a.lw(T0, 0, A0);
    a.addu(T1, T0, T0);       // consumes t0 in the load delay slot
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    std::vector<Finding> fs = lintText(p);
    EXPECT_EQ(count(fs, Check::LoadDelayHazard), 1u);
    EXPECT_FALSE(hasErrors(fs));      // hazard is a warning...
    EXPECT_TRUE(hasErrors(fs, true)); // ...which --strict promotes
}

TEST(LintNegative, HazardThroughBranchIntoDelaySlotConsumer)
{
    // The load sits in the delay slot; its value is consumed at the
    // branch target — only the dynamic next-executed relation, not
    // textual adjacency, sees this hazard.
    Assembler a(kBase);
    a.beq(Zero, Zero, "target");
    a.lw(T0, 0, A0);          // delay slot load
    a.nop();
    a.label("target");
    a.addu(T1, T0, T0);
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    EXPECT_EQ(count(lintText(p), Check::LoadDelayHazard), 1u);
}

TEST(LintNegative, BranchInDelaySlotIsError)
{
    Assembler a(kBase);
    a.beq(T0, Zero, "out");
    a.beq(T1, Zero, "out");   // branch in the delay slot
    a.nop();
    a.label("out");
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    std::vector<Finding> fs = lintText(p);
    EXPECT_GE(count(fs, Check::ControlInDelaySlot), 1u);
    EXPECT_TRUE(hasErrors(fs));
}

TEST(LintNegative, PrivilegedInstructionInUserCodeIsError)
{
    Assembler a(kBase);
    a.mfc0(T0, cp0reg::Status); // privileged
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    std::vector<Finding> fs = lintText(p, /*user_mode=*/true);
    EXPECT_EQ(count(fs, Check::PrivilegedInUserCode), 1u);
    EXPECT_TRUE(hasErrors(fs));
    // the same code in a kernel region is fine
    EXPECT_EQ(count(lintText(p, /*user_mode=*/false),
                    Check::PrivilegedInUserCode),
              0u);
}

TEST(LintNegative, UnreachableCodeIsFlagged)
{
    Assembler a(kBase);
    a.jr(RA);
    a.nop();
    a.addiu(T0, Zero, 7);     // dead code after the return
    a.addiu(T1, Zero, 8);
    Program p = a.finalize();

    std::vector<Finding> fs = lintText(p);
    EXPECT_EQ(count(fs, Check::UnreachableCode), 1u);
    EXPECT_FALSE(hasErrors(fs));
}

TEST(LintNegative, ReachableInvalidOpcodeIsError)
{
    Assembler a(kBase);
    a.word(0xffffffffu);      // does not decode
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    std::vector<Finding> fs = lintText(p);
    EXPECT_EQ(count(fs, Check::InvalidOpcode), 1u);
    EXPECT_TRUE(hasErrors(fs));
}

/** A handler region over [begin, end) with the fast-stub scratch set. */
std::vector<Finding>
lintHandler(const Program &prog, Addr begin, Addr end)
{
    RegionSpec spec;
    spec.name = "handler";
    spec.begin = begin;
    spec.end = end;
    spec.userMode = true;
    spec.handler = true;
    spec.scratchMask = rt::fastStubScratchMask();
    spec.entries = {begin};
    return lint(prog, {{spec}});
}

TEST(LintNegative, HandlerClobberingCalleeSavedRegisterIsError)
{
    Assembler a(kBase);
    a.addiu(S0, Zero, 1);     // s0 clobbered, never saved
    a.jr(K0);
    a.nop();
    Program p = a.finalize();

    std::vector<Finding> fs = lintHandler(p, p.origin, p.end());
    EXPECT_EQ(count(fs, Check::ClobberedRegister), 1u);
    EXPECT_TRUE(hasErrors(fs));
}

TEST(LintNegative, HandlerSavingFirstIsClean)
{
    Assembler a(kBase);
    a.sw(S0, 0, T3);          // save s0 into the frame...
    a.addiu(S0, Zero, 1);     // ...then it may be clobbered
    a.lw(S0, 0, T3);
    a.jr(K0);
    a.nop();
    Program p = a.finalize();

    EXPECT_EQ(count(lintHandler(p, p.origin, p.end()),
                    Check::ClobberedRegister),
              0u);
}

TEST(LintNegative, SaveOnOnlyOnePathStillClobbers)
{
    Assembler a(kBase);
    a.beq(T0, Zero, "skip");
    a.nop();
    a.sw(S0, 0, T3);          // saved on the taken path only
    a.label("skip");
    a.addiu(S0, Zero, 1);     // not saved on every path: error
    a.jr(K0);
    a.nop();
    Program p = a.finalize();

    EXPECT_EQ(count(lintHandler(p, p.origin, p.end()),
                    Check::ClobberedRegister),
              1u);
}

TEST(LintNegative, TruncatedHandlerIsError)
{
    Assembler a(kBase);
    a.addiu(T0, Zero, 1);
    a.addiu(T1, Zero, 2);
    a.jr(K0);
    a.nop();
    Program p = a.finalize();

    // Cut the region before the return: control runs off the end.
    std::vector<Finding> fs = lintHandler(p, p.origin, p.origin + 8);
    EXPECT_EQ(count(fs, Check::FallOffEnd), 1u);
    EXPECT_TRUE(hasErrors(fs));
}

// -- fast-path structural verification -------------------------------------

TEST(FastPath, StockKernelMatchesTable3)
{
    Program image = os::buildKernelImage();
    std::vector<Finding> fs =
        verifyFastPath(image, os::kernelFastPathSpec(image));
    EXPECT_TRUE(fs.empty()) << formatFindings(fs);

    // and the phase counts really are the paper's 6/11/31/6/8/3
    FastPathSpec spec = os::kernelFastPathSpec(image);
    unsigned total = 0;
    for (const FastPathSpec::Phase &ph : spec.phases)
        total += (ph.end - ph.begin) / 4;
    EXPECT_EQ(total, 65u);
}

TEST(FastPath, TamperedStoreBaseIsCaught)
{
    Program image = os::buildKernelImage();
    // Rewrite one in-path store to go through s0 instead of the
    // pinned-frame base k1.
    Assembler a(0);
    a.sw(T4, 0, S0);
    Word bad_store = a.finalize().words[0];

    Addr save = image.symbol(os::ksym::FastSave);
    bool patched = false;
    for (Addr p = save; p < image.symbol(os::ksym::FastFp); p += 4) {
        DecodedInst inst = decode(image.words[(p - image.origin) / 4]);
        if (inst.op == Op::Sw) {
            image.words[(p - image.origin) / 4] = bad_store;
            patched = true;
            break;
        }
    }
    ASSERT_TRUE(patched);

    std::vector<Finding> fs =
        verifyFastPath(image, os::kernelFastPathSpec(image));
    EXPECT_EQ(count(fs, Check::FastPathStructure), 1u);
    EXPECT_TRUE(hasErrors(fs));
}

TEST(FastPath, WrongPhaseCountIsCaught)
{
    Program image = os::buildKernelImage();
    FastPathSpec spec = os::kernelFastPathSpec(image);
    spec.phases[2].expectedWords += 1; // claim save takes 32 words
    std::vector<Finding> fs = verifyFastPath(image, spec);
    EXPECT_EQ(count(fs, Check::FastPathStructure), 1u);
}

// -- positives: everything we ship lints clean -----------------------------

TEST(LintPositive, KernelImageHasNoErrors)
{
    Program image = os::buildKernelImage();
    std::vector<Finding> fs = os::lintKernelImage(image);
    EXPECT_FALSE(hasErrors(fs)) << formatFindings(fs);
    // the known R3000 load-delay hazards are reported as warnings
    EXPECT_GT(count(fs, Check::LoadDelayHazard), 0u);
}

TEST(LintPositive, EveryShimVariantHasNoErrors)
{
    for (rt::SavePolicy policy :
         {rt::SavePolicy::UltrixEquivalent, rt::SavePolicy::Minimal}) {
        for (bool hw : {false, true}) {
            Program p = rt::UserEnv::buildShimProgram(policy, hw);
            std::vector<Finding> fs =
                lint(p, rt::userProgramLintConfig(p));
            EXPECT_FALSE(hasErrors(fs)) << formatFindings(fs);
        }
    }
}

TEST(LintPositive, EveryMicrobenchScenarioHasNoErrors)
{
    for (rt::micro::Scenario s : rt::micro::kAllScenarios) {
        Program p = rt::micro::buildScenarioProgram(s);
        std::vector<Finding> fs =
            lint(p, rt::userProgramLintConfig(p));
        EXPECT_FALSE(hasErrors(fs))
            << rt::micro::scenarioName(s) << ":\n"
            << formatFindings(fs);
    }
}

// -- value-set analysis ----------------------------------------------------

TEST(Vsa, ConstantsAndPrIdMaterialize)
{
    Assembler a(kBase);
    a.li32(T0, 0xdeadbeefu);
    a.mfc0(T1, cp0reg::PrId);
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    CodeRegion region;
    region.begin = p.origin;
    region.end = p.end();
    region.entries = {p.origin};

    VsaOptions opts;
    opts.modelPrId = true;
    opts.prIdValue = 3u << 24;
    Vsa v = Vsa::run(p, region, opts);

    Addr at_jr = kBase + 12;
    ValueSet t0 = v.regIn(at_jr, T0);
    ASSERT_TRUE(t0.isConst());
    EXPECT_EQ(t0.constValue(), 0xdeadbeefu);
    ValueSet t1 = v.regIn(at_jr, T1);
    ASSERT_TRUE(t1.isConst());
    EXPECT_EQ(t1.constValue(), 3u << 24);

    // Without PrId modeling the same read is unknown.
    Vsa v2 = Vsa::run(p, region);
    EXPECT_TRUE(v2.regIn(at_jr, T1).isTop());
}

TEST(Vsa, JoinAndAddConstStayPrecise)
{
    ValueSet j = join(ValueSet::constant(0x100), ValueSet::constant(0x108));
    ASSERT_EQ(j.kind, ValueSet::Kind::Strided);
    EXPECT_EQ(j.base, 0x100u);
    EXPECT_EQ(j.last(), 0x108u);

    ValueSet shifted = addConst(j, 0x20);
    ASSERT_EQ(shifted.kind, ValueSet::Kind::Strided);
    EXPECT_EQ(shifted.base, 0x120u);
    EXPECT_EQ(shifted.last(), 0x128u);

    EXPECT_TRUE(addConst(ValueSet::top(), 4).isTop());
    EXPECT_TRUE(
        ValueSet::strided(0, 4, ValueSet::kMaxCount + 1).isTop());
}

TEST(Vsa, ResolvesComputedJumpThroughMinedTable)
{
    Assembler a(kBase);
    a.la(T0, "table");
    a.lw(T1, 0, T0);
    a.jr(T1);
    a.nop();
    a.label("target");
    a.jr(RA);
    a.nop();
    a.label("table");
    a.wordAddr("target");
    Program p = a.finalize();

    Addr table = p.symbol("table");
    CodeRegion region;
    region.begin = p.origin;
    region.end = p.end();
    region.entries = {p.origin};
    region.dataRanges = {{table, table + 4}};

    Vsa v = Vsa::run(p, region);
    Addr jr_at = kBase + 12; // la is two words
    auto it = v.resolvedJumps().find(jr_at);
    ASSERT_NE(it, v.resolvedJumps().end())
        << "jr through the mined table was not resolved";
    ASSERT_EQ(it->second.size(), 1u);
    EXPECT_EQ(it->second[0], p.symbol("target"));
    EXPECT_TRUE(v.cfg().reached(p.symbol("target")));
}

TEST(Vsa, ComputedJumpChainKeepsRegisterFacts)
{
    // A chain of computed jumps, longer than any fixed number of CFG
    // rebuilds one might cap it at: each target is reached only along
    // its jump's edge, so the base register set before the first jump
    // is still a constant after the last one.
    constexpr unsigned kHops = 12;
    Assembler a(kBase);
    a.la(T9, "buf");
    for (unsigned i = 0; i < kHops; i++) {
        std::string hop = "hop" + std::to_string(i);
        a.la(T0, hop);
        a.jr(T0);
        a.nop();
        a.label(hop);
    }
    a.label("use");
    a.lw(T1, 0, T9);
    a.jr(RA);
    a.nop();
    a.label("buf");
    a.word(0);
    Program p = a.finalize();

    Addr buf = p.symbol("buf");
    CodeRegion region;
    region.begin = p.origin;
    region.end = p.end();
    region.entries = {p.origin};
    region.dataRanges = {{buf, buf + 4}};

    Vsa v = Vsa::run(p, region);
    Addr use = p.symbol("use");
    ASSERT_TRUE(v.cfg().reached(use));
    EXPECT_EQ(v.resolvedJumps().size(), kHops);
    ValueSet ea = v.effectiveAddress(use);
    ASSERT_TRUE(ea.isConst()) << "the jumps erased the base register";
    EXPECT_EQ(ea.constValue(), buf);
}

// -- shared-page conflict analysis ----------------------------------------

TEST(Conflict, DelaySlotStraddlingPageBoundaryFetchesBothPages)
{
    // The jump's delay slot is the first word of the next page: the
    // block (branch + slot) spans the boundary and the may-fetch set
    // must cover both pages.
    Assembler a(0x00400ffcu);
    a.j("t");
    a.nop(); // delay slot at 0x00401000
    a.label("t");
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    CodeRegion region;
    region.begin = p.origin;
    region.end = p.end();
    region.entries = {p.origin};

    PageAccessSummary s = analyzePageAccesses(p, region, {});
    EXPECT_TRUE(s.fetchPages.count(0x400));
    EXPECT_TRUE(s.fetchPages.count(0x401));
    EXPECT_TRUE(s.readPages.empty());
    EXPECT_TRUE(s.writePages.empty());
}

TEST(LintNegative, SharedWriteReadOverlapIsNotedOncePerPage)
{
    Assembler a(kBase);
    a.li32(T0, 0x00500000u);
    a.sw(T1, 0, T0);
    a.sw(T1, 8, T0);
    a.lw(T2, 4, T0);
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    RegionSpec spec;
    spec.name = "text";
    spec.begin = p.origin;
    spec.end = p.end();
    spec.entries = {p.origin};
    LintConfig config;
    config.regions = {spec};
    config.multihart = 2;

    std::vector<Finding> fs = lint(p, config);
    ASSERT_EQ(count(fs, Check::SharedPageConflict), 1u)
        << formatFindings(fs);
    EXPECT_EQ(count(fs, Check::UnsyncSharedWrite), 0u);
    EXPECT_FALSE(hasErrors(fs)) << formatFindings(fs);
    for (const Finding &f : fs) {
        if (f.check != Check::SharedPageConflict)
            continue;
        EXPECT_EQ(f.severity, Severity::Note);
        bool has_page = false;
        for (const auto &[key, value] : f.payload)
            if (key == "page") {
                has_page = true;
                EXPECT_EQ(value, 0x500u);
            }
        EXPECT_TRUE(has_page);
    }
    // Single-hart analysis of the same program reports nothing.
    config.multihart = 0;
    EXPECT_EQ(count(lint(p, config), Check::SharedPageConflict), 0u);
}

TEST(LintNegative, UnboundedStoreAddressIsErrorUnderMultihart)
{
    Assembler a(kBase);
    a.sw(T1, 0, T0); // T0 unknown at entry: address set unbounded
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    RegionSpec spec;
    spec.name = "text";
    spec.begin = p.origin;
    spec.end = p.end();
    spec.entries = {p.origin};
    LintConfig config;
    config.regions = {spec};
    config.multihart = 2;

    std::vector<Finding> fs = lint(p, config);
    EXPECT_GE(count(fs, Check::UnsyncSharedWrite), 1u)
        << formatFindings(fs);
    EXPECT_TRUE(hasErrors(fs));
}

// -- worst-case handler latency --------------------------------------------

/** Handler-region spec with every register scratch so only the WCET
 *  checks are under test. */
RegionSpec
wcetHandlerSpec(const Program &p, Cycles budget)
{
    RegionSpec h;
    h.name = "h";
    h.begin = p.origin;
    h.end = p.end();
    h.handler = true;
    h.scratchMask = ~Word(0);
    h.entries = {p.origin};
    h.wcetBudget = budget;
    return h;
}

TEST(LintNegative, UnboundedHandlerLoopIsFlagged)
{
    Assembler a(kBase);
    a.label("spin");
    a.j("spin");
    a.nop();
    Program p = a.finalize();

    LintConfig config;
    config.regions = {wcetHandlerSpec(p, 1000)};
    config.analyzeWcet = true;

    std::vector<Finding> fs = lint(p, config);
    EXPECT_EQ(count(fs, Check::UnboundedHandlerLoop), 1u)
        << formatFindings(fs);
    EXPECT_EQ(count(fs, Check::HandlerWcetExceedsBudget), 0u);
    EXPECT_TRUE(hasErrors(fs));
}

TEST(LintNegative, HandlerOverBudgetIsFlagged)
{
    Assembler a(kBase);
    for (int i = 0; i < 16; i++)
        a.nop();
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    LintConfig config;
    config.regions = {wcetHandlerSpec(p, 4)}; // 18 instructions min
    config.analyzeWcet = true;

    std::vector<Finding> fs = lint(p, config);
    ASSERT_EQ(count(fs, Check::HandlerWcetExceedsBudget), 1u)
        << formatFindings(fs);
    for (const Finding &f : fs) {
        if (f.check != Check::HandlerWcetExceedsBudget)
            continue;
        std::uint64_t wcet = 0, budget = 0;
        for (const auto &[key, value] : f.payload) {
            if (key == "wcet_cycles")
                wcet = value;
            else if (key == "budget_cycles")
                budget = value;
        }
        EXPECT_EQ(budget, 4u);
        EXPECT_GE(wcet, 18u);
    }
}

TEST(LintPositive, BudgetBoundedLoopIsNotFlagged)
{
    // A counted loop the bounded-loop inference can prove finite: it
    // must produce neither UnboundedHandlerLoop nor (with a generous
    // budget) HandlerWcetExceedsBudget.
    Assembler a(kBase);
    a.addiu(T0, Zero, 4);
    a.label("head");
    a.addiu(T0, T0, -1);
    a.bne(T0, Zero, "head");
    a.nop();
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    LintConfig config;
    config.regions = {wcetHandlerSpec(p, 1000)};
    config.analyzeWcet = true;

    std::vector<Finding> fs = lint(p, config);
    EXPECT_EQ(count(fs, Check::UnboundedHandlerLoop), 0u)
        << formatFindings(fs);
    EXPECT_EQ(count(fs, Check::HandlerWcetExceedsBudget), 0u)
        << formatFindings(fs);

    // The same loop against a budget the folded iterations cannot
    // fit: the WCET check must see the loop body four times.
    config.regions = {wcetHandlerSpec(p, 8)};
    fs = lint(p, config);
    EXPECT_EQ(count(fs, Check::UnboundedHandlerLoop), 0u);
    EXPECT_EQ(count(fs, Check::HandlerWcetExceedsBudget), 1u)
        << formatFindings(fs);
}

// -- JSON output -----------------------------------------------------------

TEST(LintJson, FindingsSerializeWithPayload)
{
    Assembler a(kBase);
    a.li32(T0, 0x00500000u);
    a.sw(T1, 0, T0);
    a.lw(T2, 4, T0);
    a.jr(RA);
    a.nop();
    Program p = a.finalize();

    RegionSpec spec;
    spec.name = "text";
    spec.begin = p.origin;
    spec.end = p.end();
    spec.entries = {p.origin};
    LintConfig config;
    config.regions = {spec};
    config.multihart = 2;

    std::string js = formatFindingsJson(lint(p, config));
    EXPECT_NE(js.find("\"check\": \"shared-page-conflict\""),
              std::string::npos)
        << js;
    EXPECT_NE(js.find("\"severity\": \"note\""), std::string::npos)
        << js;
    EXPECT_NE(js.find("\"page\": 1280"), std::string::npos) << js;

    EXPECT_EQ(formatFindingsJson({}), "[\n]\n");
}

TEST(LintPositive, ShimHandlerRegionsAreDetected)
{
    Program p = rt::UserEnv::buildShimProgram(
        rt::SavePolicy::UltrixEquivalent, true);
    LintConfig config = rt::userProgramLintConfig(p);
    // whole-text region + fast_stub + hw_stub handler regions
    ASSERT_EQ(config.regions.size(), 3u);
    unsigned handlers = 0;
    for (const RegionSpec &r : config.regions) {
        if (!r.handler)
            continue;
        handlers++;
        if (r.name == "hw_stub")
            EXPECT_EQ(r.scratchMask, rt::hwStubScratchMask());
        else
            EXPECT_EQ(r.scratchMask, rt::fastStubScratchMask());
    }
    EXPECT_EQ(handlers, 2u);
}

} // namespace
