#include "analysis/vsa.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "sim/cp0.h"

namespace uexc::analysis {

namespace {

using sim::DecodedInst;
using sim::Op;

/** Blocks whose in-state is joined more often than this have the
 *  changed registers widened straight to Top (loop counters etc.),
 *  which bounds the fixpoint. */
constexpr unsigned kWidenVisits = 12;

/** A computed jump with more candidate targets than this stays
 *  unresolved (a real jump table is a handful of entries). */
constexpr std::uint32_t kMaxJumpTargets = 64;

std::uint64_t
absDiff(Word a, Word b)
{
    return a > b ? std::uint64_t(a) - b : std::uint64_t(b) - a;
}

RegState
allTop()
{
    RegState s;
    s.fill(ValueSet::top());
    s[0] = ValueSet::constant(0);
    return s;
}

} // namespace

ValueSet
ValueSet::strided(Word base, Word stride, std::uint32_t count)
{
    if (count == 0)
        return bottom();
    if (count == 1 || stride == 0)
        return constant(base);
    if (count > kMaxCount)
        return top();
    // Reject sets that wrap past 2^32 so last() stays meaningful.
    std::uint64_t last =
        std::uint64_t(base) + std::uint64_t(stride) * (count - 1);
    if (last > 0xffffffffull)
        return top();
    ValueSet v;
    v.kind = Kind::Strided;
    v.base = base;
    v.stride = stride;
    v.count = count;
    return v;
}

ValueSet
join(const ValueSet &a, const ValueSet &b)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    if (a.isTop() || b.isTop())
        return ValueSet::top();
    if (a == b)
        return a;
    Word lo = std::min(a.base, b.base);
    Word hi = std::max(a.last(), b.last());
    std::uint64_t g = std::gcd(std::uint64_t(a.stride),
                               std::uint64_t(b.stride));
    g = std::gcd(g, absDiff(a.base, b.base));
    if (g == 0 || g > 0xffffffffull)
        return ValueSet::top();
    std::uint64_t count = (std::uint64_t(hi) - lo) / g + 1;
    if (count > ValueSet::kMaxCount)
        return ValueSet::top();
    return ValueSet::strided(lo, Word(g), std::uint32_t(count));
}

ValueSet
addConst(const ValueSet &a, Word k)
{
    if (a.kind != ValueSet::Kind::Strided)
        return a;
    Word nb = a.base + k; // mod 2^32: negative offsets are common
    return ValueSet::strided(nb, a.stride, a.count);
}

void
Vsa::step(Addr pc, const DecodedInst &inst, RegState &state) const
{
    const ValueSet &rs = state[inst.rs];
    const ValueSet &rt = state[inst.rt];
    auto set = [&state](unsigned reg, const ValueSet &v) {
        if (reg != 0)
            state[reg] = v;
    };
    auto binConst = [&](unsigned dst, const ValueSet &x,
                        const ValueSet &y, auto fn) {
        if (x.isConst() && y.isConst())
            set(dst, ValueSet::constant(fn(x.constValue(),
                                           y.constValue())));
        else
            set(dst, ValueSet::top());
    };

    switch (inst.op) {
      case Op::Sll:
        if (rt.kind == ValueSet::Kind::Strided) {
            std::uint64_t nb = std::uint64_t(rt.base) << inst.shamt;
            std::uint64_t ns = std::uint64_t(rt.stride) << inst.shamt;
            if (nb <= 0xffffffffull && ns <= 0xffffffffull)
                set(inst.rd, ValueSet::strided(Word(nb), Word(ns),
                                               rt.count));
            else
                set(inst.rd, ValueSet::top());
        } else {
            set(inst.rd, rt);
        }
        break;
      case Op::Srl:
        if (rt.isConst())
            set(inst.rd,
                ValueSet::constant(rt.constValue() >> inst.shamt));
        else
            set(inst.rd, ValueSet::top());
        break;
      case Op::Sra:
        if (rt.isConst())
            set(inst.rd, ValueSet::constant(Word(
                             SWord(rt.constValue()) >> inst.shamt)));
        else
            set(inst.rd, ValueSet::top());
        break;
      case Op::Sllv:
        binConst(inst.rd, rt, rs,
                 [](Word a, Word b) { return a << (b & 31); });
        break;
      case Op::Srlv:
        binConst(inst.rd, rt, rs,
                 [](Word a, Word b) { return a >> (b & 31); });
        break;
      case Op::Srav:
        binConst(inst.rd, rt, rs, [](Word a, Word b) {
            return Word(SWord(a) >> (b & 31));
        });
        break;
      case Op::Add:
      case Op::Addu:
        if (rt.isConst())
            set(inst.rd, addConst(rs, rt.constValue()));
        else if (rs.isConst())
            set(inst.rd, addConst(rt, rs.constValue()));
        else
            set(inst.rd, ValueSet::top());
        break;
      case Op::Sub:
      case Op::Subu:
        if (rt.isConst())
            set(inst.rd, addConst(rs, Word(0) - rt.constValue()));
        else
            set(inst.rd, ValueSet::top());
        break;
      case Op::And:
        binConst(inst.rd, rs, rt, [](Word a, Word b) { return a & b; });
        break;
      case Op::Or:
        binConst(inst.rd, rs, rt, [](Word a, Word b) { return a | b; });
        break;
      case Op::Xor:
        binConst(inst.rd, rs, rt, [](Word a, Word b) { return a ^ b; });
        break;
      case Op::Nor:
        binConst(inst.rd, rs, rt,
                 [](Word a, Word b) { return ~(a | b); });
        break;
      case Op::Slt:
        binConst(inst.rd, rs, rt, [](Word a, Word b) {
            return Word(SWord(a) < SWord(b));
        });
        break;
      case Op::Sltu:
        binConst(inst.rd, rs, rt,
                 [](Word a, Word b) { return Word(a < b); });
        break;
      case Op::Mfhi:
      case Op::Mflo:
        set(inst.rd, ValueSet::top());
        break;
      case Op::Mthi:
      case Op::Mtlo:
      case Op::Mult:
      case Op::Multu:
      case Op::Div:
      case Op::Divu:
        break; // hi/lo only; not tracked
      case Op::Addi:
      case Op::Addiu:
        set(inst.rt, addConst(rs, inst.simm));
        break;
      case Op::Slti:
        if (rs.isConst())
            set(inst.rt, ValueSet::constant(Word(
                             SWord(rs.constValue()) < SWord(inst.simm))));
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Sltiu:
        if (rs.isConst())
            set(inst.rt,
                ValueSet::constant(Word(rs.constValue() < inst.simm)));
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Andi:
        if (rs.isConst())
            set(inst.rt,
                ValueSet::constant(rs.constValue() & inst.imm));
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Ori:
        if (rs.isConst())
            set(inst.rt,
                ValueSet::constant(rs.constValue() | inst.imm));
        else if (inst.imm == 0)
            set(inst.rt, rs); // move
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Xori:
        if (rs.isConst())
            set(inst.rt,
                ValueSet::constant(rs.constValue() ^ inst.imm));
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Lui:
        // Together with the Ori/Addiu/load-store cases above this
        // tracks the lui+ori (li32/la) and carry-adjusted %hi/%lo
        // materialization idioms; all guest producers emit them
        // through sim/pseudo.h, so this matcher has one producer to
        // stay in sync with.
        set(inst.rt, ValueSet::constant(inst.imm << 16));
        break;
      case Op::Jal:
      case Op::Bltzal:
      case Op::Bgezal:
        set(sim::RA, ValueSet::constant(pc + 8));
        break;
      case Op::Jalr:
        set(inst.rd, ValueSet::constant(pc + 8));
        break;
      case Op::J:
      case Op::Jr:
      case Op::Beq:
      case Op::Bne:
      case Op::Blez:
      case Op::Bgtz:
      case Op::Bltz:
      case Op::Bgez:
        break;
      case Op::Lw:
        set(inst.rt, mineWordLoad(addConst(rs, inst.simm)));
        break;
      case Op::Lb:
      case Op::Lbu:
      case Op::Lh:
      case Op::Lhu:
        set(inst.rt, ValueSet::top());
        break;
      case Op::Sb:
      case Op::Sh:
      case Op::Sw:
        break;
      case Op::Mfc0:
        // Per-hart analysis models the PrId read as the concrete hart
        // id; every other CP0 read is unknown.
        if (opts_.modelPrId && inst.rd == sim::cp0reg::PrId)
            set(inst.rt, ValueSet::constant(opts_.prIdValue));
        else
            set(inst.rt, ValueSet::top());
        break;
      case Op::Mfux:
        set(inst.rt, ValueSet::top());
        break;
      case Op::Mtc0:
      case Op::Mtux:
      case Op::Tlbr:
      case Op::Tlbwi:
      case Op::Tlbwr:
      case Op::Tlbp:
      case Op::Tlbmp:
      case Op::Rfe:
      case Op::Xret:
      case Op::Invalid:
        break;
      case Op::Syscall:
      case Op::Break:
      case Op::Hcall:
        // A trap to the kernel or a host service call may rewrite any
        // register before execution resumes here: havoc everything.
        for (unsigned r = 1; r < sim::NumRegs; r++)
            state[r] = ValueSet::top();
        break;
    }
}

ValueSet
Vsa::mineWordLoad(const ValueSet &addrs) const
{
    // A word load whose address set is bounded and entirely inside a
    // declared data range reads program constants: fold them. This is
    // what resolves `lw rd, table(index)` jump tables.
    if (addrs.kind != ValueSet::Kind::Strided || addrs.count > 256)
        return ValueSet::top();
    ValueSet value = ValueSet::bottom();
    for (std::uint32_t k = 0; k < addrs.count; k++) {
        Addr a = addrs.base + k * addrs.stride;
        if ((a & 3) != 0 || a < cfg_.begin() || a >= cfg_.end() ||
            !cfg_.isData(a))
            return ValueSet::top();
        value = join(value, ValueSet::constant(cfg_.word(a)));
        if (value.isTop())
            return value;
    }
    return value;
}

void
Vsa::fixpoint()
{
    const std::vector<BasicBlock> &blocks = cfg_.blocks();
    inStates_.assign(blocks.size(), RegState{});
    std::vector<unsigned> visits(blocks.size(), 0);
    std::deque<unsigned> work;
    std::vector<bool> queued(blocks.size(), false);

    // Entry blocks (declared entries + mined jump-table targets) start
    // with every register unknown; resolved jr targets are reached
    // along their edges instead.
    auto seed = [&](Addr a) {
        int bi = cfg_.blockIndexAt(a);
        if (bi >= 0 && blocks[bi].begin == a) {
            inStates_[bi] = allTop();
            if (!queued[bi]) {
                queued[bi] = true;
                work.push_back(unsigned(bi));
            }
        }
    };
    for (Addr a : cfg_.region().entries)
        seed(a);
    for (Addr a : cfg_.minedEntries())
        seed(a);

    while (!work.empty()) {
        unsigned bi = work.front();
        work.pop_front();
        queued[bi] = false;
        visits[bi]++;

        RegState state = inStates_[bi];
        for (Addr a = blocks[bi].begin; a < blocks[bi].end; a += 4)
            step(a, cfg_.inst(a), state);

        for (unsigned si : blocks[bi].succs) {
            RegState merged;
            bool changed = false;
            for (unsigned r = 0; r < sim::NumRegs; r++) {
                merged[r] = join(inStates_[si][r], state[r]);
                // Widen still-changing registers (loop counters) once
                // the block has been revisited enough.
                if (merged[r] != inStates_[si][r] &&
                    visits[si] > kWidenVisits)
                    merged[r] = ValueSet::top();
                changed |= merged[r] != inStates_[si][r];
            }
            if (changed) {
                inStates_[si] = merged;
                if (!queued[si]) {
                    queued[si] = true;
                    work.push_back(si);
                }
            }
        }
    }
}

Vsa
Vsa::run(const sim::Program &prog, const CodeRegion &region,
         const VsaOptions &opts)
{
    Vsa vsa;
    vsa.opts_ = opts;

    // Resolve bounded computed jumps: every candidate target that is
    // code in the region gets an edge from the jump, then re-analyze
    // until no jump finds a new target. Edges are only ever added and
    // every target is a region address, so this terminates.
    for (;;) {
        vsa.cfg_ = Cfg::build(prog, region, vsa.resolvedJumps_);
        vsa.fixpoint();

        bool grew = false;
        for (const BasicBlock &b : vsa.cfg_.blocks()) {
            for (Addr a = b.begin; a < b.end; a += 4) {
                const DecodedInst &inst = vsa.cfg_.inst(a);
                if (inst.op != Op::Jr)
                    continue;
                ValueSet targets = vsa.regIn(a, inst.rs);
                if (targets.kind != ValueSet::Kind::Strided ||
                    targets.count > kMaxJumpTargets)
                    continue;
                for (std::uint32_t k = 0; k < targets.count; k++) {
                    Addr t = targets.base + k * targets.stride;
                    if ((t & 3) != 0 || t < region.begin ||
                        t >= region.end || vsa.cfg_.isData(t))
                        continue;
                    std::vector<Addr> &known = vsa.resolvedJumps_[a];
                    if (std::find(known.begin(), known.end(), t) ==
                        known.end()) {
                        known.push_back(t);
                        grew = true;
                    }
                }
            }
        }
        if (!grew)
            break;
    }
    return vsa;
}

ValueSet
Vsa::regIn(Addr a, unsigned reg) const
{
    int bi = cfg_.blockIndexAt(a);
    if (bi < 0)
        return ValueSet::top();
    RegState state = inStates_[bi];
    for (Addr p = cfg_.blocks()[bi].begin; p < a; p += 4)
        step(p, cfg_.inst(p), state);
    return state[reg];
}

ValueSet
Vsa::effectiveAddress(Addr a) const
{
    const DecodedInst &inst = cfg_.inst(a);
    return addConst(regIn(a, inst.rs), inst.simm);
}

} // namespace uexc::analysis
