#include "analysis/wcet.h"

#include <algorithm>
#include <deque>

namespace uexc::analysis {

namespace {

using sim::DecodedInst;
using sim::Op;

/** Worst-case cycles of one retired instruction: every control
 *  transfer taken, every store stalled, every access a miss when the
 *  cache model is on. */
Cycles
worstInstCycles(const DecodedInst &inst, const WcetConfig &config)
{
    const sim::CostModel &cost = config.cost;
    Cycles c = cost.baseCost + sim::opExecuteExtraCycles(inst.op, cost) +
               sim::opMemoryExtraCycles(inst.op, cost) +
               sim::opTakenControlExtraCycles(inst.op, cost);
    if (inst.isStore())
        c += cost.writeBufferStall;
    if (config.cachesEnabled) {
        c += cost.icacheMissPenalty;
        if (inst.isMemory())
            c += cost.dcacheMissPenalty;
    }
    return c;
}

/** The control-transfer instruction a block ends with, or nullptr. */
const DecodedInst *
blockBranch(const Cfg &cfg, const BasicBlock &b, Addr *branch_pc)
{
    // A block ending in a control transfer always includes its delay
    // slot, so the branch word is the second-to-last instruction.
    if (b.numInsts() >= 2 && cfg.inst(b.end - 8).isControl()) {
        *branch_pc = b.end - 8;
        return &cfg.inst(b.end - 8);
    }
    return nullptr;
}

/** Natural-loop body of back edge @p u -> @p v: v plus everything
 *  that reaches u without passing through v (conservatively over all
 *  predecessor edges; an overapproximate body only inflates the
 *  bound). */
std::vector<unsigned>
loopBody(const std::vector<std::vector<unsigned>> &preds, unsigned u,
         unsigned v)
{
    std::vector<bool> in(preds.size(), false);
    in[v] = true;
    std::deque<unsigned> work;
    if (!in[u]) {
        in[u] = true;
        work.push_back(u);
    }
    while (!work.empty()) {
        unsigned b = work.front();
        work.pop_front();
        for (unsigned p : preds[b]) {
            if (!in[p]) {
                in[p] = true;
                work.push_back(p);
            }
        }
    }
    std::vector<unsigned> body;
    for (unsigned i = 0; i < in.size(); i++)
        if (in[i])
            body.push_back(i);
    return body;
}

/** The abstract register file on exit from block @p bi. */
RegState
blockOutState(const Vsa &vsa, unsigned bi)
{
    const BasicBlock &b = vsa.cfg().blocks()[bi];
    RegState state = vsa.blockInState(bi);
    for (Addr a = b.begin; a < b.end; a += 4)
        vsa.step(a, vsa.cfg().inst(a), state);
    return state;
}

/**
 * Infer the iteration count of the back edge @p u -> @p v: the
 * closing branch must be `bne reg, zero, head` or `bgtz reg, head`,
 * the body must decrement reg by a constant exactly once, and reg's
 * loop-entry value must be a positive VSA constant.
 */
LoopBound
inferLoop(const Vsa &vsa, const std::vector<std::vector<unsigned>> &preds,
          unsigned u, unsigned v,
          const std::vector<unsigned> &body)
{
    const Cfg &cfg = vsa.cfg();
    const std::vector<BasicBlock> &blocks = cfg.blocks();
    LoopBound loop;
    loop.head = blocks[v].begin;

    Addr branch_pc = 0;
    const DecodedInst *br = blockBranch(cfg, blocks[u], &branch_pc);
    if (!br)
        return loop;
    loop.backEdge = branch_pc;
    bool exit_on_zero = br->op == Op::Bne && br->rt == 0;
    bool exit_on_nonpos = br->op == Op::Bgtz;
    if ((!exit_on_zero && !exit_on_nonpos) || br->rs == 0)
        return loop;
    if (branch_pc + 4 + (br->simm << 2) != blocks[v].begin)
        return loop;
    unsigned reg = br->rs;

    // Exactly one write to the counter inside the loop, and it must
    // be a constant decrement.
    Word dec = 0;
    unsigned writes = 0;
    for (unsigned bi : body) {
        for (Addr a = blocks[bi].begin; a < blocks[bi].end; a += 4) {
            const DecodedInst &inst = cfg.inst(a);
            if (!(sim::regWriteSet(inst) & (Word{1} << reg)))
                continue;
            writes++;
            if (inst.op == Op::Addiu && inst.rt == reg &&
                inst.rs == reg && SWord(inst.simm) < 0)
                dec = Word(0) - inst.simm;
            else
                return loop;
        }
    }
    if (writes != 1 || dec == 0)
        return loop;

    // Counter value on loop entry: join over the non-loop
    // predecessors of the head.
    ValueSet init = ValueSet::bottom();
    for (unsigned p : preds[v]) {
        if (std::find(body.begin(), body.end(), p) != body.end())
            continue;
        init = join(init, blockOutState(vsa, p)[reg]);
    }
    if (!init.isConst())
        return loop;
    Word c = init.constValue();
    if (c == 0 || SWord(c) < 0)
        return loop;
    if (exit_on_zero && c % dec != 0)
        return loop; // decrement skips zero: the counter wraps
    loop.bounded = true;
    loop.iterations = std::uint32_t((c + dec - 1) / dec);
    return loop;
}

} // namespace

WcetResult
computeWcet(const Vsa &vsa, const WcetConfig &config)
{
    const Cfg &cfg = vsa.cfg();
    const std::vector<BasicBlock> &blocks = cfg.blocks();
    const unsigned n = unsigned(blocks.size());
    WcetResult result;
    if (n == 0) {
        result.bounded = true;
        return result;
    }

    std::vector<std::vector<unsigned>> preds(n);
    for (unsigned i = 0; i < n; i++)
        for (unsigned s : blocks[i].succs)
            preds[s].push_back(i);

    // Iterative DFS from every block (the CFG only materializes
    // reachable blocks); edges closing onto the DFS stack are back
    // edges, and removing them leaves a DAG.
    enum : std::uint8_t { White, Grey, Black };
    std::vector<std::uint8_t> color(n, White);
    std::vector<std::pair<unsigned, unsigned>> backEdges;
    for (unsigned root = 0; root < n; root++) {
        if (color[root] != White)
            continue;
        std::vector<std::pair<unsigned, unsigned>> stack{{root, 0}};
        color[root] = Grey;
        while (!stack.empty()) {
            auto &[b, next] = stack.back();
            if (next < blocks[b].succs.size()) {
                unsigned s = blocks[b].succs[next++];
                if (color[s] == White) {
                    color[s] = Grey;
                    stack.push_back({s, 0});
                } else if (color[s] == Grey) {
                    backEdges.push_back({b, s});
                }
            } else {
                color[b] = Black;
                stack.pop_back();
            }
        }
    }

    // Per-block worst-case costs, then fold loops inner-first so a
    // nested loop's charge multiplies into its enclosing body.
    std::vector<Cycles> cycles(n, 0);
    std::vector<InstCount> insts(n, 0);
    for (unsigned i = 0; i < n; i++) {
        for (Addr a = blocks[i].begin; a < blocks[i].end; a += 4)
            cycles[i] += worstInstCycles(cfg.inst(a), config);
        insts[i] = blocks[i].numInsts();
    }

    struct LoopInfo
    {
        LoopBound bound;
        std::vector<unsigned> body;
        unsigned head = 0;
    };
    std::vector<LoopInfo> loops;
    bool all_bounded = true;
    for (auto [u, v] : backEdges) {
        LoopInfo li;
        li.body = loopBody(preds, u, v);
        li.bound = inferLoop(vsa, preds, u, v, li.body);
        li.head = v;
        all_bounded &= li.bound.bounded;
        loops.push_back(std::move(li));
    }
    std::sort(loops.begin(), loops.end(),
              [](const LoopInfo &a, const LoopInfo &b) {
                  return a.body.size() < b.body.size();
              });
    for (LoopInfo &li : loops)
        result.loops.push_back(li.bound);
    if (!all_bounded)
        return result;

    for (const LoopInfo &li : loops) {
        Cycles body_cycles = 0;
        InstCount body_insts = 0;
        for (unsigned b : li.body) {
            body_cycles += cycles[b];
            body_insts += insts[b];
        }
        cycles[li.head] += (li.bound.iterations - 1) * body_cycles;
        insts[li.head] += (li.bound.iterations - 1) * body_insts;
    }

    // Longest path over the DAG in topological order.
    std::vector<unsigned> indeg(n, 0);
    auto isBack = [&](unsigned a, unsigned b) {
        return std::find(backEdges.begin(), backEdges.end(),
                         std::make_pair(a, b)) != backEdges.end();
    };
    for (unsigned i = 0; i < n; i++)
        for (unsigned s : blocks[i].succs)
            if (!isBack(i, s))
                indeg[s]++;
    std::deque<unsigned> topo;
    for (unsigned i = 0; i < n; i++)
        if (indeg[i] == 0)
            topo.push_back(i);
    std::vector<Cycles> longest(n, 0);
    std::vector<InstCount> longestI(n, 0);
    while (!topo.empty()) {
        unsigned b = topo.front();
        topo.pop_front();
        Cycles total = longest[b] + cycles[b];
        InstCount totalI = longestI[b] + insts[b];
        result.worstCycles = std::max(result.worstCycles, total);
        result.worstInsts = std::max(result.worstInsts, totalI);
        for (unsigned s : blocks[b].succs) {
            if (isBack(b, s))
                continue;
            longest[s] = std::max(longest[s], total);
            longestI[s] = std::max(longestI[s], totalI);
            if (--indeg[s] == 0)
                topo.push_back(s);
        }
    }
    result.bounded = true;
    return result;
}

} // namespace uexc::analysis
