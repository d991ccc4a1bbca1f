#include "analysis/cfg.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace uexc::analysis {

using sim::DecodedInst;
using sim::Op;

namespace {

/** Static successor addresses of the control instruction at @p pc.
 *  Indirect jumps (jr/jalr) have no static target; calls include the
 *  return continuation. The delay slot is already accounted for: all
 *  sequential successors are pc + 8. */
std::vector<Addr>
controlSuccessors(const DecodedInst &inst, Addr pc)
{
    Addr btarget = pc + 4 + (inst.simm << 2);
    Addr jtarget = ((pc + 4) & 0xf0000000u) | (inst.target << 2);
    std::uint16_t f = sim::opFlags(inst.op);

    if (f & sim::opf::Branch)
        return {btarget, pc + 8};
    switch (inst.op) {
      case Op::J:    return {jtarget};
      case Op::Jal:  return {jtarget, pc + 8};
      case Op::Jalr: return {pc + 8};
      case Op::Jr:   return {};
      default:       break;
    }
    return {};
}

} // namespace

Cfg
Cfg::build(const sim::Program &prog, const CodeRegion &region,
           const JumpTargets &jumps)
{
    Cfg cfg;
    cfg.region_ = region;
    if (region.end < region.begin || (region.begin & 3) ||
        (region.end & 3)) {
        UEXC_PANIC("malformed code region [0x%08x, 0x%08x)",
                   region.begin, region.end);
    }

    unsigned nwords = (region.end - region.begin) / 4;
    cfg.insts_.resize(nwords);
    cfg.reached_.assign(nwords, false);
    cfg.delaySlot_.assign(nwords, false);
    cfg.blockIndex_.assign(nwords, -1);

    auto wordAt = [&](Addr a) -> Word {
        Addr off = a - prog.origin;
        if (a < prog.origin || off / 4 >= prog.words.size())
            return 0;
        return prog.words[off / 4];
    };
    for (unsigned i = 0; i < nwords; i++)
        cfg.insts_[i] = sim::decode(wordAt(region.begin + 4 * i));

    auto successors = [&](const DecodedInst &inst, Addr pc) {
        std::vector<Addr> out = controlSuccessors(inst, pc);
        auto it = inst.op == Op::Jr ? jumps.find(pc) : jumps.end();
        if (it != jumps.end())
            out = it->second;
        return out;
    };

    // Mine jump tables: data words holding in-region code addresses
    // are additional entry points.
    for (const AddrRange &dr : region.dataRanges) {
        for (Addr a = dr.begin; a < dr.end; a += 4) {
            Word w = wordAt(a);
            if (w >= region.begin && w < region.end && !(w & 3) &&
                !cfg.isData(w)) {
                cfg.mined_.push_back(w);
            }
        }
    }

    // Trace reachable instructions, collecting block leaders.
    std::set<Addr> leaders;
    std::vector<Addr> worklist;
    auto addEntry = [&](Addr a) {
        if (a >= region.begin && a < region.end && !(a & 3) &&
            !cfg.isData(a)) {
            leaders.insert(a);
            worklist.push_back(a);
        }
    };
    for (Addr a : region.entries)
        addEntry(a);
    for (Addr a : cfg.mined_)
        addEntry(a);

    while (!worklist.empty()) {
        Addr pc = worklist.back();
        worklist.pop_back();
        while (pc < region.end && !cfg.isData(pc)) {
            unsigned idx = cfg.indexOf(pc);
            if (cfg.reached_[idx])
                break;
            cfg.reached_[idx] = true;
            const DecodedInst &inst = cfg.insts_[idx];
            std::uint16_t f = sim::opFlags(inst.op);
            if (f & sim::opf::Control) {
                Addr delay = pc + 4;
                if (delay < region.end && !cfg.isData(delay)) {
                    cfg.reached_[cfg.indexOf(delay)] = true;
                    cfg.delaySlot_[cfg.indexOf(delay)] = true;
                }
                for (Addr t : successors(inst, pc))
                    addEntry(t);
                break;
            }
            if ((f & sim::opf::Return) || inst.op == Op::Break)
                break; // terminator
            pc += 4;
        }
    }

    // Partition the reachable instructions into basic blocks.
    for (Addr leader : leaders) {
        unsigned lidx = cfg.indexOf(leader);
        if (!cfg.reached_[lidx] || cfg.delaySlot_[lidx])
            continue;
        BasicBlock b;
        b.begin = leader;
        Addr pc = leader;
        std::vector<Addr> succAddrs;
        while (true) {
            const DecodedInst &inst = cfg.insts_[cfg.indexOf(pc)];
            std::uint16_t f = sim::opFlags(inst.op);
            if (f & sim::opf::Control) {
                Addr delay = pc + 4;
                bool has_delay =
                    delay < region.end && !cfg.isData(delay);
                b.end = has_delay ? pc + 8 : pc + 4;
                b.fallsOff = !has_delay;
                succAddrs = successors(inst, pc);
                break;
            }
            if ((f & sim::opf::Return) || inst.op == Op::Break) {
                b.end = pc + 4;
                break;
            }
            Addr next = pc + 4;
            if (next >= region.end || cfg.isData(next) ||
                !cfg.reached_[cfg.indexOf(next)]) {
                // Sequential flow into non-code: the block runs off.
                b.end = next;
                b.fallsOff = true;
                break;
            }
            if (leaders.count(next)) {
                b.end = next;
                succAddrs = {next};
                break;
            }
            pc = next;
        }
        for (Addr a = b.begin; a < b.end; a += 4)
            cfg.blockIndex_[cfg.indexOf(a)] =
                static_cast<int>(cfg.blocks_.size());
        // Temporarily stash successor addresses in succs; resolved to
        // block indices below once every block exists.
        cfg.blocks_.push_back(std::move(b));
        std::vector<std::vector<Addr>> &pending = cfg.pendingSuccs_;
        pending.push_back(std::move(succAddrs));
    }

    for (unsigned i = 0; i < cfg.blocks_.size(); i++) {
        for (Addr t : cfg.pendingSuccs_[i]) {
            int bi = cfg.blockIndexAt(t);
            if (bi >= 0 && cfg.blocks_[bi].begin == t)
                cfg.blocks_[i].succs.push_back(
                    static_cast<unsigned>(bi));
        }
    }
    cfg.pendingSuccs_.clear();
    return cfg;
}

bool
Cfg::reached(Addr a) const
{
    return inRegion(a) && reached_[indexOf(a)];
}

bool
Cfg::isData(Addr a) const
{
    return std::any_of(region_.dataRanges.begin(),
                       region_.dataRanges.end(),
                       [&](const AddrRange &r) { return r.contains(a); });
}

bool
Cfg::isDelaySlot(Addr a) const
{
    return inRegion(a) && delaySlot_[indexOf(a)];
}

const sim::DecodedInst &
Cfg::inst(Addr a) const
{
    if (!inRegion(a))
        UEXC_PANIC("address 0x%08x outside analyzed region", a);
    return insts_[indexOf(a)];
}

int
Cfg::blockIndexAt(Addr a) const
{
    if (!inRegion(a))
        return -1;
    return blockIndex_[indexOf(a)];
}

std::vector<Addr>
Cfg::nextExecuted(Addr a) const
{
    if (!reached(a))
        return {};
    if (isDelaySlot(a) && a >= region_.begin + 4) {
        Addr branch = a - 4;
        std::vector<Addr> out;
        for (Addr t : controlSuccessors(inst(branch), branch)) {
            if (reached(t))
                out.push_back(t);
        }
        return out;
    }
    Addr next = a + 4;
    if (reached(next))
        return {next};
    return {};
}

} // namespace uexc::analysis
