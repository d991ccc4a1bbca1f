#include "sim/cpu.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"
#include "sim/faultinject.h"
#include "sim/storebuf.h"

namespace uexc::sim {

Cpu::Cpu(PhysMemory &mem, const CpuConfig &config)
    : mem_(mem), config_(config)
{
}

// translation ----------------------------------------------------------------

namespace {

TranslateResult
faultResult(AccessType type, ExcCode load_code, ExcCode store_code,
            bool refill)
{
    TranslateResult r;
    r.ok = false;
    r.exc = (type == AccessType::Store) ? store_code : load_code;
    r.refill = refill;
    return r;
}

} // namespace

Word
Cpu::translationKey(Addr vaddr) const
{
    // Virtual page | ASID | mode: everything a translation outcome
    // depends on besides the TLB contents (covered by generation).
    return (vaddr & 0xfffff000u) |
           (h_->cp0_.asid() << 1) |
           (h_->cp0_.userMode() ? 1u : 0u);
}

bool
Cpu::microDtlbLookup(Addr vaddr, AccessType type, TranslateResult &out)
{
    if (h_->tlbGenSeen_ != h_->tlb_.generation()) {
        h_->flushMicroTlb();
        return false;
    }
    const Hart::MicroTlbEntry &e = h_->dtlb_[(vaddr >> 12) & (Hart::kMicroTlbSize - 1)];
    if (e.key != translationKey(vaddr))
        return false;
    if (type == AccessType::Store && !e.writable)
        return false;   // may be a clean page: let the full path decide
    if (e.mapped)
        h_->tlb_.recordMicroHit();
    out.ok = true;
    out.paddr = e.pbase | (vaddr & 0xfffu);
    out.cacheable = e.cacheable;
    return true;
}

void
Cpu::microDtlbFill(Addr vaddr, AccessType type, const TranslateResult &tr)
{
    Hart::MicroTlbEntry &e = h_->dtlb_[(vaddr >> 12) & (Hart::kMicroTlbSize - 1)];
    e.key = translationKey(vaddr);
    e.pbase = tr.paddr & ~0xfffu;
    e.mapped = vaddr < Kseg0Base || vaddr >= Kseg2Base;
    e.cacheable = tr.cacheable;
    // A store-filled entry proved the page writable; a load-filled one
    // leaves stores to the full path (which raises Mod on clean pages).
    e.writable = type == AccessType::Store;
}

/** The one TLB walk behind translate() and translateQuiet(). A quiet
 *  walk probes with Tlb::probeQuiet, leaving the TLB statistics alone,
 *  so host-side services can translate without the guest seeing it. */
inline TranslateResult
Cpu::walk(Addr vaddr, AccessType type, bool quiet) const
{
    bool kuseg = vaddr < Kseg0Base;
    if (!kuseg) {
        if (h_->cp0_.userMode())
            return faultResult(type, ExcCode::AdEL, ExcCode::AdES, false);
        TranslateResult r;
        if (vaddr < Kseg1Base) {
            r.ok = true;
            r.paddr = vaddr - Kseg0Base;
            return r;
        }
        if (vaddr < Kseg2Base) {
            r.ok = true;
            r.paddr = vaddr - Kseg1Base;
            r.cacheable = false;
            return r;
        }
    }

    // kuseg and kseg2 are mapped; only kuseg misses use the dedicated
    // UTLB refill vector, kseg2 misses use the general one
    unsigned asid = h_->cp0_.asid();
    auto hit = quiet ? h_->tlb_.probeQuiet(vaddr, asid)
                     : h_->tlb_.probe(vaddr, asid);
    if (!hit)
        return faultResult(type, ExcCode::TlbL, ExcCode::TlbS, kuseg);
    const TlbEntry &e = h_->tlb_.entry(*hit);
    if (!e.valid())
        return faultResult(type, ExcCode::TlbL, ExcCode::TlbS, false);
    if (type == AccessType::Store && !e.dirty())
        return faultResult(type, ExcCode::Mod, ExcCode::Mod, false);
    TranslateResult r;
    r.ok = true;
    r.paddr = e.pfn() | (vaddr & 0xfffu);
    r.cacheable = e.cacheable();
    return r;
}

TranslateResult
Cpu::translate(Addr vaddr, AccessType type)
{
    if (config_.fastInterpreter && type != AccessType::Fetch) {
        TranslateResult r;
        if (microDtlbLookup(vaddr, type, r))
            return r;
        r = walk(vaddr, type, false);
        if (r.ok)
            microDtlbFill(vaddr, type, r);
        return r;
    }
    return walk(vaddr, type, false);
}

TranslateResult
Cpu::translateQuiet(Addr vaddr, AccessType type) const
{
    return walk(vaddr, type, true);
}

// guest data access ----------------------------------------------------------
//
// Every guest-visible load, store, and fetch funnels through these so
// the barrier scheduler's speculative rounds see their own buffered
// stores and record touched pages. With no buffer attached (serial
// and all single-hart execution) they compile down to the direct
// PhysMemory access.

inline Word
Cpu::loadWord(Addr paddr)
{
    if (sb_) {
        sb_->noteLoad(paddr);
        return sb_->readWord(mem_, paddr);
    }
    return mem_.readWord(paddr);
}

inline Half
Cpu::loadHalf(Addr paddr)
{
    if (sb_) {
        sb_->noteLoad(paddr);
        return sb_->readHalf(mem_, paddr);
    }
    return mem_.readHalf(paddr);
}

inline Byte
Cpu::loadByte(Addr paddr)
{
    if (sb_) {
        sb_->noteLoad(paddr);
        return sb_->readByte(mem_, paddr);
    }
    return mem_.readByte(paddr);
}

inline void
Cpu::storeWord(Addr paddr, Word value)
{
    if (sb_) {
        sb_->noteStore(paddr);
        if (sb_->aborted())
            h_->halted_ = true;  // state is discarded on rollback
        sb_->writeWord(paddr, value);
        return;
    }
    mem_.writeWord(paddr, value);
}

inline void
Cpu::storeHalf(Addr paddr, Half value)
{
    if (sb_) {
        sb_->noteStore(paddr);
        if (sb_->aborted())
            h_->halted_ = true;
        sb_->writeHalf(paddr, value);
        return;
    }
    mem_.writeHalf(paddr, value);
}

inline void
Cpu::storeByte(Addr paddr, Byte value)
{
    if (sb_) {
        sb_->noteStore(paddr);
        if (sb_->aborted())
            h_->halted_ = true;
        sb_->writeByte(paddr, value);
        return;
    }
    mem_.writeByte(paddr, value);
}

inline void
Cpu::noteFetchPage(Addr paddr)
{
    if (sb_) {
        sb_->noteFetch(paddr);
        if (sb_->aborted())
            h_->halted_ = true;
    }
}

// exceptions ----------------------------------------------------------------

bool
Cpu::tryUserVector(ExcCode code, Addr epc, Addr bad_vaddr,
                   bool branch_delay)
{
    if (!config_.userVectorHw)
        return false;
    Word st = h_->cp0_.statusReg();
    if (!(st & status::UV) || !(st & status::KUc))
        return false;
    if (st & status::UX)
        return false;  // recursive: demote to the kernel
    switch (code) {
      case ExcCode::Mod:
      case ExcCode::TlbL:
      case ExcCode::TlbS:
      case ExcCode::AdEL:
      case ExcCode::AdES:
      case ExcCode::Bp:
      case ExcCode::Ov:
        break;
      default:
        return false;  // syscalls, interrupts, RI etc. go to the kernel
    }
    Addr target = h_->cp0_.uxReg(UxReg::Target);
    if (config_.userVectorTable) {
        // the per-process vector table: one memory access during
        // vectoring; an unmapped table entry demotes to the kernel
        Addr slot = target + 4 * static_cast<Word>(code);
        TranslateResult tr = translateQuiet(slot, AccessType::Load);
        if (!tr.ok)
            return false;
        if (static_cast<std::uint64_t>(tr.paddr) + 4 > mem_.size())
            return false;  // table maps past memory: demote to kernel
        target = loadWord(tr.paddr);
        charge(config_.cost.loadExtra + 1);
        if (config_.cachesEnabled && h_->dcache_ && tr.cacheable &&
            !h_->dcache_->access(tr.paddr)) {
            charge(config_.cost.dcacheMissPenalty);
        }
    }
    h_->cp0_.setUxReg(UxReg::Epc, epc);
    h_->cp0_.setUxReg(UxReg::Cond,
                  (static_cast<Word>(code) << 2) |
                  (branch_delay ? 1u : 0u));
    h_->cp0_.setUxReg(UxReg::BadAddr, bad_vaddr);
    h_->cp0_.setStatusReg(st | status::UX);
    if (observer_)
        observer_->onException(code, epc, target);
    h_->pc_ = target;
    h_->npc_ = target + 4;
    h_->prevWasControl_ = false;
    return true;
}

void
Cpu::takeException(ExcCode code, Addr bad_vaddr, bool has_bad_vaddr,
                   bool refill)
{
    h_->excRaised_ = true;
    h_->stats_.exceptionsTaken++;
    h_->stats_.perExcCode[static_cast<unsigned>(code)]++;
    if (refill)
        h_->stats_.tlbRefillFaults++;

    bool bd = h_->prevWasControl_;
    Addr epc = bd ? h_->pc_ - 4 : h_->pc_;

    if (has_bad_vaddr)
        h_->cp0_.setFaultAddress(bad_vaddr);

    // TLB refill misses always enter the kernel: there is nothing a
    // user handler could do without the page tables.
    if (!refill && tryUserVector(code, epc, bad_vaddr, bd)) {
        h_->stats_.userVectoredExceptions++;
        return;
    }

    h_->cp0_.enterException(epc, code, bd);
    Addr vector = refill ? RefillVector : GeneralVector;
    if (observer_)
        observer_->onException(code, epc, vector);
    h_->pc_ = vector;
    h_->npc_ = vector + 4;
    h_->prevWasControl_ = false;
}

Addr
Cpu::injectException(ExcCode code, Addr fault_pc, Addr bad_vaddr,
                     bool refill)
{
    h_->pc_ = fault_pc;
    h_->npc_ = fault_pc + 4;
    h_->prevWasControl_ = false;
    takeException(code, bad_vaddr, true, refill);
    h_->excRaised_ = false;
    return h_->pc_;
}

Cycles
Cpu::chargeDataAccess(Addr paddr, bool cacheable)
{
    Cycles before = h_->stats_.cycles;
    if (config_.cachesEnabled) {
        if (cacheable && h_->dcache_) {
            if (!h_->dcache_->access(paddr))
                charge(config_.cost.dcacheMissPenalty);
        } else if (!cacheable) {
            charge(config_.cost.dcacheMissPenalty);
        }
    }
    return h_->stats_.cycles - before;
}

// execution ------------------------------------------------------------------

bool
Cpu::memAddress(const DecodedInst &inst, unsigned size, AccessType type,
                Addr &paddr_out)
{
    Addr ea = h_->regs_[inst.rs] + inst.simm;
    if (!isAligned(ea, size)) {
        takeException(type == AccessType::Store ? ExcCode::AdES
                                                : ExcCode::AdEL,
                      ea, true, false);
        return false;
    }
    TranslateResult tr = translate(ea, type);
    if (!tr.ok) {
        takeException(tr.exc, ea, true, tr.refill);
        return false;
    }
    if (static_cast<std::uint64_t>(tr.paddr) + size > mem_.size()) {
        // Beyond physical memory (kseg0/1 direct map past the end, or
        // a corrupt TLB frame number): data bus error, as on a real
        // R3000 when no device answers. BadVAddr is not written.
        takeException(ExcCode::Dbe, 0, false, false);
        return false;
    }
    charge(opMemoryExtraCycles(inst.op, config_.cost));
    if (config_.cachesEnabled) {
        if (tr.cacheable && h_->dcache_) {
            if (!h_->dcache_->access(tr.paddr))
                charge(config_.cost.dcacheMissPenalty);
        } else if (!tr.cacheable) {
            charge(config_.cost.dcacheMissPenalty);
        }
    }
    if (type == AccessType::Store) {
        h_->stats_.stores++;
        h_->consecutiveStores_++;
        if (h_->consecutiveStores_ >= 2)
            charge(config_.cost.writeBufferStall);
    } else {
        h_->stats_.loads++;
        h_->consecutiveStores_ = 0;
    }
    paddr_out = tr.paddr;
    return true;
}

/**
 * The decoded instruction at @p pc in the cached fetch page @p page,
 * filled at page version @p version, decoding its slot first if the
 * slot was last decoded at another version. Every store bumps the
 * page version before the fetch cache can see it, so a slot decoded
 * here reads exactly the bytes a decode of the whole page at that
 * version would have read.
 */
[[gnu::always_inline]] inline const DecodedInst &
Cpu::fetchSlot(Hart::DecodedPage &page, std::uint32_t version, Addr pc)
{
    unsigned i = (pc & 0xfffu) >> 2;
    if (page.slotVersions[i] != version) [[unlikely]] {
        page.insts[i] = decode(mem_.readWord(h_->fetchPaBase_ + 4 * i));
        page.slotVersions[i] = version;
        h_->fastDecodes_++;
    }
    return page.insts[i];
}

/**
 * Install the fetch cache for the page a slow fetch just translated
 * to @p tr, recording the page's current write version, and return
 * the PC's slot. Returns null when the page does not lie entirely
 * inside physical memory (the reference path's word-at-a-time bounds
 * behaviour must be preserved for partial tail pages).
 */
const DecodedInst *
Cpu::refillFetchFast(const TranslateResult &tr)
{
    Addr base = tr.paddr & ~(PhysMemory::PageBytes - 1);
    if (base + PhysMemory::PageBytes > mem_.size())
        return nullptr;
    Word ppn = tr.paddr >> PhysMemory::PageShift;
    auto &slot = h_->decodedPages_[ppn];
    const std::uint32_t *ver = mem_.pageVersionPtr(tr.paddr);
    if (!slot) {
        slot = std::make_unique<Hart::DecodedPage>();
        slot->slotVersions.fill(*ver - 1);
    }
    h_->tlbGenSeen_ = h_->tlb_.generation();
    h_->fetchKey_ = translationKey(h_->pc_);
    h_->fetchPage_ = slot.get();
    h_->fetchPaBase_ = base;
    h_->fetchVbase_ = h_->pc_ & 0xfffff000u;
    h_->fetchMemVer_ = ver;
    h_->fetchVersion_ = *ver;
    h_->fetchMapped_ = h_->pc_ < Kseg0Base || h_->pc_ >= Kseg2Base;
    h_->fetchCacheable_ = tr.cacheable;
    return &fetchSlot(*slot, h_->fetchVersion_, h_->pc_);
}

/**
 * The one implementation of every op that cannot raise an exception,
 * touch memory or reach CP0, the TLB or the host: shifts, ALU ops,
 * multiply/divide, hi/lo moves, the immediate forms except addi, and
 * every branch and jump. The instruction's address comes in @p pc, and
 * a taken branch or jump stages its target in @p staged (npc + 4 on
 * entry), so the fast interpreter's block loop can keep both in host
 * registers while step() passes the member latches. Returns false,
 * having done nothing, for every other op: those go to execute().
 */
[[gnu::always_inline]] inline bool
Cpu::executeInline(const DecodedInst &inst, Addr pc, Addr &staged)
{
    const Word rs = h_->regs_[inst.rs];
    const Word rt = h_->regs_[inst.rt];
    const CostModel &cost = config_.cost;
    // Every branch and jump counts; a taken one stages its target and
    // pays the taken-transfer cycles.
    auto transfer = [&](bool taken, Addr target) {
        h_->stats_.branches++;
        if (taken) {
            staged = target;
            charge(opTakenControlExtraCycles(inst.op, cost));
        }
        return true;
    };
    auto branch = [&](bool taken) {
        return transfer(taken, pc + 4 + (inst.simm << 2));
    };

    switch (inst.op) {
      // -- shifts ------------------------------------------------------
      case Op::Sll:  setReg(inst.rd, rt << inst.shamt); return true;
      case Op::Srl:  setReg(inst.rd, rt >> inst.shamt); return true;
      case Op::Sra:
        setReg(inst.rd,
               static_cast<Word>(static_cast<SWord>(rt) >> inst.shamt));
        return true;
      case Op::Sllv: setReg(inst.rd, rt << (rs & 31)); return true;
      case Op::Srlv: setReg(inst.rd, rt >> (rs & 31)); return true;
      case Op::Srav:
        setReg(inst.rd,
               static_cast<Word>(static_cast<SWord>(rt) >> (rs & 31)));
        return true;

      // -- arithmetic ---------------------------------------------------
      case Op::Addu: setReg(inst.rd, rs + rt); return true;
      case Op::Subu: setReg(inst.rd, rs - rt); return true;
      case Op::And:  setReg(inst.rd, rs & rt); return true;
      case Op::Or:   setReg(inst.rd, rs | rt); return true;
      case Op::Xor:  setReg(inst.rd, rs ^ rt); return true;
      case Op::Nor:  setReg(inst.rd, ~(rs | rt)); return true;
      case Op::Slt:
        setReg(inst.rd, static_cast<SWord>(rs) < static_cast<SWord>(rt));
        return true;
      case Op::Sltu: setReg(inst.rd, rs < rt); return true;

      case Op::Mult: {
        std::int64_t prod = static_cast<std::int64_t>(
            static_cast<SWord>(rs)) * static_cast<SWord>(rt);
        h_->lo_ = static_cast<Word>(prod);
        h_->hi_ = static_cast<Word>(prod >> 32);
        charge(opExecuteExtraCycles(inst.op, cost));
        return true;
      }
      case Op::Multu: {
        std::uint64_t prod = static_cast<std::uint64_t>(rs) * rt;
        h_->lo_ = static_cast<Word>(prod);
        h_->hi_ = static_cast<Word>(prod >> 32);
        charge(opExecuteExtraCycles(inst.op, cost));
        return true;
      }
      case Op::Div:
        if (rt == 0) {
            // architecturally UNPREDICTABLE; we define a stable result
            h_->lo_ = 0xffffffffu;
            h_->hi_ = rs;
        } else if (rs == 0x80000000u && rt == 0xffffffffu) {
            h_->lo_ = 0x80000000u;  // INT_MIN / -1 wraps
            h_->hi_ = 0;
        } else {
            h_->lo_ = static_cast<Word>(static_cast<SWord>(rs) /
                                    static_cast<SWord>(rt));
            h_->hi_ = static_cast<Word>(static_cast<SWord>(rs) %
                                    static_cast<SWord>(rt));
        }
        charge(opExecuteExtraCycles(inst.op, cost));
        return true;
      case Op::Divu:
        if (rt == 0) {
            h_->lo_ = 0xffffffffu;
            h_->hi_ = rs;
        } else {
            h_->lo_ = rs / rt;
            h_->hi_ = rs % rt;
        }
        charge(opExecuteExtraCycles(inst.op, cost));
        return true;
      case Op::Mfhi: setReg(inst.rd, h_->hi_); return true;
      case Op::Mthi: h_->hi_ = rs; return true;
      case Op::Mflo: setReg(inst.rd, h_->lo_); return true;
      case Op::Mtlo: h_->lo_ = rs; return true;

      // -- immediate arithmetic -------------------------------------------
      case Op::Addiu: setReg(inst.rt, rs + inst.simm); return true;
      case Op::Slti:
        setReg(inst.rt, static_cast<SWord>(rs) <
                        static_cast<SWord>(inst.simm));
        return true;
      case Op::Sltiu: setReg(inst.rt, rs < inst.simm); return true;
      case Op::Andi:  setReg(inst.rt, rs & inst.imm); return true;
      case Op::Ori:   setReg(inst.rt, rs | inst.imm); return true;
      case Op::Xori:  setReg(inst.rt, rs ^ inst.imm); return true;
      case Op::Lui:   setReg(inst.rt, inst.imm << 16); return true;

      // -- control: a link is written before the transfer is staged ------
      case Op::Jal:
        setReg(RA, pc + 8);
        [[fallthrough]];
      case Op::J:
        return transfer(true,
                        ((pc + 4) & 0xf0000000u) | (inst.target << 2));
      case Op::Jalr:
        setReg(inst.rd, pc + 8);
        [[fallthrough]];
      case Op::Jr:   return transfer(true, rs);
      case Op::Beq:  return branch(rs == rt);
      case Op::Bne:  return branch(rs != rt);
      case Op::Blez: return branch(static_cast<SWord>(rs) <= 0);
      case Op::Bgtz: return branch(static_cast<SWord>(rs) > 0);
      case Op::Bltzal:
        setReg(RA, pc + 8);
        [[fallthrough]];
      case Op::Bltz: return branch(static_cast<SWord>(rs) < 0);
      case Op::Bgezal:
        setReg(RA, pc + 8);
        [[fallthrough]];
      case Op::Bgez: return branch(static_cast<SWord>(rs) >= 0);

      // -- everything else: execute() ------------------------------------
      // Listed rather than defaulted, so that a new Op must be placed
      // here or above before -Wswitch stops warning.
      case Op::Invalid: case Op::Add: case Op::Sub: case Op::Addi:
      case Op::Lb: case Op::Lbu: case Op::Lh: case Op::Lhu: case Op::Lw:
      case Op::Sb: case Op::Sh: case Op::Sw:
      case Op::Syscall: case Op::Break:
      case Op::Mfc0: case Op::Mtc0: case Op::Tlbr: case Op::Tlbwi:
      case Op::Tlbwr: case Op::Tlbp: case Op::Rfe:
      case Op::Mfux: case Op::Mtux: case Op::Xret: case Op::Tlbmp:
      case Op::Hcall:
        return false;
    }
    return false;
}

/**
 * Retire @p inst, fetched at @p pc, once it ran on the member latches:
 * the tail of step() and of the block loop's execute() path. Returns
 * false when the instruction raised an exception or redirected the PC
 * (the latches then already hold where execution continues).
 */
inline bool
Cpu::retire(const DecodedInst &inst, Addr pc, Cycles cycles_before)
{
    if (h_->excRaised_)
        return false;
    if (!(inst.flags & DecodedInst::FlagMemory))
        h_->consecutiveStores_ = 0;
    if (observer_)
        observer_->onInst(pc, inst, h_->stats_.cycles - cycles_before);
    if (h_->redirect_) {
        h_->redirect_ = false;
        return false;
    }
    h_->prevWasControl_ = (inst.flags & DecodedInst::FlagControl) != 0;
    h_->pc_ = h_->npc_;
    h_->npc_ = h_->stagedNpc_;
    return true;
}

/** Execute one instruction (or take one exception). */
void
Cpu::step()
{
    h_->cp0_.tickRandom();
    h_->excRaised_ = false;
    h_->stagedNpc_ = h_->npc_ + 4;

    Cycles cycles_before = h_->stats_.cycles;

    // fetch
    if (!isAligned(h_->pc_, 4)) {
        takeException(ExcCode::AdEL, h_->pc_, true, false);
        return;
    }
    TranslateResult tr = translate(h_->pc_, AccessType::Fetch);
    if (!tr.ok) {
        takeException(tr.exc, h_->pc_, true, tr.refill);
        return;
    }
    if (static_cast<std::uint64_t>(tr.paddr) + 4 > mem_.size()) {
        // Fetch beyond physical memory: instruction bus error (no
        // BadVAddr), not a host crash.
        takeException(ExcCode::Ibe, 0, false, false);
        return;
    }
    noteFetchPage(tr.paddr);
    if (config_.cachesEnabled && tr.cacheable && h_->icache_) {
        if (!h_->icache_->access(tr.paddr))
            charge(config_.cost.icacheMissPenalty);
    }
    // the fast interpreter refills its fetch cache on the way
    const DecodedInst *cached =
        config_.fastInterpreter ? refillFetchFast(tr) : nullptr;
    const DecodedInst inst =
        cached ? *cached : decode(mem_.readWord(tr.paddr));

    h_->stats_.instructions++;
    charge(config_.cost.baseCost);
    Addr inst_pc = h_->pc_;
    if (!executeInline(inst, inst_pc, h_->stagedNpc_))
        execute(inst);
    retire(inst, inst_pc, cycles_before);
}

/**
 * One unit of the fast interpreter: while the fetch cache stays valid,
 * dispatch up to @p limit instructions straight off the decoded page
 * without going back through step()'s fetch. A fetch-cache miss (page
 * change, self-modifying store, TLB or mode change, unaligned PC) runs
 * one reference step() instead, which raises the right exception and
 * refills the caches. Each instruction is charged and counted as
 * step() does, in the same order, and executed by the same
 * executeInline() or execute(), so the two interpreters stay
 * bit-identical. The block never leaves the cached page, so run() sees
 * every page crossing; on a page holding a stop PC the block is one
 * instruction, so run() checks the stop set before each one there.
 */
void
Cpu::runBlock(InstCount limit)
{
    if (h_->tlbGenSeen_ != h_->tlb_.generation())
        h_->flushMicroTlb();
    if (translationKey(h_->pc_) != h_->fetchKey_ ||
        *h_->fetchMemVer_ != h_->fetchVersion_ || (h_->pc_ & 3) != 0) {
        step();
        return;
    }
    // One note per block entry covers the whole inline run: the
    // block loop exits before the PC can leave the cached page.
    noteFetchPage(h_->fetchPaBase_);
    if (h_->halted_)
        return;  // store-buffer abort
    if (h_->breakpointInPage(h_->fetchVbase_))
        limit = 1;
    InstCount done = 0;
    // PC sequencing lives in host registers inside the block loop:
    // the member round trip (store h_->pc_, reload it next iteration)
    // is the interpreter's longest serial dependence chain. The
    // members are synced on every loop exit and around execute(),
    // which reads and writes them.
    Addr pc = h_->pc_;
    Addr npc = h_->npc_;
    // Only a refill moves the fetch page or its version, and the block
    // ends before one can run.
    Hart::DecodedPage &page = *h_->fetchPage_;
    const std::uint32_t version = h_->fetchVersion_;
    while (true) {
        const DecodedInst &inst = fetchSlot(page, version, pc);
        h_->cp0_.tickRandom();
        Cycles cycles_before = h_->stats_.cycles;
        if (h_->fetchMapped_)
            h_->tlb_.recordMicroHit();
        if (config_.cachesEnabled && h_->fetchCacheable_ && h_->icache_ &&
            !h_->icache_->access(h_->fetchPaBase_ | (pc & 0xfffu)))
            charge(config_.cost.icacheMissPenalty);
        h_->stats_.instructions++;
        charge(config_.cost.baseCost);
        done++;
        Addr staged = npc + 4;
        if (executeInline(inst, pc, staged)) {
            // retire: never memory, an exception or a redirect, and
            // the fetch cache stays valid
            h_->consecutiveStores_ = 0;
            if (observer_)
                observer_->onInst(pc, inst,
                                  h_->stats_.cycles - cycles_before);
            h_->prevWasControl_ =
                (inst.flags & DecodedInst::FlagControl) != 0;
            pc = npc;
            npc = staged;
        } else {
            h_->pc_ = pc;
            h_->npc_ = npc;
            h_->stagedNpc_ = staged;
            h_->excRaised_ = false;
            execute(inst);
            if (!retire(inst, pc, cycles_before))
                return;  // the latches hold the vector or redirect
            pc = h_->pc_;
            npc = h_->npc_;
            if (h_->halted_)
                break;
            // the cached translation and decoded page can only go
            // stale behind our back via a store (page write version)
            // or a fence-class instruction (TLB/CP0 write, host call)
            if ((inst.flags & DecodedInst::FlagFence) ||
                ((inst.flags & DecodedInst::FlagStore) &&
                 *h_->fetchMemVer_ != version))
                break;
        }
        if (done >= limit)
            break;
        // one compare covers "still in the cached page" and "still
        // word-aligned" (h_->fetchVbase_ has zero low bits)
        if ((pc ^ h_->fetchVbase_) & 0xfffff003u)
            break;
    }
    h_->pc_ = pc;
    h_->npc_ = npc;
}

/**
 * The one run loop, for both interpreters. Each pass checks halt and
 * the stop-PC set (never before the first instruction, so a run
 * resumes from a stop), fires the fault injector's due events, and
 * runs one unit: a block with the fast interpreter, one step()
 * without. The unit is clipped to the budget and to the injector's
 * next event, so every event fires at exactly the instret it names; a
 * due but deferred event clips the unit to one instruction.
 */
RunResult
Cpu::run(InstCount max_insts)
{
    FaultInjector *const injector = config_.faultInjector;
    const bool fast = config_.fastInterpreter;
    const InstCount start = h_->stats_.instructions;
    RunResult result;
    for (bool first = true;; first = false) {
        InstCount now = h_->stats_.instructions;
        result.instsExecuted = now - start;
        if (result.instsExecuted >= max_insts || h_->halted_)
            break;
        if (!first && h_->hasBreakpoints() && h_->isBreakpoint(h_->pc_)) {
            result.reason = StopReason::Breakpoint;
            return result;
        }
        InstCount unit = max_insts - result.instsExecuted;
        if (injector) {
            injector->maybeFire(*this);
            InstCount due = injector->nextDue(h_->id_);
            unit = std::min(unit, due > now ? due - now : 1);
        }
        if (fast)
            runBlock(unit);
        else
            step();
    }
    result.reason = h_->halted_ ? StopReason::Halted : StopReason::InstLimit;
    return result;
}

/**
 * Execute every op executeInline() declines, on the member latches:
 * those that can trap, touch memory or reach CP0, the TLB or the host.
 */
void
Cpu::execute(const DecodedInst &inst)
{
    const Word rs = h_->regs_[inst.rs];
    const Word rt = h_->regs_[inst.rt];

    switch (inst.op) {
      case Op::Add: {
        Word sum = rs + rt;
        // signed overflow: operands same sign, result different
        if (~(rs ^ rt) & (rs ^ sum) & 0x80000000u) {
            takeException(ExcCode::Ov, 0, false, false);
            return;
        }
        setReg(inst.rd, sum);
        break;
      }
      case Op::Sub: {
        Word diff = rs - rt;
        if ((rs ^ rt) & (rs ^ diff) & 0x80000000u) {
            takeException(ExcCode::Ov, 0, false, false);
            return;
        }
        setReg(inst.rd, diff);
        break;
      }
      case Op::Addi: {
        Word sum = rs + inst.simm;
        if (~(rs ^ inst.simm) & (rs ^ sum) & 0x80000000u) {
            takeException(ExcCode::Ov, 0, false, false);
            return;
        }
        setReg(inst.rt, sum);
        break;
      }

      // -- memory --------------------------------------------------------------
      case Op::Lb: {
        Addr pa;
        if (!memAddress(inst, 1, AccessType::Load, pa))
            return;
        setReg(inst.rt, signExtend(loadByte(pa), 8));
        break;
      }
      case Op::Lbu: {
        Addr pa;
        if (!memAddress(inst, 1, AccessType::Load, pa))
            return;
        setReg(inst.rt, loadByte(pa));
        break;
      }
      case Op::Lh: {
        Addr pa;
        if (!memAddress(inst, 2, AccessType::Load, pa))
            return;
        setReg(inst.rt, signExtend(loadHalf(pa), 16));
        break;
      }
      case Op::Lhu: {
        Addr pa;
        if (!memAddress(inst, 2, AccessType::Load, pa))
            return;
        setReg(inst.rt, loadHalf(pa));
        break;
      }
      case Op::Lw: {
        Addr pa;
        if (!memAddress(inst, 4, AccessType::Load, pa))
            return;
        setReg(inst.rt, loadWord(pa));
        break;
      }
      case Op::Sb: {
        Addr pa;
        if (!memAddress(inst, 1, AccessType::Store, pa))
            return;
        storeByte(pa, static_cast<Byte>(rt));
        break;
      }
      case Op::Sh: {
        Addr pa;
        if (!memAddress(inst, 2, AccessType::Store, pa))
            return;
        storeHalf(pa, static_cast<Half>(rt));
        break;
      }
      case Op::Sw: {
        Addr pa;
        if (!memAddress(inst, 4, AccessType::Store, pa))
            return;
        storeWord(pa, rt);
        break;
      }

      // -- traps ------------------------------------------------------------------
      case Op::Syscall:
        takeException(ExcCode::Sys, 0, false, false);
        return;
      case Op::Break:
        takeException(ExcCode::Bp, 0, false, false);
        return;

      // -- CP0 / TLB -----------------------------------------------------------------
      case Op::Mfc0:
      case Op::Mtc0:
      case Op::Tlbr:
      case Op::Tlbwi:
      case Op::Tlbwr:
      case Op::Tlbp:
      case Op::Rfe:
        if (h_->cp0_.userMode()) {
            takeException(ExcCode::CpU, 0, false, false);
            return;
        }
        switch (inst.op) {
          case Op::Mfc0:
            setReg(inst.rt, h_->cp0_.read(inst.rd));
            break;
          case Op::Mtc0:
            h_->cp0_.write(inst.rd, rt);
            break;
          case Op::Tlbr: {
            unsigned idx = (h_->cp0_.index() >> 8) & 0x3f;
            const TlbEntry &e = h_->tlb_.entry(idx);
            h_->cp0_.write(cp0reg::EntryHi, e.hi);
            h_->cp0_.write(cp0reg::EntryLo, e.lo);
            break;
          }
          case Op::Tlbwi: {
            unsigned idx = (h_->cp0_.index() >> 8) & 0x3f;
            h_->tlb_.setEntry(idx, h_->cp0_.entryHi(), h_->cp0_.entryLo());
            break;
          }
          case Op::Tlbwr: {
            unsigned idx = h_->cp0_.randomIndex();
            h_->tlb_.setEntry(idx, h_->cp0_.entryHi(), h_->cp0_.entryLo());
            break;
          }
          case Op::Tlbp: {
            Word hi = h_->cp0_.entryHi();
            auto hit = h_->tlb_.probeQuiet(
                hi & entryhi::VpnMask,
                (hi & entryhi::AsidMask) >> entryhi::AsidShift);
            h_->cp0_.setIndexRaw(hit ? (*hit << 8) : 0x80000000u);
            break;
          }
          case Op::Rfe:
            h_->cp0_.returnFromException();
            break;
          default:
            break;
        }
        break;

      // -- extensions: user exception architecture ------------------------------------
      case Op::Mfux:
      case Op::Mtux:
      case Op::Xret:
        if (!config_.userVectorHw) {
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        if (inst.op == Op::Xret) {
            if (!(h_->cp0_.statusReg() & status::UX)) {
                takeException(ExcCode::Ri, 0, false, false);
                return;
            }
            h_->cp0_.setStatusReg(h_->cp0_.statusReg() & ~status::UX);
            // Tera-style return: control moves to the (possibly
            // updated) saved exception PC, with no delay slot.
            h_->pc_ = h_->cp0_.uxReg(UxReg::Epc);
            h_->npc_ = h_->pc_ + 4;
            h_->prevWasControl_ = false;
            h_->redirect_ = true;
            return;
        }
        if (inst.rd >= NumUxRegs) {
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        if (inst.op == Op::Mfux) {
            setReg(inst.rt, h_->cp0_.uxReg(static_cast<UxReg>(inst.rd)));
        } else {
            h_->cp0_.setUxReg(static_cast<UxReg>(inst.rd), rt);
        }
        break;

      // -- extensions: user TLB protection modification ----------------------------------
      case Op::Tlbmp: {
        if (!config_.tlbmpHw) {
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        auto hit = h_->tlb_.probeQuiet(rs, h_->cp0_.asid());
        if (!hit) {
            // No resident translation: the kernel must do it via the
            // page tables, so fall back to the emulation path.
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        const TlbEntry &e = h_->tlb_.entry(*hit);
        if (h_->cp0_.userMode() && !e.userModifiable()) {
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        Word lo = e.lo;
        lo = (rt & 1u) ? (lo | entrylo::D) : (lo & ~entrylo::D);
        lo = (rt & 2u) ? (lo | entrylo::V) : (lo & ~entrylo::V);
        h_->tlb_.setEntry(*hit, e.hi, lo);
        break;
      }

      // -- extensions: host call ------------------------------------------------------------
      case Op::Hcall:
        if (inst.target == 0) {
            h_->halted_ = true;
            break;
        }
        if (!hcallHandler_) {
            takeException(ExcCode::Ri, 0, false, false);
            return;
        }
        if (sb_) {
            // A host service has real side effects (kernel state,
            // host I/O) that a rolled-back round cannot replay: abort
            // before dispatching, so the serial fallback performs the
            // call exactly once. hcall 0 above is hart-local (halt)
            // and needs no abort; a missing handler raises Ri, which
            // is ordinary replayable architectural state.
            sb_->markAbort();
            h_->halted_ = true;
            return;
        }
        hcallHandler_(*this, inst.target);
        // the handler may have redirected or halted us
        if (h_->halted_)
            return;
        break;

      case Op::Invalid:
        takeException(ExcCode::Ri, 0, false, false);
        return;

      default:
        // the ops executeInline() runs; its callers never pass them on
        UEXC_PANIC("execute: op %u belongs to executeInline()",
                   static_cast<unsigned>(inst.op));
    }
}

} // namespace uexc::sim
