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

void
Cpu::doBranch(Op op, bool taken, Addr target)
{
    h_->stats_.branches++;
    if (taken) {
        h_->stagedNpc_ = target;
        h_->branchTaken_ = true;
        charge(opTakenControlExtraCycles(op, config_.cost));
    }
}

void
Cpu::doJump(Op op, Addr target)
{
    h_->stats_.branches++;
    h_->stagedNpc_ = target;
    h_->branchTaken_ = true;
    charge(opTakenControlExtraCycles(op, config_.cost));
}

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
        if (h_->consecutiveStores_ >= 2 && config_.cost.writeBufferStall)
            charge(config_.cost.writeBufferStall);
    } else {
        h_->stats_.loads++;
        h_->consecutiveStores_ = 0;
    }
    paddr_out = tr.paddr;
    return true;
}

/**
 * Install the fetch cache for the page a slow fetch just translated
 * to @p tr, (re)decoding the whole physical page if it has never been
 * seen or was written since. Returns null when the page does not lie
 * entirely inside physical memory (the reference path's word-at-a-
 * time bounds behaviour must be preserved for partial tail pages).
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
    std::uint32_t ver_now = *ver;
    if (!slot || slot->version != ver_now) {
        if (!slot)
            slot = std::make_unique<Hart::DecodedPage>();
        for (unsigned i = 0; i < Hart::DecodedPage::NumInsts; i++)
            slot->insts[i] = decode(mem_.readWord(base + 4 * i));
        slot->version = ver_now;
    }
    h_->tlbGenSeen_ = h_->tlb_.generation();
    h_->fetchKey_ = translationKey(h_->pc_);
    h_->fetchPage_ = slot.get();
    h_->fetchPaBase_ = base;
    h_->fetchVbase_ = h_->pc_ & 0xfffff000u;
    h_->fetchMemVer_ = ver;
    h_->fetchVersion_ = slot->version;
    h_->fetchMapped_ = h_->pc_ < Kseg0Base || h_->pc_ >= Kseg2Base;
    h_->fetchCacheable_ = tr.cacheable;
    return &h_->fetchPage_->insts[(h_->pc_ & 0xfffu) >> 2];
}

/** Execute one instruction (or take one exception). */
void
Cpu::step()
{
    h_->cp0_.tickRandom();
    h_->excRaised_ = false;
    h_->branchTaken_ = false;
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
    execute(inst);
    if (h_->excRaised_)
        return;
    if (!(inst.flags & DecodedInst::FlagMemory))
        h_->consecutiveStores_ = 0;
    if (observer_)
        observer_->onInst(inst_pc, inst, h_->stats_.cycles - cycles_before);
    if (h_->redirect_) {
        h_->redirect_ = false;
        return;
    }
    h_->prevWasControl_ = (inst.flags & DecodedInst::FlagControl) != 0;
    h_->pc_ = h_->npc_;
    h_->npc_ = h_->stagedNpc_;
}

/**
 * One unit of the fast interpreter: while the fetch cache stays valid,
 * dispatch up to @p limit instructions straight off the decoded page
 * without going back through step()'s per-instruction call chain. A
 * fetch-cache miss (page change, self-modifying store, TLB or mode
 * change, unaligned PC) runs one reference step() instead, which
 * raises the right exception and refills the caches. Every statistics
 * update and cycle charge below is an exact replay of what step()
 * performs, in the same order, so the two interpreters stay
 * bit-identical. The block never leaves the cached page, so run()
 * sees every page crossing; on a page holding a stop PC the block is
 * one instruction, so run() checks the stop set before each one there.
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
    // members are synced on every loop exit and before any
    // instruction that can observe them (exceptions, jump links,
    // CP0, memory - everything outside the inline subset below).
    Addr pc = h_->pc_;
    Addr npc = h_->npc_;
    bool sync = true;
    while (true) {
        const DecodedInst &inst = h_->fetchPage_->insts[(pc & 0xfffu) >> 2];
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
        const Word rs = h_->regs_[inst.rs];
        const Word rt = h_->regs_[inst.rt];
        const CostModel &cost = config_.cost;
        // Inline subset: instructions that cannot raise exceptions,
        // touch memory, or reach CP0/TLB state. Each case is a
        // transliteration of the corresponding execute() case with
        // h_->pc_/h_->stagedNpc_ replaced by the locals; doBranch()/doJump()
        // are expanded in place.
        switch (inst.op) {
          case Op::Sll:  setReg(inst.rd, rt << inst.shamt); break;
          case Op::Srl:  setReg(inst.rd, rt >> inst.shamt); break;
          case Op::Sra:
            setReg(inst.rd,
                   static_cast<Word>(static_cast<SWord>(rt) >>
                                     inst.shamt));
            break;
          case Op::Sllv: setReg(inst.rd, rt << (rs & 31)); break;
          case Op::Srlv: setReg(inst.rd, rt >> (rs & 31)); break;
          case Op::Srav:
            setReg(inst.rd,
                   static_cast<Word>(static_cast<SWord>(rt) >>
                                     (rs & 31)));
            break;
          case Op::Addu: setReg(inst.rd, rs + rt); break;
          case Op::Subu: setReg(inst.rd, rs - rt); break;
          case Op::And:  setReg(inst.rd, rs & rt); break;
          case Op::Or:   setReg(inst.rd, rs | rt); break;
          case Op::Xor:  setReg(inst.rd, rs ^ rt); break;
          case Op::Nor:  setReg(inst.rd, ~(rs | rt)); break;
          case Op::Slt:
            setReg(inst.rd,
                   static_cast<SWord>(rs) < static_cast<SWord>(rt));
            break;
          case Op::Sltu: setReg(inst.rd, rs < rt); break;
          case Op::Mult: {
            std::int64_t prod = static_cast<std::int64_t>(
                static_cast<SWord>(rs)) * static_cast<SWord>(rt);
            h_->lo_ = static_cast<Word>(prod);
            h_->hi_ = static_cast<Word>(prod >> 32);
            charge(opExecuteExtraCycles(inst.op, cost));
            break;
          }
          case Op::Multu: {
            std::uint64_t prod = static_cast<std::uint64_t>(rs) * rt;
            h_->lo_ = static_cast<Word>(prod);
            h_->hi_ = static_cast<Word>(prod >> 32);
            charge(opExecuteExtraCycles(inst.op, cost));
            break;
          }
          case Op::Div:
            if (rt == 0) {
                h_->lo_ = 0xffffffffu;
                h_->hi_ = rs;
            } else if (rs == 0x80000000u && rt == 0xffffffffu) {
                h_->lo_ = 0x80000000u;
                h_->hi_ = 0;
            } else {
                h_->lo_ = static_cast<Word>(static_cast<SWord>(rs) /
                                        static_cast<SWord>(rt));
                h_->hi_ = static_cast<Word>(static_cast<SWord>(rs) %
                                        static_cast<SWord>(rt));
            }
            charge(opExecuteExtraCycles(inst.op, cost));
            break;
          case Op::Divu:
            if (rt == 0) {
                h_->lo_ = 0xffffffffu;
                h_->hi_ = rs;
            } else {
                h_->lo_ = rs / rt;
                h_->hi_ = rs % rt;
            }
            charge(opExecuteExtraCycles(inst.op, cost));
            break;
          case Op::Mfhi: setReg(inst.rd, h_->hi_); break;
          case Op::Mthi: h_->hi_ = rs; break;
          case Op::Mflo: setReg(inst.rd, h_->lo_); break;
          case Op::Mtlo: h_->lo_ = rs; break;
          case Op::Addiu: setReg(inst.rt, rs + inst.simm); break;
          case Op::Slti:
            setReg(inst.rt, static_cast<SWord>(rs) <
                            static_cast<SWord>(inst.simm));
            break;
          case Op::Sltiu: setReg(inst.rt, rs < inst.simm); break;
          case Op::Andi:  setReg(inst.rt, rs & inst.imm); break;
          case Op::Ori:   setReg(inst.rt, rs | inst.imm); break;
          case Op::Xori:  setReg(inst.rt, rs ^ inst.imm); break;
          case Op::Lui:   setReg(inst.rt, inst.imm << 16); break;
          case Op::J:
            h_->stats_.branches++;
            staged = ((pc + 4) & 0xf0000000u) | (inst.target << 2);
            h_->branchTaken_ = true;
            charge(opTakenControlExtraCycles(inst.op, cost));
            break;
          case Op::Jal:
            setReg(RA, pc + 8);
            h_->stats_.branches++;
            staged = ((pc + 4) & 0xf0000000u) | (inst.target << 2);
            h_->branchTaken_ = true;
            charge(opTakenControlExtraCycles(inst.op, cost));
            break;
          case Op::Jr:
            h_->stats_.branches++;
            staged = rs;
            h_->branchTaken_ = true;
            charge(opTakenControlExtraCycles(inst.op, cost));
            break;
          case Op::Jalr:
            setReg(inst.rd, pc + 8);
            h_->stats_.branches++;
            staged = rs;
            h_->branchTaken_ = true;
            charge(opTakenControlExtraCycles(inst.op, cost));
            break;
          case Op::Beq:
            h_->stats_.branches++;
            if (rs == rt) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bne:
            h_->stats_.branches++;
            if (rs != rt) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Blez:
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) <= 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bgtz:
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) > 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bltz:
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) < 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bgez:
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) >= 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bltzal:
            setReg(RA, pc + 8);
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) < 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          case Op::Bgezal:
            setReg(RA, pc + 8);
            h_->stats_.branches++;
            if (static_cast<SWord>(rs) >= 0) {
                staged = pc + 4 + (inst.simm << 2);
                h_->branchTaken_ = true;
                charge(opTakenControlExtraCycles(inst.op, cost));
            }
            break;
          default:
            goto general;
        }
        // tail for the inline subset: never memory, never an
        // exception, never a redirect, never invalidates the
        // fetch cache
        h_->consecutiveStores_ = 0;
        if (observer_)
            observer_->onInst(pc, inst, h_->stats_.cycles - cycles_before);
        h_->prevWasControl_ = (inst.flags & DecodedInst::FlagControl) != 0;
        pc = npc;
        npc = staged;
        if (done >= limit)
            break;
        // one compare covers "still in the cached page" and "still
        // word-aligned" (h_->fetchVbase_ has zero low bits)
        if ((pc ^ h_->fetchVbase_) & 0xfffff003u)
            break;
        continue;

      general:
        // everything else goes through the reference execute() on
        // synced member state, replaying step()'s tail exactly
        h_->pc_ = pc;
        h_->npc_ = npc;
        h_->stagedNpc_ = staged;
        h_->excRaised_ = false;
        h_->branchTaken_ = false;
        execute(inst);
        if (h_->excRaised_) {
            // takeException already redirected h_->pc_/h_->npc_
            sync = false;
            break;
        }
        if (!(inst.flags & DecodedInst::FlagMemory))
            h_->consecutiveStores_ = 0;
        if (observer_)
            observer_->onInst(pc, inst, h_->stats_.cycles - cycles_before);
        if (h_->redirect_) {
            h_->redirect_ = false;
            sync = false;
            break;
        }
        h_->prevWasControl_ = (inst.flags & DecodedInst::FlagControl) != 0;
        h_->pc_ = h_->npc_;
        h_->npc_ = h_->stagedNpc_;
        pc = h_->pc_;
        npc = h_->npc_;
        if (h_->halted_ || done >= limit)
            break;
        if ((pc ^ h_->fetchVbase_) & 0xfffff003u)
            break;
        // the cached translation and decoded page can only go
        // stale behind our back via a store (page write version)
        // or a fence-class instruction (TLB/CP0 write, host call);
        // anything else leaves them valid by construction
        if (inst.flags &
            (DecodedInst::FlagStore | DecodedInst::FlagFence)) {
            if (inst.flags & DecodedInst::FlagFence)
                break;
            if (*h_->fetchMemVer_ != h_->fetchVersion_)
                break;
        }
    }
    if (sync) {
        h_->pc_ = pc;
        h_->npc_ = npc;
    }
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

void
Cpu::execute(const DecodedInst &inst)
{
    const Word rs = h_->regs_[inst.rs];
    const Word rt = h_->regs_[inst.rt];
    const CostModel &cost = config_.cost;
    bool user = h_->cp0_.userMode();

    switch (inst.op) {
      // -- shifts ------------------------------------------------------
      case Op::Sll:  setReg(inst.rd, rt << inst.shamt); break;
      case Op::Srl:  setReg(inst.rd, rt >> inst.shamt); break;
      case Op::Sra:
        setReg(inst.rd,
               static_cast<Word>(static_cast<SWord>(rt) >> inst.shamt));
        break;
      case Op::Sllv: setReg(inst.rd, rt << (rs & 31)); break;
      case Op::Srlv: setReg(inst.rd, rt >> (rs & 31)); break;
      case Op::Srav:
        setReg(inst.rd,
               static_cast<Word>(static_cast<SWord>(rt) >> (rs & 31)));
        break;

      // -- arithmetic ---------------------------------------------------
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
      case Op::Addu: setReg(inst.rd, rs + rt); break;
      case Op::Sub: {
        Word diff = rs - rt;
        if ((rs ^ rt) & (rs ^ diff) & 0x80000000u) {
            takeException(ExcCode::Ov, 0, false, false);
            return;
        }
        setReg(inst.rd, diff);
        break;
      }
      case Op::Subu: setReg(inst.rd, rs - rt); break;
      case Op::And:  setReg(inst.rd, rs & rt); break;
      case Op::Or:   setReg(inst.rd, rs | rt); break;
      case Op::Xor:  setReg(inst.rd, rs ^ rt); break;
      case Op::Nor:  setReg(inst.rd, ~(rs | rt)); break;
      case Op::Slt:
        setReg(inst.rd, static_cast<SWord>(rs) < static_cast<SWord>(rt));
        break;
      case Op::Sltu: setReg(inst.rd, rs < rt); break;

      case Op::Mult: {
        std::int64_t prod = static_cast<std::int64_t>(
            static_cast<SWord>(rs)) * static_cast<SWord>(rt);
        h_->lo_ = static_cast<Word>(prod);
        h_->hi_ = static_cast<Word>(prod >> 32);
        charge(opExecuteExtraCycles(inst.op, cost));
        break;
      }
      case Op::Multu: {
        std::uint64_t prod = static_cast<std::uint64_t>(rs) * rt;
        h_->lo_ = static_cast<Word>(prod);
        h_->hi_ = static_cast<Word>(prod >> 32);
        charge(opExecuteExtraCycles(inst.op, cost));
        break;
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
        break;
      case Op::Divu:
        if (rt == 0) {
            h_->lo_ = 0xffffffffu;
            h_->hi_ = rs;
        } else {
            h_->lo_ = rs / rt;
            h_->hi_ = rs % rt;
        }
        charge(opExecuteExtraCycles(inst.op, cost));
        break;
      case Op::Mfhi: setReg(inst.rd, h_->hi_); break;
      case Op::Mthi: h_->hi_ = rs; break;
      case Op::Mflo: setReg(inst.rd, h_->lo_); break;
      case Op::Mtlo: h_->lo_ = rs; break;

      // -- immediate arithmetic -------------------------------------------
      case Op::Addi: {
        Word sum = rs + inst.simm;
        if (~(rs ^ inst.simm) & (rs ^ sum) & 0x80000000u) {
            takeException(ExcCode::Ov, 0, false, false);
            return;
        }
        setReg(inst.rt, sum);
        break;
      }
      case Op::Addiu: setReg(inst.rt, rs + inst.simm); break;
      case Op::Slti:
        setReg(inst.rt, static_cast<SWord>(rs) <
                        static_cast<SWord>(inst.simm));
        break;
      case Op::Sltiu: setReg(inst.rt, rs < inst.simm); break;
      case Op::Andi:  setReg(inst.rt, rs & inst.imm); break;
      case Op::Ori:   setReg(inst.rt, rs | inst.imm); break;
      case Op::Xori:  setReg(inst.rt, rs ^ inst.imm); break;
      case Op::Lui:   setReg(inst.rt, inst.imm << 16); break;

      // -- control ----------------------------------------------------------
      case Op::J:
        doJump(inst.op, ((h_->pc_ + 4) & 0xf0000000u) | (inst.target << 2));
        break;
      case Op::Jal:
        setReg(RA, h_->pc_ + 8);
        doJump(inst.op, ((h_->pc_ + 4) & 0xf0000000u) | (inst.target << 2));
        break;
      case Op::Jr:
        doJump(inst.op, rs);
        break;
      case Op::Jalr:
        setReg(inst.rd, h_->pc_ + 8);
        doJump(inst.op, rs);
        break;
      case Op::Beq:
        doBranch(inst.op, rs == rt, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bne:
        doBranch(inst.op, rs != rt, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Blez:
        doBranch(inst.op, static_cast<SWord>(rs) <= 0, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bgtz:
        doBranch(inst.op, static_cast<SWord>(rs) > 0, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bltz:
        doBranch(inst.op, static_cast<SWord>(rs) < 0, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bgez:
        doBranch(inst.op, static_cast<SWord>(rs) >= 0, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bltzal:
        setReg(RA, h_->pc_ + 8);
        doBranch(inst.op, static_cast<SWord>(rs) < 0, h_->pc_ + 4 + (inst.simm << 2));
        break;
      case Op::Bgezal:
        setReg(RA, h_->pc_ + 8);
        doBranch(inst.op, static_cast<SWord>(rs) >= 0, h_->pc_ + 4 + (inst.simm << 2));
        break;

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
        if (user) {
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
        if (user && !e.userModifiable()) {
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
    }
}

} // namespace uexc::sim
