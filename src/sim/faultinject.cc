#include "sim/faultinject.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/cp0.h"
#include "sim/cpu.h"
#include "sim/hart.h"
#include "sim/memory.h"
#include "sim/snapshot.h"
#include "sim/tlb.h"

namespace uexc::sim {

namespace {

/** beq zero, zero, -1: an address-independent branch-to-self. */
constexpr Word kSelfLoop = 0x1000ffffu;

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::MemBitFlip:        return "MemBitFlip";
      case FaultKind::TlbCorrupt:        return "TlbCorrupt";
      case FaultKind::TlbSpuriousMiss:   return "TlbSpuriousMiss";
      case FaultKind::SpuriousException: return "SpuriousException";
      case FaultKind::HandlerRunaway:    return "HandlerRunaway";
    }
    return "?";
}

void
FaultInjector::addEvent(const FaultEvent &event)
{
    pending_.push_back(event);
}

InstCount
FaultInjector::nextDue(unsigned hart) const
{
    InstCount due = kNever;
    for (const FaultEvent &e : pending_)
        if (e.hart == hart)
            due = std::min(due, e.atInst);
    return due;
}

void
FaultInjector::maybeFire(Cpu &cpu)
{
    unsigned hart = cpu.hartId();
    InstCount now = cpu.instret();
    for (std::size_t i = 0; i < pending_.size();) {
        const FaultEvent &e = pending_[i];
        if (e.hart != hart || now < e.atInst || !fire(cpu, e)) {
            i++;
            continue;
        }
        fired_.push_back({e, now, cpu.pc()});
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(i));
    }
}

bool
FaultInjector::fire(Cpu &cpu, const FaultEvent &event)
{
    switch (event.kind) {
      case FaultKind::MemBitFlip: {
        Addr wa = event.addr & ~3u;
        PhysMemory &mem = cpu.mem();
        if (wa + 4 > mem.size())
            UEXC_FATAL("faultinject: bit-flip target 0x%08x beyond "
                       "physical memory", wa);
        mem.writeWord(wa, mem.readWord(wa) ^ (1u << (event.bit & 31)));
        return true;
      }
      case FaultKind::TlbCorrupt: {
        unsigned idx = event.tlbIndex % Tlb::NumEntries;
        const TlbEntry &e = cpu.tlb().entry(idx);
        cpu.tlb().setEntry(idx, e.hi, e.lo & ~entrylo::V);
        return true;
      }
      case FaultKind::TlbSpuriousMiss: {
        // Evict: park the entry on the same impossible per-index kseg
        // VPN Tlb::invalidate uses, so the next access to the old page
        // takes a genuine refill and reloads the PTE.
        unsigned idx = event.tlbIndex % Tlb::NumEntries;
        cpu.tlb().setEntry(idx, 0x80000000u | (idx << 12), 0);
        return true;
      }
      case FaultKind::SpuriousException: {
        // Only meaningful (and only safe) for user-mode kuseg
        // execution outside a branch delay slot, and outside any
        // masked window (the stub's k0-live restore sequence): the
        // refill handler is k0/k1-only and EPC must name a
        // restartable instruction. Defer deterministically until the
        // hart gets there.
        if (!cpu.cp0().userMode() || cpu.pc() >= Cpu::Kseg0Base ||
            cpu.hart().inDelaySlot() || pcMasked(cpu.pc()))
            return false;
        cpu.injectException(ExcCode::TlbL, cpu.pc(), event.addr,
                            /*refill=*/true);
        return true;
      }
      case FaultKind::HandlerRunaway: {
        Addr wa = event.addr & ~3u;
        PhysMemory &mem = cpu.mem();
        if (wa + 8 > mem.size())
            UEXC_FATAL("faultinject: runaway target 0x%08x beyond "
                       "physical memory", wa);
        mem.writeWord(wa, kSelfLoop);
        mem.writeWord(wa + 4, 0); // delay slot: nop
        return true;
      }
    }
    return true;
}

void
FaultInjector::clear()
{
    pending_.clear();
    fired_.clear();
}

void
FaultInjector::maskPcWindow(Addr begin, Addr end)
{
    if (begin >= end)
        UEXC_FATAL("faultinject: empty mask window [0x%08x, 0x%08x)",
                   begin, end);
    maskedWindows_.emplace_back(begin, end);
}

bool
FaultInjector::pcMasked(Addr pc) const
{
    for (const auto &[begin, end] : maskedWindows_)
        if (pc >= begin && pc < end)
            return true;
    return false;
}

namespace {

void
saveEvent(SnapshotWriter &w, const FaultEvent &e)
{
    w.u32(static_cast<std::uint32_t>(e.kind));
    w.u32(e.hart);
    w.u64(e.atInst);
    w.u32(e.addr);
    w.u32(e.bit);
    w.u32(e.tlbIndex);
}

FaultEvent
loadEvent(SnapshotReader &r)
{
    FaultEvent e;
    std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(FaultKind::HandlerRunaway))
        r.fail("fault kind " + std::to_string(kind) + " out of range");
    e.kind = static_cast<FaultKind>(kind);
    e.hart = r.u32();
    e.atInst = r.u64();
    e.addr = r.u32();
    e.bit = r.u32();
    e.tlbIndex = r.u32();
    return e;
}

} // namespace

void
FaultInjector::snapshotSave(SnapshotWriter &w) const
{
    w.u32(std::uint32_t(pending_.size()));
    for (const FaultEvent &e : pending_)
        saveEvent(w, e);
    w.u32(std::uint32_t(fired_.size()));
    for (const FiredEvent &f : fired_) {
        saveEvent(w, f.event);
        w.u64(f.firedAt);
        w.u32(f.pc);
    }
}

void
FaultInjector::snapshotLoad(SnapshotReader &r)
{
    pending_.clear();
    fired_.clear();
    std::uint32_t npending = r.u32();
    for (std::uint32_t i = 0; i < npending; i++)
        pending_.push_back(loadEvent(r));
    std::uint32_t nfired = r.u32();
    for (std::uint32_t i = 0; i < nfired; i++) {
        FiredEvent f;
        f.event = loadEvent(r);
        f.firedAt = r.u64();
        f.pc = r.u32();
        fired_.push_back(f);
    }
}

} // namespace uexc::sim
