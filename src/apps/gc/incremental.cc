#include "apps/gc/incremental.h"

#include "common/bits.h"
#include "common/logging.h"

namespace uexc::apps {

using namespace os;

namespace {

/** Allocated bytes that start a new collection cycle. */
constexpr Word kAllocTrigger = 128 * 1024;

} // namespace

IncrementalCollector::IncrementalCollector(rt::UserEnv &env,
                                           const Config &config)
    : env_(env), config_(config), heap_(env, config.numRoots),
      bump_(config.heapBase), mapped_(config.heapBase)
{
    if (!isAligned(config.heapBase, kPageBytes))
        UEXC_FATAL("incremental gc: heap base not page aligned");
    env_.setHandler([this](rt::Fault &f) { onFault(f); });
    if (env_.mode() == rt::DeliveryMode::FastSoftware)
        env_.setEagerAmplify(true);
}

Addr
IncrementalCollector::pageOf(Addr addr) const
{
    return roundDown(addr, kPageBytes);
}

Addr
IncrementalCollector::alloc(unsigned payload_words)
{
    Word need = 4 * (payload_words + 1);
    if (need > kPageBytes)
        UEXC_FATAL("incremental gc: object of %u words too large",
                   payload_words);

    if (phase_ == Phase::Idle && allocatedSinceCycle_ >= kAllocTrigger)
        startCycle();
    if (phase_ != Phase::Idle)
        step();   // the incremental work tax on every allocation

    // objects never straddle pages (keeps the retrace sets and the
    // protection granularity aligned)
    if (pageOf(bump_) != pageOf(bump_ + need - 1))
        bump_ = roundUp(bump_, kPageBytes);
    if (bump_ + need > config_.heapBase + config_.heapBytes)
        UEXC_FATAL("incremental gc: heap exhausted");
    Addr header = bump_;
    bump_ += need;
    while (mapped_ < bump_) {
        env_.allocate(mapped_, kPageBytes);
        mapped_ += kPageBytes;
    }

    allocatedSinceCycle_ += need;
    // objects born during a mark phase are allocated black
    return heap_.place(header, payload_words, phase_ == Phase::Marking);
}

void
IncrementalCollector::setRoot(unsigned slot, Addr payload)
{
    heap_.setRoot(slot, payload);
    // a new root during marking must be grayed or it may be swept
    // under the mutator
    HeapObject *obj = phase_ == Phase::Marking ? heap_.find(payload)
                                                : nullptr;
    if (obj && !obj->marked) {
        obj->marked = true;
        gray_.push_back(payload);
    }
}

void
IncrementalCollector::startCycle()
{
    if (phase_ != Phase::Idle)
        return;
    stats_.cycles++;
    phase_ = Phase::Marking;
    for (auto &entry : heap_.objects) {
        entry.second.marked = false;
        entry.second.scanned = false;
    }
    env_.cpu().charge(heap_.objects.size());   // mark-bit clear pass
    gray_.clear();
    for (Addr r : heap_.roots()) {
        HeapObject *obj = heap_.find(r);
        if (obj && !obj->marked) {
            obj->marked = true;
            gray_.push_back(r);
        }
    }
}

void
IncrementalCollector::protectScannedPage(Addr page)
{
    if (protectedPages_.insert(page).second)
        env_.protect(page, kPageBytes, kProtRead);
}

void
IncrementalCollector::unprotectAll()
{
    for (Addr page : protectedPages_)
        env_.protect(page, kPageBytes, kProtRead | kProtWrite);
    protectedPages_.clear();
}

void
IncrementalCollector::scan(Addr payload, HeapObject &obj)
{
    heap_.scan(payload, payload + 4 * obj.words,
               [&](Addr w, HeapObject &target) {
                   if (!target.marked) {
                       target.marked = true;
                       gray_.push_back(w);
                   }
               });
    obj.scanned = true;
    // the consistency barrier: once scanned, writes must be caught
    protectScannedPage(pageOf(payload));
}

void
IncrementalCollector::step()
{
    if (phase_ == Phase::Idle)
        return;
    stats_.slices++;
    Cycles before = env_.cycles();

    if (phase_ == Phase::Marking) {
        unsigned budget = config_.sliceBudget;
        while (budget-- && !gray_.empty()) {
            Addr p = gray_.front();
            gray_.pop_front();
            HeapObject *obj = heap_.find(p);
            if (!obj || obj->scanned)
                continue;
            stats_.objectsMarked++;
            env_.cpu().charge(GcHeap::kMarkVisitCycles);
            scan(p, *obj);
        }
        if (gray_.empty()) {
            // marking complete: drop the barrier, start sweeping
            unprotectAll();
            phase_ = Phase::Sweeping;
            sweepList_.clear();
            for (const auto &entry : heap_.objects)
                sweepList_.push_back(entry.first);
            sweepCursor_ = 0;
        }
    } else if (phase_ == Phase::Sweeping) {
        unsigned budget = config_.sliceBudget;
        while (budget-- && sweepCursor_ < sweepList_.size()) {
            Addr p = sweepList_[sweepCursor_++];
            auto it = heap_.objects.find(p);
            if (it == heap_.objects.end())
                continue;
            env_.cpu().charge(GcHeap::kSweepCycles);
            if (!it->second.marked) {
                heap_.objects.erase(it);
                stats_.objectsSwept++;
            }
        }
        if (sweepCursor_ >= sweepList_.size()) {
            phase_ = Phase::Idle;
            allocatedSinceCycle_ = 0;
        }
    }

    Cycles pause = env_.cycles() - before;
    stats_.totalPauseCycles += pause;
    stats_.maxPauseCycles = std::max(stats_.maxPauseCycles, pause);
}

void
IncrementalCollector::finishCycle()
{
    while (phase_ != Phase::Idle)
        step();
}

void
IncrementalCollector::onFault(rt::Fault &fault)
{
    Addr page = pageOf(fault.badVaddr());
    if (!protectedPages_.count(page))
        UEXC_FATAL("incremental gc: unexpected fault at 0x%08x (%s)",
                   fault.badVaddr(), sim::excName(fault.code()));
    stats_.retraceFaults++;

    // the mutator wrote into scanned territory: retrace every
    // scanned object on this page (push them gray again) and drop
    // the page's protection until they are re-scanned
    protectedPages_.erase(page);
    switch (env_.mode()) {
      case rt::DeliveryMode::UltrixSignal:
        env_.protect(page, kPageBytes, kProtRead | kProtWrite);
        break;
      case rt::DeliveryMode::FastHardwareVector:
        env_.userTlbModify(page, true, true);
        break;
      case rt::DeliveryMode::FastSoftware:
        // eager amplification re-enabled access in-kernel; align the
        // page table with the dropped protection for later refills
        env_.process().as().amplify(page);
        break;
    }
    for (auto &entry : heap_.objects) {
        if (pageOf(entry.first) != page)
            continue;
        if (entry.second.scanned) {
            entry.second.scanned = false;
            gray_.push_back(entry.first);
            stats_.retracedObjects++;
        }
    }
}

} // namespace uexc::apps
