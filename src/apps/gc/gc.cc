#include "apps/gc/gc.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"

namespace uexc::apps {

using namespace os;

namespace {

/** Cycles per inline software check (Hosking & Moss: 5). */
constexpr Cycles kSoftwareCheckCycles = 5;
/** Every this many collections, one is a full (all-generations) one. */
constexpr unsigned kFullCollectEvery = 8;

} // namespace

Collector::Collector(rt::UserEnv &env, const Config &config)
    : env_(env), config_(config), heap_(env, config.numRoots),
      heapBump_(config.heapBase)
{
    if (!isAligned(config.heapBase, kBlockBytes))
        UEXC_FATAL("gc: heap base 0x%08x not block aligned",
                   config.heapBase);

    if (config_.barrier == BarrierKind::PageProtection) {
        env_.setHandler([this](rt::Fault &f) { onFault(f); });
        if (env_.mode() != rt::DeliveryMode::UltrixSignal)
            env_.setEagerAmplify(true);
    }
}

Collector::Block &
Collector::newBlock(bool old_gen)
{
    Block *block;
    if (!old_gen && !freeBlocks_.empty()) {
        block = freeBlocks_.back();
        freeBlocks_.pop_back();
        block->onFreeList = false;
    } else {
        if (heapBump_ + kBlockBytes > config_.heapBase + config_.heapBytes)
            UEXC_FATAL("gc: heap exhausted (%u bytes)",
                       config_.heapBytes);
        blocks_.push_back(std::make_unique<Block>());
        block = blocks_.back().get();
        block->base = heapBump_;
        heapBump_ += kBlockBytes;
        env_.allocate(block->base, kBlockBytes);
    }
    block->old = old_gen;
    block->bumpOffset = 0;
    block->objects.clear();
    return *block;
}

Addr
Collector::alloc(unsigned payload_words)
{
    Word need = 4 * (payload_words + 1);
    if (need > kBlockBytes)
        return allocOld(payload_words);

    if (youngAllocated_ + need > config_.youngBudgetBytes)
        collectImpl(youngCollectsSinceFull_ + 1 >= kFullCollectEvery);

    if (!allocBlock_ ||
        allocBlock_->bumpOffset + need > kBlockBytes) {
        allocBlock_ = &newBlock(false);
    }
    youngAllocated_ += need;
    Block &b = *allocBlock_;
    Addr payload = heap_.place(b.base + b.bumpOffset, payload_words, false);
    b.bumpOffset += need;
    b.objects.push_back(payload);
    stats_.allocations++;
    stats_.allocatedBytes += need;
    return payload;
}

Addr
Collector::allocOld(unsigned payload_words)
{
    Word need = 4 * (payload_words + 1);
    unsigned nblocks = (need + kBlockBytes - 1) / kBlockBytes;
    // old large objects take fresh blocks, contiguous because old
    // blocks always come from the bump pointer; every covered block
    // lists the object so dirty-page scans find it. Fresh blocks are
    // already zero, so only the header is stored.
    Addr header = heapBump_;
    Addr payload = header + 4;
    for (unsigned i = 0; i < nblocks; i++)
        newBlock(true).objects.push_back(payload);
    env_.store(header, payload_words);
    heap_.objects[payload] = HeapObject{payload_words};
    env_.cpu().charge(GcHeap::kAllocCycles + nblocks);
    stats_.allocations++;
    stats_.allocatedBytes += need;
    if (config_.barrier == BarrierKind::PageProtection)
        reprotectOldBlocks();
    return payload;
}

bool
Collector::isOld(Addr payload) const
{
    return isObject(payload) && blockOf(payload).old;
}

void
Collector::writeWord(Addr payload, unsigned index, Word value)
{
    Addr addr = payload + 4 * index;
    if (config_.barrier == BarrierKind::SoftwareCheck) {
        // the inline check: is the stored-into object old and the
        // stored value a young pointer? (exact remembered set)
        stats_.barrierChecks++;
        env_.cpu().charge(kSoftwareCheckCycles);
        if (isOld(payload) && isObject(value) && !isOld(value) &&
            remembered_.insert(payload).second) {
            stats_.rememberedObjects++;
        }
    }
    env_.store(addr, value);
}

void
Collector::onFault(rt::Fault &fault)
{
    Addr page = roundDown(fault.badVaddr(), kBlockBytes);
    if (page < config_.heapBase || page >= heapBump_)
        UEXC_FATAL("gc: unexpected fault at 0x%08x (%s)",
                   fault.badVaddr(), sim::excName(fault.code()));
    stats_.barrierFaults++;
    dirtyPages_.insert(page);
    if (env_.mode() == rt::DeliveryMode::FastHardwareVector) {
        // no kernel ran: the handler re-enables access itself with
        // the TLBMP instruction (sections 2.2/3.2.3 pair user-level
        // delivery with user-level TLB protection modification)
        env_.userTlbModify(page, /*writable=*/true, /*valid=*/true);
    } else if (env_.mode() == rt::DeliveryMode::UltrixSignal) {
        // Under Unix signals the handler must re-enable access with
        // mprotect (a second kernel crossing); the fast software
        // scheme's eager amplification already did it in-kernel.
        env_.protect(page, kBlockBytes, kProtRead | kProtWrite);
    }
}

void
Collector::scanRange(Addr lo, Addr hi, bool full)
{
    heap_.scan(lo, hi, [&](Addr w, const HeapObject &target) {
        if (!target.marked && (full || !blockOf(w).old))
            markStack_.push_back(w);
    });
}

void
Collector::collect()
{
    collectImpl(false);
}

void
Collector::fullCollect()
{
    collectImpl(true);
}

void
Collector::collectImpl(bool full)
{
    stats_.collections++;
    if (full) {
        stats_.fullCollections++;
        youngCollectsSinceFull_ = 0;
    } else {
        youngCollectsSinceFull_++;
    }
    markStack_.clear();

    // roots
    for (Addr r : heap_.roots()) {
        env_.cpu().charge(GcHeap::kRootScanCycles);
        if (isObject(r) && (full || !blockOf(r).old))
            markStack_.push_back(r);
    }

    // barrier sources: dirty old pages or the remembered set (a full
    // collection traces through old objects and needs neither)
    if (!full && config_.barrier == BarrierKind::PageProtection) {
        for (Addr page : dirtyPages_) {
            const Block &b = blockOf(page);
            if (!b.old)
                continue;
            for (Addr obj_addr : b.objects) {
                // scan only the dirty-page window of the object
                Addr lo = std::max(obj_addr, page);
                Addr hi = std::min(
                    obj_addr + 4 * heap_.objects.at(obj_addr).words,
                    page + kBlockBytes);
                scanRange(lo, hi, false);
            }
        }
    } else if (!full) {
        for (Addr obj_addr : remembered_) {
            if (const HeapObject *obj = heap_.find(obj_addr))
                scanRange(obj_addr, obj_addr + 4 * obj->words, false);
        }
    }

    // mark
    while (!markStack_.empty()) {
        Addr p = markStack_.back();
        markStack_.pop_back();
        HeapObject &obj = heap_.objects.at(p);
        if (obj.marked || (!full && blockOf(p).old))
            continue;
        obj.marked = true;
        stats_.objectsMarked++;
        env_.cpu().charge(GcHeap::kMarkVisitCycles);
        scanRange(p, p + 4 * obj.words, full);
    }

    // sweep; promote young blocks with survivors, recycle empty ones
    for (auto &bp : blocks_) {
        Block &b = *bp;
        if (!full && b.old)
            continue;
        std::vector<Addr> survivors;
        for (Addr obj_addr : b.objects) {
            env_.cpu().charge(GcHeap::kSweepCycles);
            auto it = heap_.objects.find(obj_addr);
            if (it == heap_.objects.end())
                continue;   // multi-block object already erased
            if (it->second.marked) {
                survivors.push_back(obj_addr);
            } else {
                heap_.objects.erase(it);
                stats_.objectsSwept++;
            }
        }
        b.objects = std::move(survivors);
        if (!b.objects.empty()) {
            if (!b.old) {
                b.old = true;
                stats_.blocksPromoted++;
            }
        } else if (!b.onFreeList) {
            b.old = false;
            b.bumpOffset = 0;
            b.onFreeList = true;
            freeBlocks_.push_back(&b);
        }
    }
    // clear mark bits on every survivor (old survivors of a full
    // collection keep their entries)
    for (auto &entry : heap_.objects)
        entry.second.marked = false;

    allocBlock_ = nullptr;
    youngAllocated_ = 0;
    dirtyPages_.clear();
    remembered_.clear();

    if (config_.barrier == BarrierKind::PageProtection)
        reprotectOldBlocks();
}

void
Collector::reprotectOldBlocks()
{
    // write-protect the old generation in maximal contiguous runs
    // (each run is one mprotect-style call, with its real cost);
    // blocks_ is in address order, so a run is a run of entries
    std::size_t i = 0;
    while (i < blocks_.size()) {
        if (!blocks_[i]->old) {
            i++;
            continue;
        }
        std::size_t j = i + 1;
        while (j < blocks_.size() && blocks_[j]->old)
            j++;
        Word len = static_cast<Word>((j - i) * kBlockBytes);
        env_.protect(blocks_[i]->base, len, kProtRead);
        stats_.pagesReprotected += (j - i);
        i = j;
    }
}

} // namespace uexc::apps
