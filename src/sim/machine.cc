#include "sim/machine.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "sim/faultinject.h"
#include "sim/storebuf.h"

namespace uexc::sim {

namespace {

SchedulerMode
resolveScheduler(SchedulerMode mode)
{
    if (mode != SchedulerMode::Auto)
        return mode;
    // Read once, before any worker thread exists (Machine
    // construction), and nothing in this process calls setenv — the
    // data race mt-unsafe guards against cannot occur.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("UEXC_PARALLEL");
    if (!env)
        return SchedulerMode::Serial;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "serial") == 0)
        return SchedulerMode::Serial;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "barrier") == 0)
        return SchedulerMode::Barrier;
    UEXC_FATAL("UEXC_PARALLEL='%s' is not a scheduler; accepted values "
               "are 0, serial, 1, barrier (or leave it unset)", env);
}

} // namespace

/**
 * Persistent worker pool: one host thread, one private execute
 * engine, and one store buffer per hart. Workers sleep between
 * dispatches; Machine::runBarrier installs one job per live hart
 * and blocks until all complete. The mutex hand-offs give
 * every dispatch release/acquire edges in both directions, so
 * whatever a worker wrote (hart state, its store buffer, RunResults)
 * is visible to the machine thread after run() returns — and
 * ThreadSanitizer sees a clean happens-before graph.
 */
struct Machine::ParallelPool
{
    ParallelPool(PhysMemory &mem, const CpuConfig &config, unsigned n)
        : slots_(n)
    {
        CpuConfig worker_cfg = config;
        // A fault injector forces the serial scheduler (eligibility
        // checks in runBarrier), so worker engines never consult one.
        worker_cfg.faultInjector = nullptr;
        for (Slot &s : slots_)
            s.engine = std::make_unique<Cpu>(mem, worker_cfg);
        threads_.reserve(n);
        for (unsigned i = 0; i < n; i++)
            threads_.emplace_back([this, i] { workerLoop(i); });
    }

    ~ParallelPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cvWork_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    unsigned size() const { return unsigned(slots_.size()); }
    Cpu &engine(unsigned i) { return *slots_[i].engine; }
    StoreBuffer &sb(unsigned i) { return slots_[i].sb; }

    /** Run jobs[i] (null entries skipped) on worker i; blocks until
     *  every non-null job has completed. */
    void run(std::vector<std::function<void()>> jobs)
    {
        unsigned armed = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (unsigned i = 0; i < slots_.size(); i++) {
                slots_[i].job = std::move(jobs[i]);
                if (slots_[i].job)
                    armed++;
            }
            outstanding_ = armed;
            generation_++;
        }
        if (armed == 0)
            return;
        cvWork_.notify_all();
        std::unique_lock<std::mutex> lk(mu_);
        cvDone_.wait(lk, [this] { return outstanding_ == 0; });
    }

  private:
    struct Slot
    {
        std::unique_ptr<Cpu> engine;
        StoreBuffer sb;
        std::function<void()> job;
    };

    void workerLoop(unsigned i)
    {
        std::uint64_t seen = 0;
        while (true) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cvWork_.wait(lk, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                job = std::move(slots_[i].job);
                slots_[i].job = nullptr;
            }
            if (!job)
                continue;
            job();
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (--outstanding_ == 0)
                    cvDone_.notify_all();
            }
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t generation_ = 0;
    unsigned outstanding_ = 0;
    bool stop_ = false;
};

Machine::Machine(const MachineConfig &config)
    : config_(config),
      mem_(std::make_unique<PhysMemory>(config.memBytes)),
      scheduler_(resolveScheduler(config.scheduler))
{
    unsigned n = std::max(1u, config.harts);
    harts_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        harts_.push_back(std::make_unique<Hart>(i, config.cpu));
    cpu_ = std::make_unique<Cpu>(*mem_, config.cpu);
    cpu_->bindHart(*harts_[0]);
}

Machine::~Machine() = default;

void
Machine::ensurePool()
{
    if (!pool_)
        pool_ = std::make_unique<ParallelPool>(
            *mem_, config_.cpu, unsigned(harts_.size()));
}

void
Machine::setCurrentHart(unsigned i)
{
    if (i >= harts_.size())
        UEXC_FATAL("machine: no hart %u (machine has %zu)", i,
                   harts_.size());
    currentHart_ = i;
    cpu_->bindHart(*harts_[i]);
}

void
Machine::invalidateTlbs(Addr vaddr, unsigned asid)
{
    for (auto &h : harts_)
        h->tlb().invalidate(vaddr, asid);
}

MachineRunResult
Machine::run(InstCount max_insts)
{
    if (harts_.size() > 1 && scheduler_ == SchedulerMode::Barrier)
        return runBarrier(max_insts);
    return runSerialImpl(max_insts);
}

MachineRunResult
Machine::runSerialImpl(InstCount max_insts)
{
    MachineRunResult result;

    // Single hart: one quantum is the whole budget, so this is the
    // old Cpu::run call exactly (the quantum never splits a run).
    if (harts_.size() == 1) {
        RunResult r = cpu_->run(max_insts);
        result.reason = r.reason;
        result.instsExecuted = r.instsExecuted;
        result.hart = 0;
        return result;
    }

    InstCount remaining = max_insts;
    while (true) {
        // Find the next runnable hart, starting with the current one;
        // if every hart is halted the machine is halted.
        unsigned tried = 0;
        while (harts_[currentHart_]->halted() &&
               tried < harts_.size()) {
            currentHart_ = (currentHart_ + 1) % harts_.size();
            ++tried;
        }
        if (harts_[currentHart_]->halted()) {
            result.reason = StopReason::Halted;
            result.hart = currentHart_;
            return result;
        }

        if (remaining == 0) {
            result.reason = StopReason::InstLimit;
            result.hart = currentHart_;
            return result;
        }

        cpu_->bindHart(*harts_[currentHart_]);
        InstCount quantum = std::min(config_.quantum, remaining);
        RunResult r = cpu_->run(quantum);
        result.instsExecuted += r.instsExecuted;
        remaining -= r.instsExecuted;

        if (r.reason == StopReason::Breakpoint) {
            // Leave currentHart_ in place: the next run() resumes on
            // this hart with a fresh quantum, keeping the schedule a
            // pure function of the instruction stream.
            result.reason = StopReason::Breakpoint;
            result.hart = currentHart_;
            return result;
        }
        // Halted: the rotation below skips this hart from now on.
        // InstLimit with remaining > 0: the quantum expired — rotate.
        currentHart_ = (currentHart_ + 1) % harts_.size();
    }
}

/**
 * Barrier-parallel scheduler. Structure of one iteration:
 *
 *   1. The serial loop head, verbatim: scan for the next runnable
 *      hart, stop on all-halted / budget exhausted.
 *   2. Decide round eligibility. Ineligible (or backing off after an
 *      abort): run ONE serial quantum exactly as runSerialImpl does,
 *      and loop.
 *   3. Eligible: snapshot every live hart (RoundContext), run every
 *      live hart's quantum concurrently against the frozen memory
 *      with per-hart store buffers, rendezvous, then check the
 *      touched-page sets in serial round order. Writes(i) overlapping
 *      Reads(j)/Fetches(j) for i earlier than j means hart j may have
 *      missed a store it would have observed serially — roll every
 *      hart back and re-run the round through the serial branch (the
 *      restored state makes the serial quanta *be* the replay). No
 *      overlap: commit the buffers in round order and advance the
 *      cursor exactly as the serial rotation would have.
 *
 * Bit-identity argument: an ineligible iteration IS a serial
 * iteration; a committed round produced, per hart, the same quantum
 * the serial scheduler would have run (unclipped budget guaranteed by
 * eligibility, stable live set because halting is self-only, no
 * cross-hart observation by the no-conflict check, own stores merged
 * on load), and commits stores in serial order; an aborted round
 * changed nothing. Induction over iterations does the rest.
 */
MachineRunResult
Machine::runBarrier(InstCount max_insts)
{
    MachineRunResult result;
    const unsigned n = unsigned(harts_.size());
    InstCount remaining = max_insts;

    while (true) {
        unsigned tried = 0;
        while (harts_[currentHart_]->halted() && tried < n) {
            currentHart_ = (currentHart_ + 1) % n;
            ++tried;
        }
        if (harts_[currentHart_]->halted()) {
            result.reason = StopReason::Halted;
            result.hart = currentHart_;
            return result;
        }
        if (remaining == 0) {
            result.reason = StopReason::InstLimit;
            result.hart = currentHart_;
            return result;
        }

        // Live harts in serial rotation order from the cursor.
        std::vector<unsigned> order;
        order.reserve(n);
        for (unsigned k = 0; k < n; k++) {
            unsigned h = (currentHart_ + k) % n;
            if (!harts_[h]->halted())
                order.push_back(h);
        }

        // A round must reproduce the serial schedule exactly, so it
        // requires: at least two live harts (else it IS serial), a
        // budget that cannot clip any quantum, no abort backoff
        // pending, and none of the serial-only facilities (observer
        // callbacks, breakpoints, pending fault-injector events).
        bool eligible = order.size() >= 2 && serialStreak_ == 0 &&
                        remaining >=
                            InstCount(order.size()) * config_.quantum &&
                        cpu_->observer() == nullptr;
        for (unsigned k = 0; eligible && k < order.size(); k++) {
            if (harts_[order[k]]->hasBreakpoints())
                eligible = false;
            else if (config_.cpu.faultInjector &&
                     config_.cpu.faultInjector->nextDue(order[k]) !=
                         FaultInjector::kNever)
                eligible = false;
        }

        if (!eligible) {
            if (serialStreak_ > 0)
                --serialStreak_;
            barrierStats_.serialQuanta++;
            cpu_->bindHart(*harts_[currentHart_]);
            InstCount quantum = std::min(config_.quantum, remaining);
            RunResult r = cpu_->run(quantum);
            result.instsExecuted += r.instsExecuted;
            remaining -= r.instsExecuted;
            if (r.reason == StopReason::Breakpoint) {
                result.reason = StopReason::Breakpoint;
                result.hart = currentHart_;
                return result;
            }
            currentHart_ = (currentHart_ + 1) % n;
            continue;
        }

        // -- speculative round ----------------------------------------
        ensurePool();
        barrierStats_.parallelRounds++;

        std::vector<Hart::RoundContext> saved(order.size());
        for (std::size_t k = 0; k < order.size(); k++)
            harts_[order[k]]->saveRound(saved[k]);

        std::vector<RunResult> rr(order.size());
        std::vector<std::function<void()>> jobs(pool_->size());
        for (std::size_t k = 0; k < order.size(); k++) {
            unsigned h = order[k];
            Cpu &eng = pool_->engine(unsigned(k));
            StoreBuffer &sb = pool_->sb(unsigned(k));
            sb.clear();
            // Mirror the handler so a guest hcall aborts the round
            // (handler present, real side effects) or raises Ri
            // (absent) exactly as the serial engine would decide.
            eng.setHcallHandler(cpu_->hcallHandler());
            jobs[k] = [this, k, h, &eng, &sb, &rr] {
                eng.bindHart(*harts_[h]);
                eng.setStoreBuffer(&sb);
                rr[k] = eng.run(config_.quantum);
                eng.setStoreBuffer(nullptr);
            };
        }
        pool_->run(std::move(jobs));

        if (pageTouchLog_) {
            PageTouchLog::Round round;
            for (std::size_t k = 0; k < order.size(); k++) {
                const StoreBuffer &sb = pool_->sb(unsigned(k));
                PageTouchLog::HartTouches t;
                t.hart = order[k];
                t.readPages = sb.readPages();
                t.writePages = sb.writePages();
                t.fetchPages = sb.fetchPages();
                t.selfAborted = sb.aborted();
                round.harts.push_back(std::move(t));
            }
            pageTouchLog_->rounds.push_back(std::move(round));
        }

        bool abort = false;
        for (std::size_t k = 0; !abort && k < order.size(); k++)
            abort = pool_->sb(unsigned(k)).aborted();
        for (std::size_t i = 0; !abort && i < order.size(); i++) {
            const StoreBuffer &wi = pool_->sb(unsigned(i));
            if (wi.writePages().empty())
                continue;
            for (std::size_t j = i + 1; !abort && j < order.size();
                 j++) {
                const StoreBuffer &rj = pool_->sb(unsigned(j));
                abort =
                    pagesIntersect(wi.writePages(), rj.readPages()) ||
                    pagesIntersect(wi.writePages(), rj.fetchPages());
            }
        }

        if (pageTouchLog_)
            pageTouchLog_->rounds.back().aborted = abort;

        if (abort) {
            for (std::size_t k = 0; k < order.size(); k++)
                harts_[order[k]]->restoreRound(saved[k]);
            barrierStats_.abortedRounds++;
            // Back off: run at least one full serial pass over the
            // conflicting harts before speculating again, doubling on
            // consecutive aborts (conflict phases tend to persist).
            abortStreakLen_ =
                abortStreakLen_ == 0
                    ? unsigned(order.size())
                    : std::min(64u, abortStreakLen_ * 2);
            serialStreak_ = abortStreakLen_;
            continue;
        }

        abortStreakLen_ = 0;
        barrierStats_.committedRounds++;
        for (std::size_t k = 0; k < order.size(); k++) {
            pool_->sb(unsigned(k)).commit(*mem_);
            result.instsExecuted += rr[k].instsExecuted;
            remaining -= rr[k].instsExecuted;
        }
        // Leave the cursor and engine binding exactly where the
        // serial loop would: bound to the round's last hart, cursor
        // one past it.
        cpu_->bindHart(*harts_[order.back()]);
        currentHart_ = (order.back() + 1) % n;
    }
}

Addr
Machine::unmappedToPhys(Addr vaddr)
{
    if (vaddr >= Cpu::Kseg0Base && vaddr < Cpu::Kseg1Base)
        return vaddr - Cpu::Kseg0Base;
    if (vaddr >= Cpu::Kseg1Base && vaddr < Cpu::Kseg2Base)
        return vaddr - Cpu::Kseg1Base;
    return vaddr;
}

void
Machine::load(const Program &program)
{
    Addr paddr = unmappedToPhys(program.origin);
    if (paddr + 4 * program.words.size() > mem_->size())
        UEXC_FATAL("program at 0x%08x (%zu words) exceeds physical "
                   "memory", program.origin, program.words.size());
    // writeBlock bumps the page versions of every page it touches, so
    // a reload over already-executed code invalidates any hart's
    // predecoded pages (see tests/test_multihart.cc).
    mem_->writeBlock(paddr, program.words.data(),
                     4 * program.words.size());
    for (const auto &[name, addr] : program.symbols) {
        if (symbols_.count(name) && symbols_[name] != addr)
            UEXC_FATAL("machine: conflicting definitions of symbol "
                       "'%s'", name.c_str());
        symbols_[name] = addr;
    }
}

Addr
Machine::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        UEXC_FATAL("machine: unknown symbol '%s'", name.c_str());
    return it->second;
}

bool
Machine::hasSymbol(const std::string &name) const
{
    return symbols_.count(name) != 0;
}

Word
Machine::debugReadWord(Addr addr) const
{
    return mem_->readWord(unmappedToPhys(addr));
}

void
Machine::debugWriteWord(Addr addr, Word value)
{
    // writeWord bumps the page version: a predecoded copy of this
    // page in any hart is stale after this and re-decodes on the
    // next fetch.
    mem_->writeWord(unmappedToPhys(addr), value);
}

// -- checkpoint/restore --------------------------------------------------

namespace {

constexpr Word kTagConfig = snapshotTag('C', 'F', 'G', ' ');
constexpr Word kTagMemory = kSnapshotMemoryTag;
constexpr Word kTagSched = snapshotTag('S', 'C', 'H', 'D');

// The snapshot layer's page constant is what migration dirty
// tracking indexes with; it must agree with the write-version
// granularity here.
static_assert(kSnapshotPageBytes == PhysMemory::PageBytes,
              "snapshot page size must match PhysMemory pages");

Word
hartTag(unsigned i)
{
    return snapshotTag('H', 'R', 'T', '\0') | (Word(i) << 24);
}

} // namespace

void
Machine::registerSnapshotSection(Word tag, SnapshotSaveFn save,
                                 SnapshotLoadFn load)
{
    for (const SnapshotHook &hook : snapshotHooks_)
        if (hook.tag == tag)
            UEXC_FATAL("machine: duplicate snapshot section %s",
                       snapshotTagName(tag).c_str());
    snapshotHooks_.push_back({tag, std::move(save), std::move(load)});
}

std::vector<Byte>
Machine::checkpoint() const
{
    SnapshotWriter w;

    // Config echo: restore refuses an image whose machine shape
    // differs from the target's, because hart/cache/interpreter
    // structure is constructed, not serialized.
    w.beginSection(kTagConfig);
    w.u64(config_.memBytes);
    w.u32(std::uint32_t(harts_.size()));
    w.u64(config_.quantum);
    w.boolean(config_.cpu.fastInterpreter);
    w.boolean(config_.cpu.userVectorHw);
    w.boolean(config_.cpu.userVectorTable);
    w.boolean(config_.cpu.tlbmpHw);
    w.boolean(config_.cpu.cachesEnabled);
    w.endSection();

    // Physical memory with zero-page elision: only pages with any
    // nonzero byte are stored (strictly increasing page indices);
    // blockIsZero reads only pages written since they were last
    // known zero.
    // PhysMemory starts zeroed and restore re-zeroes, so the sparse
    // set reproduces the full contents. The serializer is shared with
    // the pre-copy migration receiver so both sides produce
    // byte-identical MEM payloads for identical memory contents.
    writeMemorySection(
        w, kTagMemory, mem_->size(),
        [this](std::uint32_t p, Byte *dst, std::size_t len) {
            mem_->readBlock(Addr(std::size_t(p) *
                                 PhysMemory::PageBytes),
                            dst, len);
        },
        [this](std::uint32_t p, std::size_t len) {
            return mem_->blockIsZero(
                Addr(std::size_t(p) * PhysMemory::PageBytes), len);
        });

    // Scheduler position.
    w.beginSection(kTagSched);
    w.u32(currentHart_);
    w.endSection();

    for (unsigned i = 0; i < harts_.size(); i++) {
        w.beginSection(hartTag(i));
        harts_[i]->snapshotSave(w);
        w.endSection();
    }

    for (const SnapshotHook &hook : snapshotHooks_) {
        w.beginSection(hook.tag);
        hook.save(w);
        w.endSection();
    }

    return w.finish();
}

void
Machine::restore(const std::vector<Byte> &image)
{
    SnapshotImage img(image);

    SnapshotReader cfg = img.section(kTagConfig);
    auto check = [&cfg](bool ok, const char *what) {
        if (!ok)
            cfg.fail(std::string("config mismatch: ") + what);
    };
    check(cfg.u64() == config_.memBytes, "memBytes");
    check(cfg.u32() == harts_.size(), "harts");
    check(cfg.u64() == config_.quantum, "quantum");
    check(cfg.boolean() == config_.cpu.fastInterpreter,
          "fastInterpreter");
    check(cfg.boolean() == config_.cpu.userVectorHw, "userVectorHw");
    check(cfg.boolean() == config_.cpu.userVectorTable,
          "userVectorTable");
    check(cfg.boolean() == config_.cpu.tlbmpHw, "tlbmpHw");
    check(cfg.boolean() == config_.cpu.cachesEnabled, "cachesEnabled");
    cfg.expectEnd();

    SnapshotReader memr = img.section(kTagMemory);
    std::uint64_t mem_size = memr.u64();
    if (mem_size != mem_->size())
        memr.fail("memory size mismatch");
    std::uint32_t pages = memr.u32();
    std::size_t total_pages =
        (mem_->size() + PhysMemory::PageBytes - 1) /
        PhysMemory::PageBytes;
    // Zero everything, then lay down the stored pages. clearRange and
    // writeBlock both bump page versions, so any predecoded page in
    // any hart is invalidated by the restore itself. clearRange skips
    // the memset of pages already known zero, so a restore into a
    // fresh twin costs what the image holds, not the memory size.
    mem_->clearRange(0, mem_->size());
    std::vector<Byte> page(PhysMemory::PageBytes);
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < pages; i++) {
        std::uint32_t p = memr.u32();
        if (p >= total_pages)
            memr.fail("page index " + std::to_string(p) +
                      " out of range");
        if (i > 0 && p <= prev)
            memr.fail("page indices not strictly increasing");
        prev = p;
        std::size_t base = std::size_t(p) * PhysMemory::PageBytes;
        std::size_t len =
            std::min(PhysMemory::PageBytes, mem_->size() - base);
        memr.bytes(page.data(), len);
        mem_->writeBlock(Addr(base), page.data(), len);
    }
    memr.expectEnd();

    SnapshotReader sched = img.section(kTagSched);
    std::uint32_t cur = sched.u32();
    if (cur >= harts_.size())
        sched.fail("scheduler hart out of range");
    sched.expectEnd();

    for (unsigned i = 0; i < harts_.size(); i++) {
        SnapshotReader hr = img.section(hartTag(i));
        harts_[i]->snapshotLoad(hr);
        hr.expectEnd();
    }

    for (const SnapshotHook &hook : snapshotHooks_) {
        SnapshotReader sr = img.section(hook.tag);
        hook.load(sr);
        sr.expectEnd();
    }

    // Strictness in the other direction: every section in the image
    // must have been consumed by the core or by a registered hook.
    for (const SnapshotSection &s : img.sections()) {
        bool known = s.tag == kTagConfig || s.tag == kTagMemory ||
                     s.tag == kTagSched;
        for (unsigned i = 0; !known && i < harts_.size(); i++)
            known = s.tag == hartTag(i);
        for (const SnapshotHook &hook : snapshotHooks_)
            known = known || s.tag == hook.tag;
        if (!known)
            throw SnapshotError("snapshot image: section " +
                                snapshotTagName(s.tag) +
                                " has no registered consumer");
    }

    setCurrentHart(cur);
}

} // namespace uexc::sim
