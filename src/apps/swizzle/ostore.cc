#include "apps/swizzle/ostore.h"

#include "common/bits.h"
#include "common/logging.h"

namespace uexc::apps {

using namespace os;
using sim::ExcCode;

namespace {

/** Cycles for a disk read of one object (cache-resident store assumed
 *  by the paper's analysis: small). */
constexpr Cycles kDiskReadCycles = 400;

} // namespace

ObjectStore::ObjectStore(rt::UserEnv &env, const Config &config)
    : env_(env), config_(config), heapBump_(config.heapBase)
{
    if (!isAligned(config_.heapBase, kPageBytes))
        UEXC_FATAL("object store heap base not page aligned");
    env_.setHandler([this](rt::Fault &f) { onFault(f); });
}

Oid
ObjectStore::createObject(const std::vector<PField> &fields)
{
    disk_.push_back(DiskObject{fields});
    return static_cast<Oid>(disk_.size() - 1);
}

ObjectStore::MemObject *
ObjectStore::byAddress(Addr addr)
{
    auto it = byAddr_.upper_bound(addr);
    if (it == byAddr_.begin())
        return nullptr;
    --it;
    MemObject &mo = resident_.at(it->second);
    if (addr >= mo.addr + 4 * mo.words)
        return nullptr;
    return &mo;
}

Addr
ObjectStore::ensureAddress(Oid oid)
{
    auto it = resident_.find(oid);
    if (it != resident_.end())
        return it->second.addr;
    if (oid >= disk_.size())
        UEXC_FATAL("object store: unknown oid %u", oid);

    MemObject mo;
    mo.oid = oid;
    mo.words = static_cast<unsigned>(disk_[oid].fields.size());
    Word bytes = roundUp(4 * std::max(mo.words, 1u), 8);
    if (config_.mode == SwizzleMode::Eager) {
        // eager reservations are page-granular: each object owns its
        // page(s) so that access-protecting a reserved object cannot
        // protect an already-loaded neighbour (the address-space cost
        // of eager swizzling the literature notes)
        heapBump_ = roundUp(heapBump_, kPageBytes);
        bytes = roundUp(bytes, kPageBytes);
    }
    mo.addr = heapBump_;
    heapBump_ += bytes;
    // allocate backing pages on demand
    Addr first = roundDown(mo.addr, kPageBytes);
    Addr last = roundUp(mo.addr + bytes, kPageBytes);
    for (Addr page = first; page < last; page += kPageBytes) {
        if (!env_.process().as().present(page))
            env_.allocate(page, kPageBytes);
    }
    mo.loaded = false;
    resident_[oid] = mo;
    byAddr_[mo.addr] = oid;

    Addr assigned = mo.addr;
    if (config_.mode == SwizzleMode::Eager) {
        // Wilson & Kakkad: reserve the address space but protect it so
        // the first touch faults the object in
        env_.process().as().protect(assigned, bytes, 0);
    } else {
        loadObject(oid);
    }
    return assigned;
}

void
ObjectStore::loadObject(Oid oid)
{
    // note: ensureAddress() below can rehash resident_, so work from
    // local copies rather than holding a reference across it
    {
        MemObject &mo = resident_.at(oid);
        if (mo.loaded)
            return;
        mo.loaded = true;
    }
    Addr base = resident_.at(oid).addr;
    const DiskObject &d = disk_[oid];
    env_.cpu().charge(kDiskReadCycles);
    stats_.diskReads++;
    stats_.objectsLoaded++;

    for (unsigned i = 0; i < d.fields.size(); i++) {
        const PField &f = d.fields[i];
        Word value;
        if (!f.isPointer) {
            value = f.value;
        } else if (f.value == kNullOid) {
            value = 0;   // null pointers stay null in every mode
        } else if (config_.mode == SwizzleMode::Eager) {
            // swizzle immediately: the target gets (reserved) address
            // space now; cost s per pointer
            value = ensureAddress(static_cast<Oid>(f.value));
            env_.cpu().charge(config_.swizzleCycles);
            stats_.pointersSwizzled++;
        } else {
            value = tagged(static_cast<Oid>(f.value));
        }
        env_.store(base + 4 * i, value);
    }
}

Addr
ObjectStore::pin(Oid root)
{
    Addr addr = ensureAddress(root);
    if (!resident_.at(root).loaded) {
        // eager mode reserves without loading; pin forces content
        Addr page = roundDown(addr, kPageBytes);
        env_.process().as().protect(page, kPageBytes,
                                    kProtRead | kProtWrite);
        loadObject(root);
    }
    return addr;
}

Word
ObjectStore::readData(Addr obj, unsigned field)
{
    return env_.load(obj + 4 * field);
}

Addr
ObjectStore::deref(Addr obj, unsigned field)
{
    Addr cell = obj + 4 * field;
    switch (config_.mode) {
      case SwizzleMode::LazyChecks: {
        // inline residency check on every dereference
        stats_.residencyChecks++;
        env_.cpu().charge(config_.checkCycles);
        Word w = env_.load(cell);
        if (w == 0)
            return 0;
        if (isTagged(w)) {
            Addr target = ensureAddress(oidOf(w));
            env_.cpu().charge(config_.swizzleCycles);
            stats_.pointersSwizzled++;
            env_.store(cell, target);
            w = target;
        }
        env_.load(w);          // the dereference itself
        return w;
      }
      case SwizzleMode::LazyExceptions: {
        // no check: read the pointer and touch through it; a tagged
        // pointer faults and the handler repairs cell + register
        Word w = env_.load(cell);
        if (w == 0)
            return 0;
        lastDerefCell_ = cell;
        std::uint64_t faults_before = stats_.swizzleFaults;
        env_.load(w);          // faults iff unswizzled
        if (stats_.swizzleFaults != faults_before)
            w = env_.load(cell);   // cell was repaired by the handler
        return w;
      }
      case SwizzleMode::Eager:
      default: {
        // pointers are always real addresses; touching a reserved,
        // not-yet-loaded target faults it in
        Word w = env_.load(cell);
        if (w == 0)
            return 0;
        env_.load(w);
        return w;
      }
    }
}

bool
ObjectStore::isResident(Oid oid) const
{
    auto it = resident_.find(oid);
    return it != resident_.end() && it->second.loaded;
}

void
ObjectStore::onFault(rt::Fault &fault)
{
    if (fault.code() == ExcCode::AdEL &&
        isTagged(fault.badVaddr())) {
        // lazy-exceptions: an unswizzled pointer was dereferenced.
        // Load the target, swizzle the containing cell, repair the
        // pointer register, resume (re-executes the load, which now
        // succeeds): the paper's "repair the address" (section 4.2.2).
        stats_.swizzleFaults++;
        Oid oid = oidOf(fault.badVaddr());
        Addr target = ensureAddress(oid);
        env_.cpu().charge(config_.swizzleCycles);
        stats_.pointersSwizzled++;
        env_.store(lastDerefCell_, target);
        fault.setReg(sim::T6, target);
        return;
    }

    if (fault.code() == ExcCode::TlbL || fault.code() == ExcCode::TlbS) {
        // eager mode: first touch of a reserved object's page
        MemObject *mo = byAddress(fault.badVaddr());
        if (!mo)
            UEXC_FATAL("object store: fault at 0x%08x outside any "
                       "object", fault.badVaddr());
        stats_.residencyFaults++;
        Oid oid = mo->oid;
        Addr page = roundDown(fault.badVaddr(), kPageBytes);
        // grant access, then fill from disk (the handler runs with
        // the page accessible; under Ultrix this is the mprotect the
        // paper's eager scheme must pay)
        env_.protect(page, kPageBytes, kProtRead | kProtWrite);
        loadObject(oid);
        return;
    }

    UEXC_FATAL("object store: unexpected fault %s at 0x%08x",
               sim::excName(fault.code()), fault.badVaddr());
}

} // namespace uexc::apps
