/**
 * @file
 * Memory layout, kernel data structure offsets, syscall and host-call
 * numbers shared between the host-side kernel (src/os/kernel.*), the
 * guest kernel image (src/os/kernelimage.*), and the user-level
 * runtime (src/core).
 *
 * Everything here is part of the simulated system's ABI: guest
 * assembly indexes these structures with constant offsets, so the
 * layout is fixed and versioned by hand.
 */

#ifndef UEXC_OS_LAYOUT_H
#define UEXC_OS_LAYOUT_H

#include "common/types.h"

namespace uexc::os {

// -- physical / kernel virtual layout ------------------------------------

/** Kernel text+data live in kseg0 from the vectors up to this limit. */
constexpr Addr kKernelTextBase = 0x80000000u;
constexpr Addr kKernelTextLimit = 0x80100000u;  // 1 MB

/** Kernel dynamic data region (proc structs, kernel stacks). */
constexpr Addr kKernelDataBase = 0x80100000u;

/**
 * Page table arena: one 2 MB-aligned linear page table per process
 * (the R3000 single-lw refill requires 2 MB alignment of PTEBase).
 */
constexpr Addr kPageTableArena = 0x80200000u;   // kseg0 virtual
constexpr Addr kPageTableBytes = 0x00200000u;   // 2 MB each

/** First physical byte handed out for user frames. */
constexpr Addr kUserFrameBase = 0x00a00000u;    // physical

/** Page geometry. */
constexpr unsigned kPageShift = 12;
constexpr Addr kPageBytes = 1u << kPageShift;
/** Logical subpage geometry (paper section 3.2.4). */
constexpr unsigned kSubpageShift = 10;
constexpr Addr kSubpageBytes = 1u << kSubpageShift;
constexpr unsigned kSubpagesPerPage = kPageBytes / kSubpageBytes;

// -- user address space layout -----------------------------------------------

constexpr Addr kUserTextBase = 0x00400000u;
constexpr Addr kUserDataBase = 0x10000000u;
constexpr Addr kUserStackTop = 0x7ffff000u;   // stack grows down
/** The pinned exception frame page (paper section 3.2). */
constexpr Addr kUexcFramePage = 0x00380000u;
/**
 * First byte of the frame page past the 16 per-ExcCode frames
 * (16 * 128 = 2048). The upper half of the pinned page is dead space;
 * UserEnv fills it with a canary pattern and validates it around
 * every fast-mode delivery (corruption demotes the process to
 * kernel-mediated delivery).
 */
constexpr Word kUexcCanaryOffset = 2048;

// -- page table entry soft bits --------------------------------------------
//
// PTEs are EntryLo-format words; hardware ignores bits [6:0], which
// the kernel uses as software state. The TLB refill handler loads
// PTEs unmasked (the classic single-lw refill), so these bits travel
// into TLB entries harmlessly.

/** Software: subpage protection is active on this page. */
constexpr Word kPteSubpage = 1u << 0;
/** Software: a physical frame is allocated (page exists). */
constexpr Word kPtePresent = 1u << 1;

// -- proc structure ------------------------------------------------------------
//
// One per process, in kernel data space. Guest code addresses fields
// by these byte offsets from the proc base.

namespace proc {
constexpr Word Asid        = 0x00;  ///< address space id
constexpr Word PtBase      = 0x04;  ///< page table base (kseg0 va)
constexpr Word KstackTop   = 0x08;  ///< kernel stack top (kseg0 va)
constexpr Word Pid         = 0x0c;
constexpr Word Flags       = 0x10;  ///< kPfXxx bits below
/** Fast user-level exceptions (paper section 3.2). */
constexpr Word UexcMask    = 0x14;  ///< enabled ExcCode bitmask
constexpr Word UexcHandler = 0x18;  ///< user handler entry
constexpr Word UexcFrameK  = 0x1c;  ///< frame page, kseg0 alias
constexpr Word UexcFrameU  = 0x20;  ///< frame page, user va
/** Unix signal state. */
constexpr Word SigPending  = 0x24;  ///< pending signal bitmask
constexpr Word SigMask     = 0x28;  ///< blocked signal bitmask
constexpr Word SigHandlers = 0x2c;  ///< 32 words of handler pointers
constexpr Word TrampolineU = 0xac;  ///< user trampoline address
constexpr Word FpUsed      = 0xb0;  ///< process has FP state
constexpr Word UArea       = 0xb4;  ///< u-area pointer (kseg0 va)
constexpr Word Brk         = 0xb8;  ///< heap break (host bookkeeping)
constexpr Word StructBytes = 0xc0;
} // namespace proc

/** proc::Flags bits. */
constexpr Word kPfEagerAmplify = 1u << 0;  ///< amplify before upcall

// -- per-hart kernel save area -------------------------------------------------
//
// On a multi-hart machine every hart needs somewhere to spill K0/K1
// and the exception registers before it can touch shared kernel
// state; a single static save area (what the single-hart image uses)
// would be corrupted by two harts trapping concurrently. The kernel
// allocates numHarts() of these at boot, contiguous, 64-byte-aligned;
// a hart finds its own with PrId[31:24] << SizeShift.

namespace hartsave {
constexpr Word K0      = 0x00;
constexpr Word K1      = 0x04;
constexpr Word Epc     = 0x08;
constexpr Word Status  = 0x0c;
constexpr Word Cause   = 0x10;
constexpr Word Sp      = 0x14;
constexpr Word Scratch = 0x18;  ///< handler temporary
constexpr Word Bytes   = 0x40;  ///< one cache-line-aligned slot
constexpr unsigned SizeShift = 6;  ///< log2(Bytes), for guest indexing
} // namespace hartsave

// -- u-area -------------------------------------------------------------------
//
// Models the Ultrix per-process "struct user": a page of scattered
// bookkeeping the stock signal path must touch. Offsets are spread
// over distinct cache lines on purpose; the stock path's cost comes
// in part from this traffic (see DESIGN.md, honest cost model).

namespace uarea {
constexpr Word TrapFrame   = 0x000;  ///< saved register area (trapframe)
constexpr Word FpFrame     = 0x200;  ///< saved FP register area
constexpr Word SigAltStack = 0x400;
constexpr Word RusageBase  = 0x440;  ///< resource accounting counters
constexpr Word AstFlags    = 0x4c0;
constexpr Word ProcPtr     = 0x500;
constexpr Word Bytes       = 0x600;
} // namespace uarea

// -- trapframe layout (word indices) ---------------------------------------------
//
// The stock Ultrix-style path saves the full register file plus
// machine state here (and the sigcontext mirrors it).

namespace tf {
constexpr unsigned Regs   = 0;    ///< r1..r31 stored at [reg-1]
constexpr unsigned NumRegSlots = 31;
constexpr unsigned Mdlo   = 31;
constexpr unsigned Mdhi   = 32;
constexpr unsigned Epc    = 33;
constexpr unsigned Cause  = 34;
constexpr unsigned BadVA  = 35;
constexpr unsigned Status = 36;
constexpr unsigned Words  = 37;
} // namespace tf

// -- sigcontext layout (word indices, built on the user stack) ---------------------

namespace sigctx {
constexpr unsigned Pc      = 0;
constexpr unsigned Regs    = 1;    ///< r1..r31 at [1 + reg-1]
constexpr unsigned Mdlo    = 32;
constexpr unsigned Mdhi    = 33;
constexpr unsigned Cause   = 34;
constexpr unsigned BadVA   = 35;
constexpr unsigned Status  = 36;
constexpr unsigned Mask    = 37;
constexpr unsigned FpRegs  = 38;   ///< 32 words of FP state
constexpr unsigned FpCsr   = 70;
constexpr unsigned Words   = 71;
constexpr unsigned Bytes   = Words * 4;
} // namespace sigctx

// -- fast exception frame (per exception type, in the frame page) --------------------
//
// The frame page holds one frame per ExcCode value, 128 bytes each
// (paper section 3.2: "a communication area for each exception type
// enabled"). The kernel fills Epc/Cause/BadVA and the scratch-reg
// slots; the user-level stub may spill more registers into Spill.

namespace uframe {
constexpr unsigned FrameShift = 7;             ///< 128 bytes per frame
constexpr Word FrameBytes = 1u << FrameShift;
constexpr Word Epc    = 0x00;
constexpr Word Cause  = 0x04;
constexpr Word BadVA  = 0x08;
constexpr Word Status = 0x0c;
constexpr Word Mdlo   = 0x10;
constexpr Word Mdhi   = 0x14;
constexpr Word At     = 0x18;   ///< kernel-saved scratch registers
constexpr Word T0     = 0x1c;
constexpr Word T1     = 0x20;
constexpr Word T2     = 0x24;
constexpr Word T3     = 0x28;
constexpr Word T4     = 0x2c;
constexpr Word T5     = 0x30;
constexpr Word Spill  = 0x34;   ///< 19 words for the user-level stub
} // namespace uframe

// -- Unix signal numbers (the subset the simulated kernel knows) -----------------------

constexpr unsigned kSigill  = 4;
constexpr unsigned kSigtrap = 5;
constexpr unsigned kSigfpe  = 8;
constexpr unsigned kSigbus  = 10;
constexpr unsigned kSigsegv = 11;
constexpr unsigned kSigsys  = 12;
constexpr unsigned kNumSignals = 32;

// -- syscall numbers ---------------------------------------------------------------------

namespace sys {
constexpr Word Getpid         = 1;
constexpr Word Sigaction      = 2;  ///< a0 = signum, a1 = handler
constexpr Word Sigreturn      = 3;  ///< a0 = &sigcontext
constexpr Word Mprotect       = 4;  ///< a0 = addr, a1 = len, a2 = prot
constexpr Word UexcEnable     = 5;  ///< a0 = mask, a1 = handler, a2 = frame va
constexpr Word UexcProtect    = 6;  ///< a0 = addr, a1 = len, a2 = prot
constexpr Word SubpageProtect = 7;  ///< a0 = addr, a1 = len, a2 = prot
constexpr Word Exit           = 8;
constexpr Word UexcSetFlags   = 9;  ///< a0 = kPfXxx bits (eager amplify)
constexpr Word SetTrampoline  = 10; ///< a0 = trampoline address
/** Ultrix-flavored file/process syscalls (all host-bridged). */
constexpr Word Open           = 11; ///< a0 = path (user va), a1 = flags
constexpr Word Close          = 12; ///< a0 = fd
constexpr Word Read           = 13; ///< a0 = fd, a1 = buf, a2 = len
constexpr Word Write          = 14; ///< a0 = fd, a1 = buf, a2 = len
constexpr Word Sbrk           = 15; ///< a0 = signed increment; returns old break
constexpr Word Fork           = 16; ///< returns child pid (parent) / 0 (child)
constexpr Word Wait           = 17; ///< a0 = &status or 0; returns child pid
/** Size of the guest kernel's dispatch table (bound of the sltiu
 *  range check); numbers >= this take bad_syscall directly. */
constexpr Word NumSyscalls    = 32;
}  // namespace sys

// -- file syscall ABI -----------------------------------------------------------------

/** open() flags: access mode in the low two bits, BSD-style bits above. */
constexpr Word kOpenRead   = 0;
constexpr Word kOpenWrite  = 1;
constexpr Word kOpenRdwr   = 2;
constexpr Word kOpenAppend = 0x008;
constexpr Word kOpenCreate = 0x200;
constexpr Word kOpenTrunc  = 0x400;

/** Per-process open-file table size (fds 0/1/2 are pre-opened). */
constexpr unsigned kMaxFds = 16;

/** Longest path accepted by open() (copyin bound). */
constexpr Word kMaxPathBytes = 128;

/** mprotect() protection bits. */
constexpr Word kProtRead  = 1;
constexpr Word kProtWrite = 2;

// -- host call (hcall) service numbers ------------------------------------------------------

namespace svc {
/** 0 is reserved: architectural halt. */
constexpr Word SyscallComplex = 1;  ///< complex syscalls -> host kernel
constexpr Word SubpageEmulate = 2;  ///< emulate access to unprotected subpage
constexpr Word RiEmulate      = 3;  ///< TLBMP software emulation on RI
constexpr Word Upcall         = 4;  ///< bridge to a host-side app handler
constexpr Word PanicBadTrap   = 5;  ///< unhandled trap: die loudly
}  // namespace svc

} // namespace uexc::os

#endif // UEXC_OS_LAYOUT_H
