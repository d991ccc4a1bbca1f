/**
 * @file
 * The seeded lossy link: one model of an unreliable network, crossed
 * by DSM protocol messages (apps/dsm) and by migration chunk frames
 * (core/migrate).
 *
 * A Link owns the RNG stream and the per-attempt draw order — loss,
 * then corruption (framed messages only), then extra delay, then a
 * duplicate after a successful delivery — together with the doubling
 * retransmit timeout, its cap, and the retry budget. The caller keeps
 * only its own policy: what a received frame must satisfy (a sequence
 * number, a frame CRC), which statistics it reports, and how it
 * signals a partition.
 */

#ifndef UEXC_CORE_LINK_H
#define UEXC_CORE_LINK_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/types.h"

namespace uexc::rt {

/** Knobs of a seeded-deterministic lossy link. A link whose four
 *  percentages are all zero is reliable: every message arrives on its
 *  first attempt and the RNG is never drawn. */
struct LinkConfig
{
    std::uint64_t seed = 1;
    unsigned lossPercent = 0;    ///< message lost in flight
    unsigned corruptPercent = 0; ///< one bit of a framed message flipped
    unsigned dupPercent = 0;     ///< message delivered twice
    unsigned delayPercent = 0;   ///< extra-delay chance
    /** One-way latency (1994 Ethernet at 25 MHz: ~25k cycles / 1 ms;
     *  modern fabrics far less). */
    Cycles latencyCycles = 25000;
    Cycles delayCycles = 5000;     ///< extra latency when delayed
    Cycles timeoutCycles = 50000;  ///< initial retransmit timeout
    /** Ceiling for the doubling retransmit timeout. Unbounded doubling
     *  up to maxRetries would let the worst-case wait grow 2^16 beyond
     *  the initial timeout; the cap bounds the tail so a partition is
     *  declared after a bounded (and assertable) number of cycles. */
    Cycles timeoutCapCycles = 8 * 50000;
    unsigned maxRetries = 16;      ///< retransmissions, then partition

    bool reliable() const
    {
        return lossPercent == 0 && corruptPercent == 0 &&
               dupPercent == 0 && delayPercent == 0;
    }
};

/** What one Link::send() did, for the caller to fold into its stats. */
struct Delivery
{
    /** False when the retry budget ran out (a partition). */
    bool delivered = false;
    unsigned sends = 0;          ///< transmissions, duplicate included
    unsigned retries = 0;        ///< timeouts waited, each then resent
    unsigned lost = 0;           ///< attempts lost in flight
    unsigned corruptDropped = 0; ///< arrivals the receiver rejected
    bool duplicated = false;     ///< delivered a second time
    /** Latency, delays and timeouts; a duplicate's wire time is the
     *  caller's to charge. */
    Cycles cycles = 0;
    Cycles lastTimeout = 0;      ///< 0 when no timeout was waited
    Cycles maxTimeout = 0;
};

class Link
{
  public:
    /** The flipped-bit argument of an uncorrupted arrival. */
    static constexpr std::size_t kIntact = ~std::size_t(0);
    /** Receiver check of one arrival: given the bit a corruption
     *  flipped (kIntact for none), accept or drop it. */
    using Receive = std::function<bool(std::size_t flipped_bit)>;

    explicit Link(const LinkConfig &config)
        : config_(config), rng_(config.seed)
    {
    }

    /**
     * Carry one message across the link, retransmitting after each
     * loss or rejected arrival until @p receive accepts a copy or the
     * retry budget is spent. @p wire is one transmission's cycles;
     * @p frame_bits is the size of a framed message, in which a
     * corruption flips one bit, or 0 for an unframed message, which
     * draws no corruption roll.
     */
    Delivery send(Cycles wire, std::size_t frame_bits,
                  const Receive &receive);

    /** Change the weather mid-stream; the RNG stream carries on. */
    void reconfigure(const LinkConfig &config) { config_ = config; }

    /** The RNG state, which a checkpoint saves and restores. */
    std::uint64_t rngState() const { return rng_; }
    void setRngState(std::uint64_t state) { rng_ = state; }

  private:
    bool roll(unsigned pct);

    LinkConfig config_;
    std::uint64_t rng_;
};

} // namespace uexc::rt

#endif // UEXC_CORE_LINK_H
