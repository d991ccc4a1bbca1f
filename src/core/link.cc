#include "core/link.h"

#include <algorithm>

#include "common/rng.h"

namespace uexc::rt {

bool
Link::roll(unsigned pct)
{
    return !config_.reliable() && splitmix64(rng_) % 100 < pct;
}

Delivery
Link::send(Cycles wire, std::size_t frame_bits, const Receive &receive)
{
    Delivery d;
    Cycles timeout = config_.timeoutCycles;
    for (;;) {
        d.sends++;
        bool lost = roll(config_.lossPercent);
        std::size_t flipped = kIntact;
        if (!lost && frame_bits != 0 && roll(config_.corruptPercent))
            flipped = splitmix64(rng_) % frame_bits;

        if (lost) {
            d.lost++;
        } else {
            d.cycles += wire;
            if (roll(config_.delayPercent))
                d.cycles += config_.delayCycles;
            if (receive(flipped)) {
                d.delivered = true;
                if (roll(config_.dupPercent)) {
                    d.sends++;
                    d.duplicated = true;
                }
                return d;
            }
            d.corruptDropped++;
        }

        // lost or dropped: wait out the retransmit timer, back off
        if (d.retries >= config_.maxRetries)
            return d;
        d.cycles += timeout;
        d.lastTimeout = timeout;
        d.maxTimeout = std::max(d.maxTimeout, timeout);
        d.retries++;
        timeout = std::min<Cycles>(timeout * 2, config_.timeoutCapCycles);
    }
}

} // namespace uexc::rt
