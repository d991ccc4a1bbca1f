/**
 * @file
 * Transport knobs and statistics of the migration wire.
 *
 * Split out of core/migrate.h so the chaos layer can describe planned
 * migration weather (core/chaos.h's MigrateOp) without pulling in the
 * whole migration engine — migrate.h includes chaos.h for the rig
 * helpers, so the dependency between the two has to stay one-way.
 */

#ifndef UEXC_CORE_TRANSPORT_H
#define UEXC_CORE_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/link.h"

namespace uexc::rt::migrate {

/** Migration transport knobs: the lossy link's, plus how an image is
 *  cut into chunk frames and what a frame's payload costs on the wire. */
struct TransportConfig : LinkConfig
{
    std::size_t chunkBytes = 4096;
    Cycles perWordCycles = 1; ///< wire time per 32-bit word
};

/** Transfer-side statistics (host measurement + simulated cycles). */
struct TransportStats
{
    std::uint64_t chunksTotal = 0;
    std::uint64_t chunksDelivered = 0;
    std::uint64_t framesSent = 0;     ///< incl. retransmits and dups
    std::uint64_t retries = 0;        ///< timeouts waited, each then resent
    std::uint64_t lostInFlight = 0;
    std::uint64_t corruptDropped = 0; ///< chunk-CRC rejections
    std::uint64_t duplicatesSuppressed = 0;
    /** Largest single timeout charged; never exceeds the cap. */
    Cycles maxTimeoutCharged = 0;
    /** Simulated cycles the transfer cost (latency + wire + waits). */
    Cycles cyclesCharged = 0;
    /** retryHistogram[i] = chunks that needed exactly i retries;
     *  the last bucket saturates. */
    std::vector<std::uint64_t> retryHistogram =
        std::vector<std::uint64_t>(9, 0);
};

} // namespace uexc::rt::migrate

#endif // UEXC_CORE_TRANSPORT_H
