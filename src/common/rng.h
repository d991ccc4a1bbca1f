/**
 * @file
 * The one seeded PRNG step of the library: fault-campaign placement,
 * the lossy link's weather rolls, fleet schedules and supervisor
 * backoff jitter all draw from it, so every seeded stream is clock-
 * and platform-independent.
 */

#ifndef UEXC_COMMON_RNG_H
#define UEXC_COMMON_RNG_H

#include <cstdint>

namespace uexc {

/** splitmix64: advances @p state and returns 64 uniform bits. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace uexc

#endif // UEXC_COMMON_RNG_H
