#include "core/supervise.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace uexc::rt::supervise {

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Wedged: return "wedged";
      case FailureKind::Crashed: return "crashed";
      case FailureKind::CorruptedImage: return "corrupted-image";
      case FailureKind::Partitioned: return "partitioned";
      case FailureKind::HostDown: return "host-down";
    }
    return "?";
}

const char *
actionName(Action action)
{
    switch (action) {
      case Action::Restart: return "restart";
      case Action::Remigrate: return "remigrate";
      case Action::Quarantine: return "quarantine";
    }
    return "?";
}

std::string
decisionLine(const Decision &d)
{
    std::string line = "tick " + std::to_string(d.tick) + " guest " +
                       std::to_string(d.guest) + ": " +
                       failureKindName(d.failure) + " -> " +
                       actionName(d.action) + " (failure #" +
                       std::to_string(d.consecutiveFailures) +
                       ", backoff " + std::to_string(d.backoffTicks) +
                       " ticks)";
    if (!d.note.empty())
        line += " — " + d.note;
    return line;
}

static std::uint64_t
percentileOf(std::vector<std::uint64_t> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    double rank = p / 100.0 * double(samples.size() - 1);
    std::size_t idx = std::size_t(rank + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

std::uint64_t
SupervisorStats::mttrTicksPercentile(double p) const
{
    return percentileOf(mttrTicks, p);
}

Cycles
SupervisorStats::mttrCyclesPercentile(double p) const
{
    return percentileOf(mttrCycles, p);
}

Supervisor::Supervisor(const SupervisorConfig &config)
    : config_(config), rng_(config.seed ^ 0x73757056ull) // "supV"
{
    if (config_.quarantineAfter == 0)
        UEXC_FATAL("supervisor: quarantineAfter must be at least 1");
}

Supervisor::GuestHealth &
Supervisor::health(unsigned guest)
{
    if (guest >= guests_.size())
        guests_.resize(guest + 1);
    return guests_[guest];
}

void
Supervisor::track(unsigned guest)
{
    (void)health(guest);
}

bool
Supervisor::heartbeat(unsigned guest, std::uint64_t tick,
                      std::uint64_t progress, std::uint64_t budget_echo)
{
    (void)tick;
    GuestHealth &h = health(guest);
    stats_.heartbeats++;
    if (h.quarantined || h.down)
        return false;
    bool alive = !h.everBeat || progress != h.lastProgress ||
                 budget_echo != h.lastEcho;
    h.everBeat = true;
    h.lastProgress = progress;
    h.lastEcho = budget_echo;
    if (alive) {
        h.stalledBeats = 0;
        return false;
    }
    h.stalledBeats++;
    if (h.stalledBeats >= config_.wedgedAfterBeats) {
        stats_.wedgeDetections++;
        return true;
    }
    return false;
}

Decision
Supervisor::onFailure(unsigned guest, std::uint64_t tick,
                      Cycles sim_cycles, FailureKind kind,
                      const std::string &note)
{
    GuestHealth &h = health(guest);
    stats_.failuresByKind[unsigned(kind)]++;
    if (!h.down) {
        h.down = true;
        h.downSinceTick = tick;
        h.downSinceCycles = sim_cycles;
    }
    h.consecutiveFailures++;
    h.stalledBeats = 0;

    Decision d;
    d.tick = tick;
    d.guest = guest;
    d.failure = kind;
    d.consecutiveFailures = h.consecutiveFailures;
    d.note = note;

    if (h.consecutiveFailures >= config_.quarantineAfter) {
        d.action = Action::Quarantine;
        h.quarantined = true;
        stats_.quarantines++;
    } else {
        switch (kind) {
          case FailureKind::HostDown:
          case FailureKind::Partitioned:
            d.action = Action::Remigrate;
            stats_.remigrations++;
            break;
          case FailureKind::Wedged:
          case FailureKind::Crashed:
          case FailureKind::CorruptedImage:
            d.action = Action::Restart;
            stats_.restarts++;
            break;
        }
        if (h.consecutiveFailures > 1) {
            std::uint64_t shift = h.consecutiveFailures - 2;
            std::uint64_t backoff =
                shift >= 63 ? config_.backoffCapTicks
                            : std::min(config_.backoffCapTicks,
                                       config_.backoffBaseTicks
                                           << shift);
            // Seeded jitter decorrelates retry storms across guests
            // without breaking determinism.
            backoff += splitmix64(rng_) % 2;
            d.backoffTicks = backoff;
            stats_.backoffTicksCharged += backoff;
        }
    }
    h.retryAtTick = tick + d.backoffTicks;
    log_.push_back(d);
    return log_.back();
}

void
Supervisor::onRecovered(unsigned guest, std::uint64_t tick,
                        Cycles sim_cycles)
{
    GuestHealth &h = health(guest);
    if (!h.down)
        return;
    h.down = false;
    h.consecutiveFailures = 0;
    h.stalledBeats = 0;
    // Recovery resets the liveness baseline: the next beat re-seeds
    // the progress counters instead of comparing across the outage.
    h.everBeat = false;
    stats_.recoveries++;
    stats_.mttrTicks.push_back(tick - h.downSinceTick);
    stats_.mttrCycles.push_back(sim_cycles >= h.downSinceCycles
                                    ? sim_cycles - h.downSinceCycles
                                    : 0);
}

bool
Supervisor::quarantined(unsigned guest) const
{
    return guest < guests_.size() && guests_[guest].quarantined;
}

bool
Supervisor::down(unsigned guest) const
{
    return guest < guests_.size() && guests_[guest].down;
}

std::uint64_t
Supervisor::retryAtTick(unsigned guest) const
{
    return guest < guests_.size() ? guests_[guest].retryAtTick : 0;
}

unsigned
Supervisor::consecutiveFailures(unsigned guest) const
{
    return guest < guests_.size() ? guests_[guest].consecutiveFailures
                                  : 0;
}

std::string
Supervisor::decisionLogText() const
{
    std::string text;
    for (const Decision &d : log_) {
        text += decisionLine(d);
        text += '\n';
    }
    return text;
}

} // namespace uexc::rt::supervise
