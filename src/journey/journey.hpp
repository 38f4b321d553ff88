// Seeded journey generator: multi-day per-train operating plans.
//
// A journey is the timetable-shaped load profile the paper's deployment
// actually sees: a consist leaves the depot, alternates cruise legs with
// station dwells (door cycles and ATP chatter densify the telegram
// stream), periodically loses its LTE uplink in tunnels, and parks
// overnight in a depot where the bus trickles. Some consists carry a
// degraded recorder device (a throttled or constrained replica, per the
// PBFT-for-IoT measurements) whose virtual CPU runs a constant factor
// slower.
//
// The generator is pure data-in/data-out and fully deterministic: the
// same JourneyConfig (seed included) always yields the same plan, byte
// for byte, with no dependency on the simulation. Plans are lowered onto
// runtime/fleet fault schedules by journey/compiler.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace zc::journey {

enum class SegmentKind : std::uint8_t {
    kCruise,   ///< open-line running: nominal telegram rate, uplink up
    kStation,  ///< station dwell: telegram-rate burst (doors, ATP, PIS)
    kTunnel,   ///< LTE dead zone: uplink down, recording continues
    kDepot,    ///< overnight layover: bus trickles at a fraction of rate
};

const char* segment_kind_name(SegmentKind kind) noexcept;

/// One contiguous stretch of a train's day. Segments of a plan are
/// sorted by `at`, non-overlapping, and cover [0, horizon).
struct Segment {
    SegmentKind kind = SegmentKind::kCruise;
    Duration at{0};
    Duration duration{0};

    Segment() = default;
    Segment(SegmentKind kind, Duration at, Duration duration)
        : kind(kind), at(at), duration(duration) {}
};

/// One consist's plan for the whole horizon.
struct TrainPlan {
    std::uint32_t train = 0;
    std::vector<Segment> segments;

    /// Degraded-device profile: node -> cost-model multiplier (> 1 =
    /// slower). Empty for a nominally equipped consist.
    std::map<NodeId, double> cpu_profiles;

    std::uint64_t stations = 0;  ///< dwell count over the horizon
    std::uint64_t tunnels = 0;   ///< dead-zone count over the horizon
};

// Cruise legs between stops.
inline constexpr Duration kLegMin = seconds(240);
inline constexpr Duration kLegMax = seconds(900);

// Station dwells.
inline constexpr Duration kDwellMin = seconds(45);
inline constexpr Duration kDwellMax = seconds(150);

// Tunnels: per-leg probability of a mid-leg dead zone.
inline constexpr double kTunnelProb = 0.35;
inline constexpr Duration kTunnelMin = seconds(45);
inline constexpr Duration kTunnelMax = seconds(240);

// Degraded device: per-train probability that one replica runs slow,
// and the multiplier range it is drawn from.
inline constexpr double kDegradedTrainProb = 0.5;
inline constexpr double kDegradedMin = 1.5;
inline constexpr double kDegradedMax = 3.0;

struct JourneyConfig {
    std::uint64_t seed = 1;
    std::uint32_t trains = 1;
    std::uint32_t days = 2;

    /// Replicas per consist (bounds the degraded-node draw).
    std::uint32_t nodes = 4;

    Duration day_length{seconds(86'400)};
    /// In-service window per day; the remainder is the depot layover.
    Duration service_length{seconds(64'800)};
};

struct JourneyPlan {
    std::uint64_t seed = 0;
    std::uint32_t days = 0;
    Duration horizon{0};
    std::vector<TrainPlan> trains;

    /// Human-readable multi-line digest (one line per train).
    std::string summary() const;
};

/// Generates the plan. Throws std::invalid_argument on nonsensical
/// configuration (zero trains/days, inverted ranges, service longer than
/// the day, probabilities outside [0,1]).
JourneyPlan generate(const JourneyConfig& config);

}  // namespace zc::journey
