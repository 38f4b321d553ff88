// Fleet-level fault plans: one runtime::FaultPlan per train plus shared
// data-center outages (FleetFaults), the standard staggered drill, and the
// gray-chaos compiler. A train's plan is the same type a single consist
// carries in its ScenarioConfig, so a journey, the drill and gray chaos
// all compose by FaultPlan::merge, and the fleet validates each train's
// merged plan once (runtime::validate_faults) before its TrainShard
// drives it on the shared clock.
//
// Everything is plain data resolved against the virtual clock; the same
// schedule on the same seed replays identically, so chaos runs stay
// byte-for-byte reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "runtime/fault_plan.hpp"

namespace zc::fleet {

/// Index of a train (shard) within the fleet, 0..trains-1.
using TrainId = std::uint32_t;

/// Data-center outage. `duration == 0` keeps the DC down for the rest of
/// the run (fail-over target for the surviving DCs).
struct DcOutage {
    DataCenterId dc = 0;
    Duration at{0};
    Duration duration{0};
};

/// A whole fleet's faults: each train's plan (an LTE flap is that train's
/// dead zone) and the shared data centers' outages.
struct FleetFaults {
    std::map<TrainId, runtime::FaultPlan> trains;
    std::vector<DcOutage> dc_outages;

    /// Merges `other` train by train (FaultPlan::merge) and appends its
    /// DC outages.
    void merge(const FleetFaults& other);
};

/// The standard fleet drill used by `zugchain_sim --fleet-chaos` and the
/// CI smoke job: a rolling wave of single-node crashes (each restarting,
/// staggered so no two overlap within a shard), LTE dead zones sweeping
/// every third train, and — when the fleet has more than one data center
/// — DC 0 failing mid-run and recovering at 80% of the horizon. All
/// offsets scale with `run` (warmup + duration).
FleetFaults staggered_drill(std::uint32_t trains, std::uint32_t dc_count, Duration run);

// ---------------------------------------------------------------------------
// Gray chaos: faults that degrade without failing cleanly. Unlike the
// crash/outage schedules above, nothing here ever takes a node *down* —
// a limping node still answers (slowly), a flapping asymmetric link
// still receives (but nobody hears the node), a creeping egress ramp
// corrodes bandwidth over minutes. These are the failures a fixed
// view-change timeout handles worst, so they are the test bed for the
// adaptive timers (pbft/adaptive.hpp) and the LivenessAuditor.
// ---------------------------------------------------------------------------

enum class GrayKind : std::uint8_t {
    /// Virtual-CPU throttle: every sign/verify/codec/store charge of the
    /// victim scaled by `limp_factor` (degraded-device cost profile). The
    /// node stays correct — just slow enough to strain fixed timers.
    kLimpingNode,
    /// Repeated short asymmetric partitions: the victim's *outbound*
    /// links go dark for 3 s every 15 s (a dead TX amplifier); it keeps
    /// hearing the cluster throughout.
    kFlappingAsymLink,
    /// Slow-creep egress ramp: bandwidth/latency/loss drift linearly to
    /// a fixed end state over 30 s and hold (a corroding connector, not
    /// an outage).
    kSlowCreep,
};

/// One placed gray fault (the schedules carry the effects).
struct GrayInstance {
    GrayKind kind = GrayKind::kLimpingNode;
    TrainId train = 0;
    NodeId node = 0;
    Duration at{0};
    Duration duration{0};
    double severity = 0.0;  ///< limp factor / flap duty cycle / bw scale
};

struct GrayChaosOptions {
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint32_t trains = 1;  ///< 1 = single consist (plan index 0)
    std::uint64_t seed = 1;

    /// Active window the faults are placed into: [warmup + margin,
    /// horizon - margin]. `horizon` is typically warmup + duration.
    Duration horizon{seconds(60)};
    Duration warmup{seconds(2)};

    /// Instance counts per train (0 disables that kind).
    std::uint32_t limping = 1;
    std::uint32_t flapping = 1;
    std::uint32_t creeps = 1;

    /// Limping-node severity: cost-model multiplier (> 1 = slower).
    double limp_factor = 6.0;

    /// Byzantine population per train: a gray victim is never also a
    /// Byzantine node (grayness must be distinguishable from malice).
    std::map<TrainId, std::set<NodeId>> byzantine;
};

struct CompiledGray {
    /// The gray schedules alone, one plan per train (every train present):
    /// all flaps asymmetric, plus egress ramps and CPU profiles. Callers
    /// merge it into the base they passed to compile_gray.
    FleetFaults faults;
    std::vector<GrayInstance> instances;
};

/// Lowers the options onto per-train gray schedules. Deterministic in
/// `seed`. Flaps and ramps are placed clear of the crash and node-flap
/// spans of `base` (the drill, a compiled journey, a CLI schedule), so a
/// flap never isolates a node that is already down. Gray faults never
/// count against the crash budget (the victims stay correct), but each
/// train's base-plus-gray plan must still pass runtime::validate_faults;
/// otherwise this throws std::invalid_argument (a compiler bug —
/// placement is conservative).
CompiledGray compile_gray(const GrayChaosOptions& opts, const FleetFaults& base = {});

}  // namespace zc::fleet
