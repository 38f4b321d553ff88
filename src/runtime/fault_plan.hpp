// One consist's fault plan: the declarative schedules a run injects
// (crashes, restarts, link flaps, gray egress ramps, telegram-rate
// windows, degraded-CPU profiles), the crash/restart pairing, and one
// validator. A single consist's ScenarioConfig derives from FaultPlan; a
// fleet keys one per train (fleet::FleetFaults). Either way the consist's
// TrainShard drives it on the virtual clock.
//
// A plan that takes more than f nodes down at once, or flaps a node that
// is already crashed, does not test fault tolerance: it tests a budget
// the protocol never promised, and would surface mid-run as an opaque
// stall. Scenario and Fleet therefore validate every plan at
// construction, and the journey and gray compilers check their output.
// Byzantine nodes do not count against the crash budget here (a
// compromised-but-live node keeps voting); the journey compiler passes a
// reduced f to enforce crashed+Byzantine <= f for its own plans.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "faults/liveness.hpp"

namespace zc::runtime {

struct FaultPlan {
    /// Crash (power loss) schedule. `restart_after > 0` reboots the node
    /// that long after the crash; 0 leaves it down (fail-stop).
    struct CrashEntry {
        Duration at{0};
        NodeId node = 0;
        Duration restart_after{0};

        CrashEntry() = default;
        CrashEntry(Duration at, NodeId node, Duration restart_after = Duration{0})
            : at(at), node(node), restart_after(restart_after) {}
    };
    std::vector<CrashEntry> crash_schedule;

    /// Explicit restarts (for nodes crashed without `restart_after`).
    std::vector<std::pair<Duration, NodeId>> restart_schedule;

    /// Timed link outages: an LTE uplink dropping for minutes during an
    /// export (a tunnel: the train's dead zone), or one node transiently
    /// partitioned from its peers.
    struct LinkFlap {
        enum class Link { kLte, kNode };
        Duration at{0};
        Duration duration{seconds(30)};
        Link link = Link::kLte;
        NodeId node = 0;  ///< isolated node (Link::kNode only)

        /// Asymmetric (gray) partition: only the node's *outbound* links
        /// are cut — it keeps hearing the cluster but nobody hears it
        /// (a dead TX amplifier). kNode only; kLte flaps ignore it.
        bool asymmetric = false;
    };
    std::vector<LinkFlap> link_flaps;

    /// Gray degradation ramps: from `at`, the node's egress drifts
    /// linearly over `ramp` toward the scaled end state (bandwidth and
    /// latency multipliers, added loss), then holds or recovers — a
    /// corroding connector or congested cell, not a clean outage.
    struct EgressRamp {
        Duration at{0};
        Duration ramp{seconds(60)};
        NodeId node = 0;
        double bandwidth_scale_end = 1.0;
        double latency_scale_end = 1.0;
        double loss_end = 0.0;
        bool hold = true;
    };
    std::vector<EgressRamp> egress_ramps;

    /// Timetable-driven telegram-rate windows: between `at` and
    /// `at + duration` the bus master polls at `cycle_scale` x the base
    /// cycle (clamped to the MVB minimum period). `< 1` models a station
    /// dwell (denser consolidation bursts while doors cycle and the ATP
    /// chatters), `> 1` a depot layover trickle. Windows must not
    /// overlap; the base cycle is restored when a window closes.
    struct RateWindow {
        Duration at{0};
        Duration duration{seconds(60)};
        double cycle_scale = 1.0;

        RateWindow() = default;
        RateWindow(Duration at, Duration duration, double cycle_scale)
            : at(at), duration(duration), cycle_scale(cycle_scale) {}
    };
    std::vector<RateWindow> rate_windows;

    /// Per-node virtual-CPU degradation: cost-model multiplier applied to
    /// every sign/verify/codec/store charge of that node (> 1 = slower
    /// device — a throttled or constrained replica, per the
    /// PBFT-for-IoT measurements). Absent nodes run the nominal table.
    std::map<NodeId, double> cpu_profiles;

    bool empty() const noexcept;

    /// Appends every schedule of `other`; a node named in both
    /// `cpu_profiles` takes `other`'s factor.
    void merge(const FaultPlan& other);

    /// The spans where a node cannot vote, or the uplink is dark, each
    /// in schedule order.
    struct DownSpans {
        /// Crash to its restart: `restart_after`, else the earliest later
        /// unused explicit restart of the node, else `horizon`.
        std::vector<faults::NodeDarkSpan> crashed;
        /// kNode flaps. An asymmetric flap silences the node's votes just
        /// as thoroughly as a full partition.
        std::vector<faults::NodeDarkSpan> isolated;
        /// kLte flaps.
        std::vector<faults::UplinkDarkSpan> uplink;
    };
    DownSpans down_spans(Duration horizon) const;
};

/// Returns std::nullopt when `plan` is safe for an n-node cluster that
/// tolerates f crashes, otherwise a human-readable description of the
/// first violation found:
///   * a crash, restart, flap or ramp naming a node id >= n,
///   * a node crashed while already down (overlapping crash intervals),
///   * more than f nodes down concurrently (fail-stop crashes count as
///     down until an explicit restart, or forever),
///   * a node link-flap overlapping the node's down interval,
///   * overlapping flaps of the same link,
///   * a nonsensical ramp, or rate windows that overlap, nest, or scale
///     by a non-positive factor.
/// Scenario's and Fleet's constructors throw std::invalid_argument with
/// this message unless the config sets `allow_unsafe_chaos`.
std::optional<std::string> validate_faults(const FaultPlan& plan, std::uint32_t n,
                                           std::uint32_t f);

}  // namespace zc::runtime
