// Consensus health monitor: watchdog rules over periodically sampled
// liveness signals.
//
// The runtime (runtime::Scenario) snapshots every node's monotonic
// counters and chain state on a fixed virtual-time cadence (every N bus
// cycles) and feeds the snapshot here. Four watchdog rules evaluate each
// sample:
//
//   * stalled view      — a node saw >= k soft timeouts since it last made
//                         commit progress (primary silent/censoring/dead),
//   * checkpoint lag    — the stable checkpoint trails the chain head by
//                         more than a threshold number of blocks,
//   * export backlog    — the unexported block span grows monotonically
//                         for M consecutive samples (export stuck while
//                         recording continues; armed only when export
//                         infrastructure is part of the deployment),
//   * divergence        — a node's decided count falls behind the cluster
//                         commit frontier by more than a threshold,
//   * node down         — a node stopped answering samples entirely
//                         (crash / power loss),
//   * rejoin stalled    — a restarted node keeps trailing the cluster head
//                         instead of catching up via state transfer.
//
// Each rule latches one typed Alarm per (node, kind): the first detection
// wins and repeated samples do not spam. Recovery-class alarms (node down,
// rejoin stalled, checkpoint lag, divergence) additionally *clear* once
// the condition heals — the entry stays in the history with its clear
// time, and the same (node, kind) may re-fire as a new entry later.
// Alarms are mirrored into the flight recorder (if attached) and reported
// through an optional hook so a harness can dump the black box the moment
// something trips. Everything runs on virtual time: same seed, same
// samples, same alarms, byte-equal reports.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "health/flight_recorder.hpp"
#include "health/health.hpp"

namespace zc::health {

/// Raw per-node signals gathered at one sample instant. All counters are
/// cumulative (monotonic); the monitor differentiates internally.
struct NodeSample {
    NodeId node = 0;
    bool alive = true;
    std::uint64_t decided = 0;        ///< totally ordered requests (replica)
    std::uint64_t logged = 0;         ///< unique payloads written to the chain
    std::uint64_t soft_timeouts = 0;  ///< layer soft-timer expiries
    std::uint64_t hard_timeouts = 0;
    std::uint64_t view_changes = 0;   ///< new views installed
    std::uint64_t head_height = 0;    ///< chain head (blocks)
    std::uint64_t stable_height = 0;  ///< last stable checkpoint, in blocks
    std::uint64_t base_height = 0;    ///< pruned-up-to floor (export coverage)
    std::uint64_t open_requests = 0;  ///< taken in but not yet logged (work owed)
    std::uint64_t rx_dropped = 0;     ///< receive-queue overflow drops
    double mem_mb = 0.0;              ///< current logical memory

    // Gray-failure telemetry (per-cause NIC drops of the node's traffic
    // and adaptive-timer thrash), cumulative like the rest.
    std::uint64_t net_dropped_loss = 0;
    std::uint64_t net_dropped_partition = 0;
    std::uint64_t net_dropped_overflow = 0;
    std::uint64_t net_dropped_corrupt = 0;
    std::uint64_t timeout_thrash = 0;  ///< view changes begun with recent progress
};

/// Sampling cadence of a monitored consist, in bus cycles (the fleet's
/// sampling tick multiplies by the configured cycle time). Must stay below
/// the view-change recovery time (~1 s with the paper's timers) or a stall
/// can resolve between two samples and the stalled-view rule never sees it.
inline constexpr std::uint32_t kSampleEveryCycles = 4;

struct MonitorConfig {
    /// Stalled view: soft timeouts tolerated without commit progress.
    std::uint32_t stalled_soft_timeouts = 3;

    /// Checkpoint lag: blocks the stable checkpoint may trail the head.
    std::uint64_t checkpoint_lag_blocks = 8;

    /// Export backlog: consecutive growth samples + minimum backlog before
    /// the alarm fires; only evaluated when `watch_export` is set (a
    /// deployment without data centers legitimately never prunes).
    std::uint32_t export_backlog_samples = 5;
    std::uint64_t export_backlog_min_blocks = 64;
    bool watch_export = false;

    /// Divergence: decided entries a node may trail the cluster frontier.
    std::uint64_t divergence_entries = 50;

    /// Rejoin: blocks a restarted node may trail the cluster chain head
    /// and still count as caught up (clears node-down / rejoin-stalled).
    std::uint64_t rejoin_lag_blocks = 4;

    /// Rejoin stalled: samples a restarted node may spend behind the
    /// catch-up line before the rejoin-stalled alarm fires.
    std::uint32_t rejoin_stalled_samples = 12;
};

class HealthMonitor {
public:
    explicit HealthMonitor(MonitorConfig config = {});

    /// Mirrors fired alarms into `recorder` (null = off).
    void set_flight_recorder(FlightRecorder* recorder) noexcept { recorder_ = recorder; }

    /// Invoked synchronously for every alarm as it fires (dump-on-alarm).
    void set_alarm_hook(std::function<void(const Alarm&)> hook) { hook_ = std::move(hook); }

    /// Evaluates all watchdog rules over one snapshot. Call with strictly
    /// increasing `now`; samples must carry cumulative counters.
    void sample(TimePoint now, const std::vector<NodeSample>& nodes);

    const std::vector<Alarm>& alarms() const noexcept { return alarms_; }
    bool alarmed() const noexcept { return !alarms_.empty(); }

    /// True while at least one alarm has fired and not cleared. A run
    /// whose every alarm cleared (e.g. a scheduled crash followed by a
    /// successful rejoin) counts as healthy again.
    bool any_active() const noexcept {
        for (const Alarm& a : alarms_) {
            if (!a.cleared) return true;
        }
        return false;
    }
    std::uint64_t samples_taken() const noexcept { return samples_; }

    /// Deterministic JSON: {"samples":..,"config":{..},"alarms":[..]}.
    std::string json() const;

private:
    struct NodeState {
        bool seen = false;
        std::uint64_t decided_at_progress = 0;
        std::uint64_t soft_at_progress = 0;
        std::uint64_t last_backlog = 0;
        std::uint32_t backlog_growth = 0;  ///< consecutive growth samples
        bool down_seen = false;            ///< currently sampled as dead
        bool rejoining = false;            ///< restarted, not yet caught up
        std::uint32_t stalled_rejoin_samples = 0;
        /// Decided entries missed while down: a restarted replica's counter
        /// resumes from its durable watermark, so the divergence rule
        /// compares `decided + decided_offset` against the frontier.
        std::uint64_t decided_offset = 0;
    };

    void fire(NodeId node, AlarmKind kind, TimePoint now, std::string detail);
    void clear(NodeId node, AlarmKind kind, TimePoint now);

    MonitorConfig config_;
    std::map<NodeId, NodeState> states_;
    std::vector<Alarm> alarms_;
    std::set<std::pair<NodeId, AlarmKind>> fired_;
    std::uint64_t samples_ = 0;
    FlightRecorder* recorder_ = nullptr;
    std::function<void(const Alarm&)> hook_;
};

}  // namespace zc::health
