// Liveness auditor: the complement of the SafetyAuditor.
//
// Safety says nothing wrong was recorded; liveness says recording
// actually *happened* whenever the fault model allowed it. Given the
// in-model fault schedule (crashes, restarts, partitions, uplink dead
// zones — lowered by the harness into per-node "dark" spans), the
// auditor computes the quorum-capable windows: maximal spans where at
// most f nodes were down or disconnected, i.e. where a 2f+1 quorum of
// correct-and-connected replicas existed and PBFT promises progress.
// It judges the harness's health snapshots as they arrive, keeping no
// sample history:
//
//   * while input waits to be logged, the frontier a 2f+1 quorum of
//     live replicas decided to must not stand still for `min_window` of
//     quorum-capable time past each window's settle grace (a sliding
//     span, wherever the stall starts; an idle bus owes nothing),
//   * the export backlog drains while the uplink and a DC are reachable,
//   * a restarted node catches up to the cluster head within a bound.
//
// Gray faults (limping CPUs, creeping egress, asymmetric outbound-only
// flaps) deliberately do NOT open a dark span for CPU degradation: a
// limping node is correct-and-connected, so stalling on it is a
// liveness violation — exactly the regime where fixed view-change
// timeouts thrash and adaptive ones (pbft/adaptive.hpp) keep going.
//
// Violations are logged via ZC_ERROR (so the flight recorder captures
// them), emitted as kLivenessViolation trace events and summarized in a
// typed report that `zugchain_sim --audit-liveness` turns into exit
// code 6.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "health/monitor.hpp"
#include "trace/trace.hpp"

namespace zc::faults {

enum class LivenessViolationKind : std::uint8_t {
    kNoOrderingProgress,  ///< the quorum frontier stood still too long
    kExportStuck,         ///< uplink + DC reachable, backlog never drained
    kRejoinIncomplete,    ///< a restarted node never caught up in time
};

const char* liveness_violation_name(LivenessViolationKind kind) noexcept;

struct LivenessViolation {
    LivenessViolationKind kind;
    Duration from{0};  ///< offending span, relative to t = 0
    Duration to{0};
    NodeId node = kNoNode;  ///< rejoin victim (window checks: kNoNode)
    std::string detail;
};

struct LivenessReport {
    std::uint64_t windows = 0;          ///< quorum-capable windows found
    std::uint64_t windows_checked = 0;  ///< long enough + sampled
    std::uint64_t checks = 0;           ///< individual assertions evaluated
    std::vector<LivenessViolation> violations;

    bool clean() const noexcept { return violations.empty(); }
    /// Deterministic single-line JSON (CI compares it across runs).
    std::string json() const;
};

/// One span during which `node` cannot contribute to a quorum: crashed,
/// fully partitioned, or outbound-cut (an asymmetric flap silences its
/// votes just as thoroughly).
struct NodeDarkSpan {
    NodeId node = 0;
    Duration from{0};
    Duration to{0};
};

/// One span during which the train's uplink (or every data center) is
/// dark: exports legitimately stall.
struct UplinkDarkSpan {
    Duration from{0};
    Duration to{0};
};

struct LivenessConfig {
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    /// Quorum-capable time (past the settle grace) the 2f+1 frontier may
    /// stand still; shorter windows are not judged for exports.
    Duration min_window{seconds(8)};
    /// Grace at each window start for timers and view changes to settle.
    Duration settle{seconds(3)};

    /// Advance of the 2f+1 frontier that counts as progress.
    std::uint64_t min_decided_per_window = 1;

    /// A restarted node must be back within `rejoin_lag_blocks` of the
    /// cluster head after `rejoin_bound` of quorum-capable time.
    Duration rejoin_bound{seconds(45)};
    std::uint64_t rejoin_lag_blocks = 2;

    /// Export-drain assertions (off without data centers).
    bool check_exports = false;
};

class LivenessAuditor {
public:
    void configure(LivenessConfig cfg);
    void set_trace(trace::TraceContext ctx) noexcept { trace_ = ctx; }

    /// Feeds the in-model fault schedule and computes the quorum-capable
    /// windows over [0, horizon). Call once before the run.
    void set_schedule(std::vector<NodeDarkSpan> node_dark,
                      std::vector<UplinkDarkSpan> uplink_dark, Duration horizon);

    /// One snapshot of the train on the harness's sampling tick: every
    /// replica's sample plus the train's completed exports, summed over
    /// the data centers. Call with non-decreasing `now`.
    void observe(TimePoint now, const std::vector<health::NodeSample>& nodes,
                 std::uint64_t exports_completed);

    /// Closes the run: judges the open window and pending rejoins.
    /// Idempotent; later observations are ignored.
    void finish(TimePoint end);

    const LivenessReport& report() const noexcept { return report_; }

    /// The computed quorum-capable windows (tests inspect placement).
    const std::vector<std::pair<Duration, Duration>>& good_windows() const noexcept {
        return good_windows_;
    }

private:
    struct Rejoin {
        NodeId node = 0;
        Duration restarted_at{0};
        bool caught_up = false;
    };
    struct Snap {
        Duration at{-1};
        std::uint64_t exports = 0;  ///< completed, over the data centers
        std::uint64_t backlog = 0;  ///< max over nodes: head - prune base
    };
    struct Span {  ///< the first and last snapshot inside a span
        Snap first, last;
    };

    void violate(LivenessViolationKind kind, Duration from, Duration to, NodeId node,
                 std::string detail);
    /// Quorum-capable time accumulated in [from, to].
    Duration good_time_between(Duration from, Duration to) const;
    /// Judges the window under the cursor, cut at `end`, and moves on.
    void close_window(Duration end);

    LivenessConfig config_;
    trace::TraceContext trace_;
    std::vector<std::pair<Duration, Duration>> good_windows_;
    /// Per window: its longest uplink-up stretch past the settle grace.
    std::vector<std::pair<Duration, Duration>> uplink_up_;

    std::size_t window_ = 0;  ///< cursor: snapshots arrive in time order
    Span window_span_;        ///< ... past the window's settle grace
    Span uplink_span_;        ///< ... inside its longest uplink-up stretch

    // Ordering: quorum-capable time past the settle graces, accrued up to
    // the last snapshot, and where the frontier last advanced.
    Duration last_at_{0};
    Duration judged_{0};
    Duration anchor_at_{-1};
    Duration anchor_judged_{0};
    std::uint64_t anchor_frontier_ = 0;
    static constexpr std::size_t kNoStall = static_cast<std::size_t>(-1);
    std::size_t open_stall_ = kNoStall;  ///< index into report_.violations
    std::vector<std::uint64_t> decided_;  ///< scratch

    std::vector<bool> last_alive_;
    std::vector<Rejoin> rejoins_;
    LivenessReport report_;
    bool finished_ = false;
};

}  // namespace zc::faults
