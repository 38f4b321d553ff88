#include <gtest/gtest.h>

#include "faults/liveness.hpp"

namespace zc::faults {
namespace {

LivenessConfig quick_cfg() {
    LivenessConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.min_window = seconds(4);
    cfg.settle = seconds(1);
    cfg.min_decided_per_window = 1;
    cfg.rejoin_bound = seconds(10);
    cfg.rejoin_lag_blocks = 2;
    return cfg;
}

health::NodeSample node(NodeId id, std::uint64_t decided, bool alive = true,
                        std::uint64_t head = 0, std::uint64_t base = 0) {
    health::NodeSample s;
    s.node = id;
    s.alive = alive;
    s.decided = decided;
    s.head_height = head;
    s.base_height = base;
    s.open_requests = 1;  // input is waiting: ordering owes progress
    return s;
}

/// Four live replicas that all decided `decided` entries, with `head`
/// blocks on the chain of which the last `backlog` are unexported.
std::vector<health::NodeSample> all_alive(std::uint64_t decided, std::uint64_t head = 0,
                                          std::uint64_t backlog = 0) {
    std::vector<health::NodeSample> out;
    for (NodeId i = 0; i < 4; ++i) out.push_back(node(i, decided, true, head, head - backlog));
    return out;
}

TimePoint at(std::int64_t s) { return TimePoint{0} + seconds(s); }

TEST(LivenessAuditor, NoDarkSpansYieldsOneFullWindow) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    ASSERT_EQ(audit.good_windows().size(), 1u);
    EXPECT_EQ(audit.good_windows()[0].first, Duration{0});
    EXPECT_EQ(audit.good_windows()[0].second, seconds(30));
}

TEST(LivenessAuditor, MoreThanFDarkNodesSplitsTheWindow) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    // Two nodes dark simultaneously in [10 s, 14 s): above f = 1, so no
    // quorum of correct-and-connected replicas exists there.
    audit.set_schedule({{1, seconds(10), seconds(14)}, {2, seconds(10), seconds(14)}}, {},
                       seconds(30));
    ASSERT_EQ(audit.good_windows().size(), 2u);
    EXPECT_EQ(audit.good_windows()[0], (std::pair<Duration, Duration>{Duration{0}, seconds(10)}));
    EXPECT_EQ(audit.good_windows()[1], (std::pair<Duration, Duration>{seconds(14), seconds(30)}));
}

TEST(LivenessAuditor, SingleDarkNodeKeepsTheWindowGood) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({{1, seconds(5), seconds(25)}}, {}, seconds(30));
    ASSERT_EQ(audit.good_windows().size(), 1u);  // f = 1 tolerates it
    EXPECT_EQ(audit.good_windows()[0].second, seconds(30));
}

TEST(LivenessAuditor, BackToBackSpansOfDifferentNodesDoNotDoubleCount) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    // Node 1 dark [5, 10), node 2 dark [10, 15): never more than one at a
    // time, so the whole horizon stays quorum-capable.
    audit.set_schedule({{1, seconds(5), seconds(10)}, {2, seconds(10), seconds(15)}}, {},
                       seconds(30));
    EXPECT_EQ(audit.good_windows().size(), 1u);
}

TEST(LivenessAuditor, FlagsAWindowWithNoOrderingProgress) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    // Samples every 2 s, decided frozen at 5 the whole time.
    for (int s = 0; s <= 30; s += 2) audit.observe(at(s), all_alive(5), 0);
    audit.finish(at(30));
    ASSERT_EQ(audit.report().violations.size(), 1u);
    EXPECT_EQ(audit.report().violations[0].kind, LivenessViolationKind::kNoOrderingProgress);
    EXPECT_FALSE(audit.report().clean());
}

TEST(LivenessAuditor, FlagsAStallHalfwayThroughOneWindow) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    // Ordering runs until 15 s, then freezes for the second half of the
    // one window: its first and last snapshots differ, the stall is real.
    for (int s = 0; s <= 30; ++s) {
        audit.observe(at(s), all_alive(static_cast<std::uint64_t>(std::min(s, 15))), 0);
    }
    audit.finish(at(30));
    ASSERT_EQ(audit.report().violations.size(), 1u);
    const LivenessViolation& v = audit.report().violations[0];
    EXPECT_EQ(v.kind, LivenessViolationKind::kNoOrderingProgress);
    EXPECT_EQ(v.from, seconds(15));  // the last advance
    EXPECT_EQ(v.to, seconds(30));    // the stall is open until the end
}

TEST(LivenessAuditor, AnIdleBusOwesNoProgress) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    // A depot layover: nothing arrives between 10 s and 20 s, so nothing
    // is ordered and nothing waits.
    for (int s = 0; s <= 30; ++s) {
        const auto decided = static_cast<std::uint64_t>(s < 10 ? s : (s < 20 ? 10 : s - 10));
        std::vector<health::NodeSample> nodes = all_alive(decided);
        for (health::NodeSample& n : nodes) n.open_requests = s >= 10 && s < 20 ? 0 : 1;
        audit.observe(at(s), nodes, 0);
    }
    audit.finish(at(30));
    EXPECT_TRUE(audit.report().clean()) << audit.report().json();
}

TEST(LivenessAuditor, OneFastReplicaIsNotAQuorumFrontier) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    // Node 1 keeps deciding alone; the other three stand still, so no
    // 2f+1 quorum ever reaches a new entry.
    for (int s = 0; s <= 30; s += 2) {
        std::vector<health::NodeSample> nodes = all_alive(13);
        nodes[1].decided = static_cast<std::uint64_t>(13 + s);
        audit.observe(at(s), nodes, 0);
    }
    audit.finish(at(30));
    ASSERT_EQ(audit.report().violations.size(), 1u);
    EXPECT_EQ(audit.report().violations[0].kind, LivenessViolationKind::kNoOrderingProgress);
}

TEST(LivenessAuditor, StallsAccrueOnlyQuorumCapableTime) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    // Nodes 1 and 2 dark in [10 s, 14 s): no quorum there. Decided stands
    // still from 8 s to 16 s: 2 s before the gap plus 1 s past the next
    // window's settle grace stay under min_window.
    audit.set_schedule({{1, seconds(10), seconds(14)}, {2, seconds(10), seconds(14)}}, {},
                       seconds(30));
    for (int s = 0; s <= 30; ++s) {
        const int decided = s < 8 ? s : (s < 16 ? 8 : s - 8);
        audit.observe(at(s), all_alive(static_cast<std::uint64_t>(decided)), 0);
    }
    audit.finish(at(30));
    EXPECT_TRUE(audit.report().clean()) << audit.report().json();
    EXPECT_EQ(audit.report().windows_checked, 2u);
}

TEST(LivenessAuditor, CleanWhenHeightAdvances) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    for (int s = 0; s <= 30; s += 2) {
        audit.observe(at(s), all_alive(static_cast<std::uint64_t>(5 + s)), 0);
    }
    audit.finish(at(30));
    EXPECT_TRUE(audit.report().clean());
    EXPECT_GT(audit.report().checks, 0u);
}

TEST(LivenessAuditor, ShortOrUnsampledWindowsAreNotJudged) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(3));  // shorter than settle + min_window
    audit.observe(at(1), all_alive(0), 0);
    audit.finish(at(3));
    EXPECT_TRUE(audit.report().clean());
    EXPECT_EQ(audit.report().windows_checked, 0u);

    // A long window with no samples inside it is skipped too.
    LivenessAuditor unsampled;
    unsampled.configure(quick_cfg());
    unsampled.set_schedule({}, {}, seconds(30));
    unsampled.finish(at(30));
    EXPECT_TRUE(unsampled.report().clean());
    EXPECT_EQ(unsampled.report().windows_checked, 0u);
}

TEST(LivenessAuditor, ExportStuckFiresOnlyWithReachableUplink) {
    LivenessConfig cfg = quick_cfg();
    cfg.check_exports = true;
    // Backlog present, uplink up the whole run, no export ever completes.
    LivenessAuditor audit;
    audit.configure(cfg);
    audit.set_schedule({}, {}, seconds(30));
    for (int s = 0; s <= 30; s += 2) {
        const auto decided = static_cast<std::uint64_t>(s + 1);
        audit.observe(at(s), all_alive(decided, decided + 8, 8), 0);
    }
    audit.finish(at(30));
    ASSERT_EQ(audit.report().violations.size(), 1u);
    EXPECT_EQ(audit.report().violations[0].kind, LivenessViolationKind::kExportStuck);

    // Same observations with the uplink dark the whole run: excused.
    LivenessAuditor excused;
    excused.configure(cfg);
    excused.set_schedule({}, {{Duration{0}, seconds(30)}}, seconds(30));
    for (int s = 0; s <= 30; s += 2) {
        const auto decided = static_cast<std::uint64_t>(s + 1);
        excused.observe(at(s), all_alive(decided, decided + 8, 8), 0);
    }
    excused.finish(at(30));
    EXPECT_TRUE(excused.report().clean());
}

TEST(LivenessAuditor, RejoinIncompleteFiresAfterTheBound) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({{3, seconds(2), seconds(6)}}, {}, seconds(30));
    // Node 3 down, restarts at 6 s, never catches up (head stays 1 while
    // the cluster reaches 40).
    for (int s = 0; s <= 30; s += 2) {
        const auto head = static_cast<std::uint64_t>(10 + s);
        std::vector<health::NodeSample> nodes = all_alive(head, head);
        nodes[3] = node(3, 1, /*alive=*/s >= 6, 1);
        audit.observe(at(s), nodes, 0);
    }
    audit.finish(at(30));
    bool rejoin_violation = false;
    for (const auto& v : audit.report().violations) {
        if (v.kind == LivenessViolationKind::kRejoinIncomplete) {
            rejoin_violation = true;
            EXPECT_EQ(v.node, 3u);
        }
    }
    EXPECT_TRUE(rejoin_violation);
}

TEST(LivenessAuditor, RejoinThatCatchesUpIsClean) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({{3, seconds(2), seconds(6)}}, {}, seconds(30));
    for (int s = 0; s <= 30; s += 2) {
        const std::uint64_t head = static_cast<std::uint64_t>(10 + s);
        std::vector<health::NodeSample> nodes = all_alive(head, head);
        if (s < 6) {
            nodes[3] = node(3, 1, false, 1);
        } else if (s < 10) {
            nodes[3] = node(3, head / 2, true, head / 2);  // catching up
        }  // from 10 s on it matches the cluster head
        audit.observe(at(s), nodes, 0);
    }
    audit.finish(at(30));
    EXPECT_TRUE(audit.report().clean());
}

TEST(LivenessAuditor, FinishIsIdempotentAndJsonIsStable) {
    LivenessAuditor audit;
    audit.configure(quick_cfg());
    audit.set_schedule({}, {}, seconds(30));
    for (int s = 0; s <= 30; s += 2) audit.observe(at(s), all_alive(5), 0);
    audit.finish(at(30));
    const std::string first = audit.report().json();
    audit.finish(at(30));
    EXPECT_EQ(audit.report().json(), first);
    EXPECT_NE(first.find("\"violations\":[{\"kind\":\"no_ordering_progress\""),
              std::string::npos);
    EXPECT_NE(first.find("\"node\":-1"), std::string::npos);
}

}  // namespace
}  // namespace zc::faults
