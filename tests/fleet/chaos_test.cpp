#include <gtest/gtest.h>

#include "fleet/chaos.hpp"
#include "fleet/fleet.hpp"

namespace zc::fleet {
namespace {

using LinkFlap = runtime::FaultPlan::LinkFlap;

TEST(FleetFaults, MergeAppendsPerTrainAndOutages) {
    FleetFaults a = staggered_drill(4, 2, seconds(30));
    const FleetFaults b = staggered_drill(4, 2, seconds(30));
    const std::size_t crashes0 = a.trains[0].crash_schedule.size();
    a.merge(b);
    EXPECT_EQ(a.trains[0].crash_schedule.size(), 2 * crashes0);
    EXPECT_EQ(a.dc_outages.size(), 2u);
}

TEST(FleetFaults, FleetRejectsAFaultPlanInTheTemplate) {
    // Per-train faults belong in FleetConfig::faults; a template schedule
    // used to be dropped silently.
    FleetConfig cfg;
    cfg.trains = 2;
    cfg.train.crash_schedule.emplace_back(seconds(4), 1);
    EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
}

TEST(FleetFaults, FleetRejectsDeadZoneOverlappingATunnel) {
    FleetConfig cfg;
    cfg.trains = 3;
    cfg.faults = staggered_drill(3, 2, cfg.warmup + cfg.duration);
    const LinkFlap zone = cfg.faults.trains.at(0).link_flaps.at(0);
    FleetFaults journey;  // a tunnel that starts inside the drill's dead zone
    LinkFlap tunnel;
    tunnel.link = LinkFlap::Link::kLte;
    tunnel.at = zone.at + seconds(1);
    tunnel.duration = seconds(5);
    journey.trains[0].link_flaps.push_back(tunnel);
    cfg.faults.merge(journey);
    try {
        Fleet fleet(cfg);
        FAIL() << "overlapping uplink flaps of one train must be rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos) << e.what();
    }
}

TEST(FleetFaults, FleetRejectsIdsOutOfRange) {
    FleetConfig cfg;
    cfg.trains = 2;
    cfg.dc_count = 2;
    FleetConfig bad_train = cfg;
    bad_train.faults.trains[2].crash_schedule.emplace_back(seconds(4), 1, seconds(2));
    EXPECT_THROW(Fleet{bad_train}, std::invalid_argument);
    FleetConfig bad_node = cfg;
    bad_node.faults.trains[1].crash_schedule.emplace_back(seconds(4), 7, seconds(2));
    EXPECT_THROW(Fleet{bad_node}, std::invalid_argument);
    FleetConfig bad_dc = cfg;
    bad_dc.faults.dc_outages.push_back({2, seconds(4), seconds(2)});
    EXPECT_THROW(Fleet{bad_dc}, std::invalid_argument);
}

/// The drill's crashes, flattened as (train, entry) in train order.
std::vector<std::pair<TrainId, runtime::FaultPlan::CrashEntry>> crashes_of(
    const FleetFaults& faults) {
    std::vector<std::pair<TrainId, runtime::FaultPlan::CrashEntry>> out;
    for (const auto& [t, plan] : faults.trains) {
        for (const auto& c : plan.crash_schedule) out.emplace_back(t, c);
    }
    return out;
}

TEST(StaggeredDrill, StaggeredCrashesAllRestartWithinRun) {
    const Duration run = seconds(40);
    const FleetFaults drill = staggered_drill(8, 2, run);
    const auto crashes = crashes_of(drill);
    ASSERT_FALSE(crashes.empty());
    for (const auto& [train, c] : crashes) {
        EXPECT_LT(train, 8u);
        EXPECT_LT(c.node, 4u);
        EXPECT_GT(c.restart_after, Duration::zero()) << "standard drill always restarts";
        EXPECT_LT(c.at + c.restart_after, run) << "rejoin must fit inside the run";
    }
}

TEST(StaggeredDrill, StaggeredCrashTimesAreDistinct) {
    const auto crashes = crashes_of(staggered_drill(16, 2, seconds(60)));
    for (std::size_t i = 1; i < crashes.size(); ++i) {
        EXPECT_LT(crashes[i - 1].second.at, crashes[i].second.at);
    }
}

TEST(StaggeredDrill, DeadZonesCoverEveryThirdTrain) {
    const FleetFaults drill = staggered_drill(9, 1, seconds(30));
    std::vector<TrainId> dark;
    for (const auto& [t, plan] : drill.trains) {
        for (const auto& flap : plan.link_flaps) {
            EXPECT_EQ(flap.link, LinkFlap::Link::kLte) << "a dead zone is an uplink flap";
            EXPECT_GT(flap.duration, Duration::zero());
            EXPECT_LT(flap.at + flap.duration, seconds(30));
            dark.push_back(t);
        }
    }
    EXPECT_EQ(dark, (std::vector<TrainId>{0, 3, 6}));
}

TEST(StaggeredDrill, DcOutageOnlyWithFailoverTarget) {
    EXPECT_TRUE(staggered_drill(4, 1, seconds(30)).dc_outages.empty());
    const FleetFaults drill = staggered_drill(4, 2, seconds(30));
    ASSERT_EQ(drill.dc_outages.size(), 1u);
    EXPECT_EQ(drill.dc_outages[0].dc, 0u);
    EXPECT_GT(drill.dc_outages[0].duration, Duration::zero()) << "standard drill recovers";
}

TEST(StaggeredDrill, DeterministicForSameInputs) {
    const auto a = crashes_of(staggered_drill(12, 2, seconds(45)));
    const auto b = crashes_of(staggered_drill(12, 2, seconds(45)));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].second.node, b[i].second.node);
        EXPECT_EQ(a[i].second.at, b[i].second.at);
    }
}

TEST(StaggeredDrill, EveryTrainPlanPassesTheValidator) {
    const FleetFaults drill = staggered_drill(16, 2, seconds(27));
    for (const auto& [t, plan] : drill.trains) {
        EXPECT_EQ(runtime::validate_faults(plan, 4, 1), std::nullopt) << "train " << t;
    }
}

// -- gray chaos compiler ----------------------------------------------------

GrayChaosOptions gray_defaults() {
    GrayChaosOptions opts;
    opts.n = 4;
    opts.f = 1;
    opts.trains = 1;
    opts.seed = 42;
    opts.warmup = seconds(2);
    opts.horizon = seconds(62);
    return opts;
}

TEST(GrayChaos, LimpingVictimIsTheViewZeroPrimary) {
    GrayChaosOptions opts = gray_defaults();
    opts.flapping = 0;
    opts.creeps = 0;
    const CompiledGray gray = compile_gray(opts);
    ASSERT_EQ(gray.faults.trains.size(), 1u);
    const runtime::FaultPlan& plan = gray.faults.trains.at(0);
    ASSERT_EQ(plan.cpu_profiles.size(), 1u);
    EXPECT_EQ(plan.cpu_profiles.begin()->first, 0u);
    EXPECT_DOUBLE_EQ(plan.cpu_profiles.begin()->second, opts.limp_factor);
    ASSERT_EQ(gray.instances.size(), 1u);
    EXPECT_EQ(gray.instances[0].kind, GrayKind::kLimpingNode);
}

TEST(GrayChaos, FlapsAreAsymmetricAndInsideTheActiveWindow) {
    GrayChaosOptions opts = gray_defaults();
    opts.limping = 0;
    opts.creeps = 0;
    const CompiledGray gray = compile_gray(opts);
    ASSERT_FALSE(gray.faults.trains.at(0).link_flaps.empty());
    for (const auto& flap : gray.faults.trains.at(0).link_flaps) {
        EXPECT_TRUE(flap.asymmetric);
        EXPECT_EQ(flap.link, LinkFlap::Link::kNode);
        EXPECT_GE(flap.at, opts.warmup + seconds(2));
        EXPECT_LE(flap.at + flap.duration, opts.horizon - seconds(2));
    }
}

TEST(GrayChaos, VictimsNeverLandOnByzantineNodes) {
    GrayChaosOptions opts = gray_defaults();
    opts.byzantine[0] = {0, 1};
    const runtime::FaultPlan plan = compile_gray(opts).faults.trains.at(0);
    for (const auto& [node, factor] : plan.cpu_profiles) {
        EXPECT_GE(node, 2u) << "limping victim must dodge the Byzantine set";
    }
    for (const auto& flap : plan.link_flaps) EXPECT_GE(flap.node, 2u);
    for (const auto& ramp : plan.egress_ramps) EXPECT_GE(ramp.node, 2u);
}

TEST(GrayChaos, AvoidSpansSuppressOverlappingFlaps) {
    GrayChaosOptions opts = gray_defaults();
    opts.limping = 0;
    const runtime::FaultPlan unconstrained = compile_gray(opts).faults.trains.at(0);
    ASSERT_FALSE(unconstrained.link_flaps.empty());
    ASSERT_FALSE(unconstrained.egress_ramps.empty());
    const NodeId victim = unconstrained.link_flaps.front().node;
    const NodeId creeper = unconstrained.egress_ramps.front().node;

    // A base plan that holds the flap victim down for the whole horizon
    // (fail-stop) and partitions the creep victim: same seed, so placement
    // would match, but every flap and ramp on those nodes is suppressed.
    FleetFaults base;
    base.trains[0].crash_schedule.emplace_back(Duration{0}, victim);
    LinkFlap cut;
    cut.link = LinkFlap::Link::kNode;
    cut.node = creeper;
    cut.at = Duration{0};
    cut.duration = opts.horizon;
    base.trains[0].link_flaps.push_back(cut);
    const runtime::FaultPlan gray = compile_gray(opts, base).faults.trains.at(0);
    for (const auto& flap : gray.link_flaps) EXPECT_NE(flap.node, victim);
    for (const auto& ramp : gray.egress_ramps) EXPECT_NE(ramp.node, creeper);
}

TEST(GrayChaos, ClearsTheStaggeredDrillOnEverySeed) {
    // The composition zugchain_sim runs for --fleet 8 --fleet-chaos
    // --gray mixed --duration-s 25: without the base plan the flaps land
    // on drill-crashed nodes on most seeds.
    FleetConfig cfg;
    cfg.trains = 8;
    cfg.duration = seconds(25);
    const Duration run = cfg.warmup + cfg.duration;
    const FleetFaults drill = staggered_drill(8, 2, run);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        GrayChaosOptions opts = gray_defaults();
        opts.trains = 8;
        opts.seed = seed;
        opts.warmup = cfg.warmup;
        opts.horizon = run;
        FleetFaults merged = drill;
        merged.merge(compile_gray(opts, drill).faults);
        cfg.seed = seed;
        cfg.faults = merged;
        EXPECT_NO_THROW(Fleet{cfg}) << "seed " << seed;
        for (const auto& [t, plan] : merged.trains) {
            const auto spans = plan.down_spans(run);
            for (const auto& flap : plan.link_flaps) {
                if (flap.link != LinkFlap::Link::kNode) continue;
                for (const auto& down : spans.crashed) {
                    EXPECT_FALSE(down.node == flap.node && down.from < flap.at + flap.duration &&
                                 flap.at < down.to)
                        << "seed " << seed << " train " << t << ": flap on crashed node "
                        << flap.node;
                }
            }
            EXPECT_EQ(runtime::validate_faults(plan, opts.n, opts.f), std::nullopt)
                << "seed " << seed << " train " << t;
        }
    }
}

TEST(GrayChaos, DeterministicInSeedAndSensitiveToIt) {
    const CompiledGray a = compile_gray(gray_defaults());
    const CompiledGray b = compile_gray(gray_defaults());
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
        EXPECT_EQ(a.instances[i].at, b.instances[i].at);
        EXPECT_EQ(a.instances[i].node, b.instances[i].node);
    }

    GrayChaosOptions other = gray_defaults();
    other.seed = 43;
    const CompiledGray c = compile_gray(other);
    bool any_difference = false;
    for (std::size_t i = 0; i < std::min(a.instances.size(), c.instances.size()); ++i) {
        if (a.instances[i].at != c.instances[i].at) any_difference = true;
    }
    EXPECT_TRUE(any_difference) << "different seeds should place gray faults differently";
}

TEST(GrayChaos, ApplyToScenarioAppendsInsteadOfOverwriting) {
    const CompiledGray gray = compile_gray(gray_defaults());
    const runtime::FaultPlan& plan = gray.faults.trains.at(0);
    runtime::ScenarioConfig cfg;
    LinkFlap existing;
    existing.at = seconds(1);
    existing.duration = seconds(1);
    existing.link = LinkFlap::Link::kLte;
    cfg.link_flaps.push_back(existing);
    cfg.merge(plan);
    EXPECT_EQ(cfg.link_flaps.size(), 1u + plan.link_flaps.size());
    EXPECT_EQ(cfg.link_flaps.front().link, LinkFlap::Link::kLte);
    EXPECT_EQ(cfg.egress_ramps.size(), plan.egress_ramps.size());
    EXPECT_EQ(cfg.cpu_profiles.size(), plan.cpu_profiles.size());
}

TEST(GrayChaos, MergeIntoFleetFaultsAppendsPerTrain) {
    GrayChaosOptions opts = gray_defaults();
    opts.trains = 3;
    const CompiledGray gray = compile_gray(opts);
    FleetFaults faults = staggered_drill(3, 2, opts.horizon);
    const std::size_t drill_flaps = faults.trains[0].link_flaps.size();
    faults.merge(gray.faults);
    EXPECT_EQ(faults.trains.size(), 3u);
    for (TrainId t = 0; t < 3; ++t) {
        const runtime::FaultPlan& g = gray.faults.trains.at(t);
        EXPECT_EQ(faults.trains[t].link_flaps.size(),
                  (t == 0 ? drill_flaps : 0u) + g.link_flaps.size());
        EXPECT_EQ(faults.trains[t].cpu_profiles.size(), g.cpu_profiles.size());
    }
}

TEST(GrayChaos, RejectsDegenerateWindows) {
    GrayChaosOptions opts = gray_defaults();
    opts.horizon = opts.warmup;  // no room after margins
    EXPECT_THROW(compile_gray(opts), std::invalid_argument);
    GrayChaosOptions zero = gray_defaults();
    zero.n = 0;
    EXPECT_THROW(compile_gray(zero), std::invalid_argument);
}

TEST(FleetLiveness, EveryTrainIsJudgedAndOnlyTheStalledOneFails) {
    // Train 1 limps on every node under the fixed timers (the CLI's
    // `--gray consist --fixed-timeouts`): every view thrashes and
    // ordering freezes. Train 0 runs clean beside it.
    FleetConfig cfg;
    cfg.trains = 2;
    cfg.dc_count = 0;
    cfg.duration = seconds(30);
    cfg.audit = true;
    GrayChaosOptions go;
    go.trains = 2;
    go.horizon = cfg.warmup + cfg.duration;
    go.warmup = cfg.warmup;
    go.limping = go.n;
    go.limp_factor = 10.0;
    go.flapping = 0;
    go.creeps = 0;
    cfg.faults.trains[1] = compile_gray(go).faults.trains.at(1);

    Fleet fleet(cfg);
    fleet.run();
    ASSERT_NE(fleet.liveness(0), nullptr);
    ASSERT_NE(fleet.liveness(1), nullptr);
    EXPECT_TRUE(fleet.liveness(0)->report().clean()) << fleet.liveness(0)->report().json();
    const auto& stalled = fleet.liveness(1)->report().violations;
    ASSERT_FALSE(stalled.empty());
    EXPECT_EQ(stalled[0].kind, faults::LivenessViolationKind::kNoOrderingProgress);

    const FleetReport report = fleet.report();
    EXPECT_EQ(report.per_train[0].liveness_violations, 0u);
    EXPECT_EQ(report.per_train[1].liveness_violations, stalled.size());
    EXPECT_EQ(report.liveness_violations, stalled.size());
    EXPECT_EQ(report.audit_violations, 0u);
}

TEST(FleetLiveness, WithoutAuditOrATemplateJudgeNoTrainIsJudged) {
    FleetConfig cfg;
    cfg.trains = 2;
    cfg.dc_count = 0;
    cfg.duration = seconds(1);
    Fleet fleet(cfg);
    EXPECT_EQ(fleet.liveness(0), nullptr);
    EXPECT_EQ(fleet.liveness(1), nullptr);
}

}  // namespace
}  // namespace zc::fleet
