// Journey generator + chaos compiler unit tests: determinism, plan
// structure invariants, config validation, and the availability-budget
// guarantee of compiled recipes.
#include <gtest/gtest.h>

#include "journey/compiler.hpp"
#include "journey/journey.hpp"
#include "runtime/scenario.hpp"

namespace zc::journey {
namespace {

JourneyConfig small_config() {
    JourneyConfig jc;
    jc.seed = 42;
    jc.trains = 3;
    jc.days = 2;
    jc.nodes = 4;
    // Compressed days keep the unit test fast while exercising every
    // phase: service bursts, tunnels, the depot layover.
    jc.day_length = seconds(3600);
    jc.service_length = seconds(2700);
    return jc;
}

TEST(Journey, SameConfigSamePlan) {
    const JourneyPlan a = generate(small_config());
    const JourneyPlan b = generate(small_config());
    ASSERT_EQ(a.trains.size(), b.trains.size());
    EXPECT_EQ(a.summary(), b.summary());
    for (std::size_t t = 0; t < a.trains.size(); ++t) {
        const TrainPlan& ta = a.trains[t];
        const TrainPlan& tb = b.trains[t];
        ASSERT_EQ(ta.segments.size(), tb.segments.size());
        for (std::size_t i = 0; i < ta.segments.size(); ++i) {
            EXPECT_EQ(ta.segments[i].kind, tb.segments[i].kind);
            EXPECT_EQ(ta.segments[i].at, tb.segments[i].at);
            EXPECT_EQ(ta.segments[i].duration, tb.segments[i].duration);
        }
        EXPECT_EQ(ta.cpu_profiles, tb.cpu_profiles);
    }
}

TEST(Journey, SeedChangesThePlan) {
    JourneyConfig other = small_config();
    other.seed = 43;
    EXPECT_NE(generate(small_config()).summary(), generate(other).summary());
}

TEST(Journey, PlanStructureInvariants) {
    const JourneyConfig jc = small_config();
    const JourneyPlan plan = generate(jc);
    ASSERT_EQ(plan.trains.size(), jc.trains);
    EXPECT_EQ(plan.horizon, jc.day_length * jc.days);

    for (const TrainPlan& tp : plan.trains) {
        ASSERT_FALSE(tp.segments.empty());
        Duration prev_end{0};
        std::uint64_t stations = 0, tunnels = 0, depots = 0;
        for (const Segment& seg : tp.segments) {
            EXPECT_GE(seg.at, prev_end) << "segments overlap";
            EXPECT_GT(seg.duration, Duration::zero());
            EXPECT_LE(seg.at + seg.duration, plan.horizon);
            prev_end = seg.at + seg.duration;
            switch (seg.kind) {
                case SegmentKind::kStation:
                    stations++;
                    EXPECT_GE(seg.duration, kDwellMin);
                    EXPECT_LE(seg.duration, kDwellMax);
                    break;
                case SegmentKind::kTunnel:
                    tunnels++;
                    EXPECT_GE(seg.duration, kTunnelMin);
                    EXPECT_LE(seg.duration, kTunnelMax);
                    break;
                case SegmentKind::kDepot: depots++; break;
                case SegmentKind::kCruise: break;
            }
        }
        EXPECT_EQ(stations, tp.stations);
        EXPECT_EQ(tunnels, tp.tunnels);
        EXPECT_EQ(depots, jc.days) << "one depot layover per day";
        EXPECT_GT(stations, 0u);

        for (const auto& [node, factor] : tp.cpu_profiles) {
            EXPECT_LT(node, jc.nodes);
            EXPECT_GE(factor, kDegradedMin);
            EXPECT_LE(factor, kDegradedMax);
        }
    }
}

TEST(Journey, RejectsNonsenseConfig) {
    JourneyConfig jc = small_config();
    jc.trains = 0;
    EXPECT_THROW(generate(jc), std::invalid_argument);

    jc = small_config();
    jc.service_length = jc.day_length + seconds(1);
    EXPECT_THROW(generate(jc), std::invalid_argument);
}

TEST(JourneyCompiler, CompileIsDeterministic) {
    const JourneyPlan plan = generate(small_config());
    CompilerOptions opts;
    opts.fleet = true;
    opts.recipes = 3;
    const CompiledJourney a = compile(plan, opts);
    const CompiledJourney b = compile(plan, opts);
    EXPECT_EQ(a.summary(), b.summary());
    ASSERT_EQ(a.recipes.size(), b.recipes.size());
    for (std::size_t i = 0; i < a.recipes.size(); ++i) {
        EXPECT_EQ(a.recipes[i].describe(), b.recipes[i].describe());
    }
}

TEST(JourneyCompiler, CompiledSingleConsistScheduleValidates) {
    JourneyConfig jc = small_config();
    jc.trains = 1;
    const JourneyPlan plan = generate(jc);
    CompilerOptions opts;
    opts.recipes = 3;
    const CompiledJourney compiled = compile(plan, opts);
    ASSERT_EQ(compiled.faults.trains.size(), 1u);
    EXPECT_TRUE(compiled.faults.dc_outages.empty()) << "single mode folds DC outages";

    runtime::ScenarioConfig cfg;
    cfg.n = opts.n;
    cfg.f = opts.f;
    cfg.merge(compiled.faults.trains.at(0));
    EXPECT_EQ(runtime::validate_faults(cfg, cfg.n, cfg.f), std::nullopt);
    EXPECT_FALSE(cfg.rate_windows.empty()) << "dwell/depot windows installed";
    EXPECT_FALSE(cfg.link_flaps.empty()) << "tunnel dead zones installed";
}

TEST(JourneyCompiler, CompiledFleetSchedulesValidatePerTrain) {
    const JourneyPlan plan = generate(small_config());
    CompilerOptions opts;
    opts.fleet = true;
    opts.recipes = 6;  // two full cycles across three trains
    const CompiledJourney compiled = compile(plan, opts);
    ASSERT_EQ(compiled.faults.trains.size(), plan.trains.size());
    for (const auto& outage : compiled.faults.dc_outages) {
        EXPECT_LT(outage.dc, opts.dc_count);
        EXPECT_GT(outage.duration, Duration::zero());
    }
    for (const auto& [train, train_plan] : compiled.faults.trains) {
        EXPECT_EQ(runtime::validate_faults(train_plan, opts.n, opts.f), std::nullopt)
            << "train " << train;
    }
}

TEST(JourneyCompiler, ByzantinePopulationConsumesTheCrashBudget) {
    JourneyConfig jc = small_config();
    jc.trains = 1;
    const JourneyPlan plan = generate(jc);
    CompilerOptions opts;
    opts.recipes = 6;
    opts.byzantine[0] = {3};  // one Byzantine node on a 4-node f=1 shard
    const CompiledJourney compiled = compile(plan, opts);

    // With the budget consumed, no crash recipe may be placed: every
    // surviving recipe is the crash-free DC-outage kind, and the overlay
    // carries no crash schedule at all.
    for (const RecipeInstance& r : compiled.recipes) {
        EXPECT_EQ(r.kind, RecipeKind::kDcOutageOverDeadZone) << r.describe();
    }
    ASSERT_EQ(compiled.faults.trains.size(), 1u);
    EXPECT_TRUE(compiled.faults.trains.at(0).crash_schedule.empty());
}

}  // namespace
}  // namespace zc::journey
