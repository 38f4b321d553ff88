// The per-consist fault plan (runtime/fault_plan.hpp). Up-front
// validation: a schedule that cannot mean what it says — more than f
// concurrent crashes, flapping a link of a node that is down, overlapping
// windows of the same link — must be rejected with a clear message before
// the run starts, not die on a mid-run assert. Plus the plan's merge and
// its lowering into down spans.
#include <gtest/gtest.h>

#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

using LinkFlap = ScenarioConfig::LinkFlap;

ScenarioConfig base_config() {
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(30);
    return cfg;
}

std::optional<std::string> validate_scenario(const ScenarioConfig& cfg) {
    return validate_faults(cfg, cfg.n, cfg.f);
}

bool mentions(const std::optional<std::string>& err, const char* needle) {
    return err.has_value() && err->find(needle) != std::string::npos;
}

TEST(ChaosValidation, AcceptsBudgetedSchedule) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(3)}};
    ScenarioConfig::LinkFlap flap;
    flap.at = seconds(12);
    flap.duration = seconds(4);
    cfg.link_flaps = {flap};
    cfg.rate_windows = {{seconds(20), seconds(5), 0.5}};
    EXPECT_EQ(validate_scenario(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsMoreThanFConcurrentCrashes) {
    ScenarioConfig cfg = base_config();
    // Node 1 down [5, 15), node 2 down [8, ...): two down at t=8 > f=1.
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 2, Duration::zero()}};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "crash schedule")) << err.value_or("(none)");
}

TEST(ChaosValidation, RestartAtCrashInstantStaysInsideBudget) {
    ScenarioConfig cfg = base_config();
    // Node 1's restart coincides with node 2's crash: [5,8) then [8,...).
    cfg.crash_schedule = {{seconds(5), 1, seconds(3)}, {seconds(8), 2, seconds(3)}};
    EXPECT_EQ(validate_scenario(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsCrashOfUnknownNode) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 9, seconds(3)}};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "n=4")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsCrashWhileAlreadyDown) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 1, seconds(2)}};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "already down")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsFlapIsolatingDownNode) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 2, Duration::zero()}};  // fail-stop
    LinkFlap flap;
    flap.at = seconds(10);
    flap.duration = seconds(5);
    flap.link = LinkFlap::Link::kNode;
    flap.node = 2;
    cfg.link_flaps = {flap};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "isolates node 2")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsOverlappingFlapsOfSameLink) {
    ScenarioConfig cfg = base_config();
    LinkFlap first;
    first.at = seconds(5);
    first.duration = seconds(10);
    LinkFlap second;
    second.at = seconds(12);  // inside [5, 15)
    second.duration = seconds(4);
    cfg.link_flaps = {first, second};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "overlap")) << err.value_or("(none)");
}

TEST(ChaosValidation, AcceptsBackToBackFlapsOfSameLink) {
    ScenarioConfig cfg = base_config();
    LinkFlap first;
    first.at = seconds(5);
    first.duration = seconds(7);
    LinkFlap second;
    second.at = seconds(12);  // starts exactly as the first closes
    second.duration = seconds(4);
    cfg.link_flaps = {first, second};
    EXPECT_EQ(validate_scenario(cfg), std::nullopt);
}

TEST(ChaosValidation, AcceptsOverlappingFlapsOfDifferentLinks) {
    ScenarioConfig cfg = base_config();
    LinkFlap lte;
    lte.at = seconds(5);
    lte.duration = seconds(10);
    LinkFlap node3;
    node3.at = seconds(8);
    node3.duration = seconds(4);
    node3.link = LinkFlap::Link::kNode;
    node3.node = 3;
    LinkFlap node2;
    node2.at = seconds(14);
    node2.duration = seconds(4);
    node2.link = LinkFlap::Link::kNode;
    node2.node = 2;
    cfg.link_flaps = {lte, node3, node2};
    EXPECT_EQ(validate_scenario(cfg), std::nullopt);
}

TEST(ChaosValidation, RejectsOverlappingRateWindows) {
    ScenarioConfig cfg = base_config();
    cfg.rate_windows = {{seconds(5), seconds(10), 0.5}, {seconds(12), seconds(5), 2.0}};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "rate windows overlap")) << err.value_or("(none)");
}

TEST(ChaosValidation, RejectsRestartOfUnknownNode) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1}};
    cfg.restart_schedule = {{seconds(9), 7}};
    const auto err = validate_scenario(cfg);
    EXPECT_TRUE(mentions(err, "restart at")) << err.value_or("(none)");
}

TEST(ChaosValidation, ScenarioConstructorSurfacesTheError) {
    ScenarioConfig cfg = base_config();
    cfg.crash_schedule = {{seconds(5), 1, seconds(10)}, {seconds(8), 2, Duration::zero()}};
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
    cfg.allow_unsafe_chaos = true;  // deliberate-majority harnesses opt out
    EXPECT_NO_THROW(Scenario{cfg});
}

TEST(FaultPlanMerge, AppendsInOrder) {
    FaultPlan a;
    a.crash_schedule = {{seconds(5), 1, seconds(3)}};
    a.restart_schedule = {{seconds(40), 2}};
    a.rate_windows = {{seconds(1), seconds(2), 0.5}};
    FaultPlan b;
    b.crash_schedule = {{seconds(20), 2}};
    LinkFlap flap;
    flap.at = seconds(12);
    b.link_flaps = {flap};
    b.egress_ramps.emplace_back();
    b.rate_windows = {{seconds(30), seconds(2), 2.0}};
    a.merge(b);
    ASSERT_EQ(a.crash_schedule.size(), 2u);
    EXPECT_EQ(a.crash_schedule[0].at, seconds(5)) << "the receiver's entries come first";
    EXPECT_EQ(a.crash_schedule[1].at, seconds(20));
    EXPECT_EQ(a.restart_schedule.size(), 1u);
    EXPECT_EQ(a.link_flaps.size(), 1u);
    EXPECT_EQ(a.egress_ramps.size(), 1u);
    ASSERT_EQ(a.rate_windows.size(), 2u);
    EXPECT_DOUBLE_EQ(a.rate_windows[1].cycle_scale, 2.0);
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlanMerge, LaterCpuProfileWins) {
    FaultPlan a;
    a.cpu_profiles = {{0, 6.0}, {1, 2.0}};
    FaultPlan b;
    b.cpu_profiles = {{1, 10.0}, {3, 4.0}};
    a.merge(b);
    EXPECT_EQ(a.cpu_profiles, (std::map<NodeId, double>{{0, 6.0}, {1, 10.0}, {3, 4.0}}));
}

TEST(FaultPlanDownSpans, RestartAfterClosesTheSpan) {
    FaultPlan plan;
    plan.crash_schedule = {{seconds(5), 1, seconds(3)}};
    const auto spans = plan.down_spans(seconds(60));
    ASSERT_EQ(spans.crashed.size(), 1u);
    EXPECT_EQ(spans.crashed[0].node, 1u);
    EXPECT_EQ(spans.crashed[0].from, seconds(5));
    EXPECT_EQ(spans.crashed[0].to, seconds(8));
    EXPECT_TRUE(spans.isolated.empty());
    EXPECT_TRUE(spans.uplink.empty());
}

TEST(FaultPlanDownSpans, ExplicitRestartPairsWithTheEarliestLaterOne) {
    FaultPlan plan;
    // Node 2 crashes twice; restarts listed out of order, plus one for a
    // different node and one before the first crash (never paired).
    plan.crash_schedule = {{seconds(10), 2}, {seconds(30), 2}};
    plan.restart_schedule = {{seconds(40), 2}, {seconds(5), 2}, {seconds(15), 3},
                             {seconds(20), 2}};
    const auto spans = plan.down_spans(seconds(60));
    ASSERT_EQ(spans.crashed.size(), 2u);
    EXPECT_EQ(spans.crashed[0].to, seconds(20));
    EXPECT_EQ(spans.crashed[1].to, seconds(40));
}

TEST(FaultPlanDownSpans, FailStopRunsToTheHorizon) {
    FaultPlan plan;
    plan.crash_schedule = {{seconds(4), 3}};
    const auto spans = plan.down_spans(seconds(25));
    ASSERT_EQ(spans.crashed.size(), 1u);
    EXPECT_EQ(spans.crashed[0].from, seconds(4));
    EXPECT_EQ(spans.crashed[0].to, seconds(25));
}

TEST(FaultPlanDownSpans, NodeFlapIsADarkSpanAndLteFlapAnUplinkSpan) {
    FaultPlan plan;
    LinkFlap lte;
    lte.at = seconds(6);
    lte.duration = seconds(10);
    LinkFlap gray;
    gray.at = seconds(12);
    gray.duration = seconds(3);
    gray.link = LinkFlap::Link::kNode;
    gray.node = 2;
    gray.asymmetric = true;  // outbound-only still silences the node's votes
    plan.link_flaps = {lte, gray};
    const auto spans = plan.down_spans(seconds(60));
    EXPECT_TRUE(spans.crashed.empty());
    ASSERT_EQ(spans.isolated.size(), 1u);
    EXPECT_EQ(spans.isolated[0].node, 2u);
    EXPECT_EQ(spans.isolated[0].from, seconds(12));
    EXPECT_EQ(spans.isolated[0].to, seconds(15));
    ASSERT_EQ(spans.uplink.size(), 1u);
    EXPECT_EQ(spans.uplink[0].from, seconds(6));
    EXPECT_EQ(spans.uplink[0].to, seconds(16));
}

}  // namespace
}  // namespace zc::runtime
