// Soak harness integration tests (SLOW): a compounded-chaos soak over a
// compressed multi-"day" horizon must finish clean (exit 0 — audits,
// alarms and the bounded-memory plateau all quiet) and the same seed
// must reproduce the JSON report byte for byte, single-consist and
// fleet.
#include <gtest/gtest.h>

#include "journey/soak.hpp"

namespace zc::journey {
namespace {

SoakOptions quick_single() {
    SoakOptions so;
    so.base.seed = 1;
    so.base.bus_cycle = milliseconds(512);
    so.base.payload_size = 256;
    so.dc_count = 2;
    so.journey_seed = 7;
    so.recipes = 3;
    // Two compressed half-hour "days" inside a one-hour horizon.
    so.journey.day_length = seconds(1800);
    so.journey.service_length = seconds(1350);
    so.horizon = seconds(3600);
    so.segment = seconds(600);
    so.export_period = seconds(90);
    return so;
}

TEST(SoakHarness, SingleConsistSoakFinishesClean) {
    const SoakReport rep = run_soak(quick_single());
    EXPECT_EQ(rep.exit_code(), 0) << rep.summary();
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.segments.size(), 6u);
    EXPECT_FALSE(rep.recipes.empty()) << "journey seed 7 should place recipes";
    EXPECT_GT(rep.telegrams_per_day, 0.0);
    EXPECT_GT(rep.logged_total, 0u);
    EXPECT_GT(rep.mem_plateau_mb, 0.0);
    // Segment counters are cumulative and must be monotone.
    for (std::size_t i = 1; i < rep.segments.size(); ++i) {
        EXPECT_GE(rep.segments[i].telegrams, rep.segments[i - 1].telegrams);
        EXPECT_GE(rep.segments[i].logged, rep.segments[i - 1].logged);
    }
}

TEST(SoakHarness, SameSeedSoakReportsAreByteIdentical) {
    const std::string a = run_soak(quick_single()).json();
    const std::string b = run_soak(quick_single()).json();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"violations\":[]"), std::string::npos) << a;
}

TEST(SoakHarness, FleetSoakFinishesCleanAndDeterministic) {
    SoakOptions so = quick_single();
    so.trains = 2;
    so.base.bus_cycle = milliseconds(1024);
    so.horizon = seconds(1800);
    so.journey.day_length = seconds(900);
    so.journey.service_length = seconds(675);
    so.segment = seconds(450);

    const SoakReport rep = run_soak(so);
    EXPECT_EQ(rep.exit_code(), 0) << rep.summary();
    EXPECT_EQ(rep.segments.size(), 4u);
    EXPECT_GT(rep.logged_total, 0u);
    EXPECT_EQ(rep.json(), run_soak(so).json());
}

TEST(SoakHarness, RejectsNonsenseOptions) {
    SoakOptions so = quick_single();
    so.segment = so.horizon + seconds(1);
    EXPECT_THROW(run_soak(so), std::invalid_argument);
    so = quick_single();
    so.horizon = Duration::zero();
    EXPECT_THROW(run_soak(so), std::invalid_argument);
}

}  // namespace
}  // namespace zc::journey
