#include <gtest/gtest.h>

#include "pbft/adaptive.hpp"

namespace zc::pbft {
namespace {

AdaptiveTimeoutConfig enabled_cfg() {
    AdaptiveTimeoutConfig cfg;
    cfg.enabled = true;
    return cfg;
}

TEST(AdaptiveTimeout, DisabledReproducesLegacyFixedScheduleExactly) {
    AdaptiveTimeout t(AdaptiveTimeoutConfig{}, milliseconds(250));
    // Samples must not change anything while disabled.
    t.observe(milliseconds(5));
    t.observe(milliseconds(7));
    EXPECT_EQ(t.base(), milliseconds(250));
    for (std::uint32_t attempts = 0; attempts <= 10; ++attempts) {
        const int exponent = static_cast<int>(std::min<std::uint32_t>(attempts, 6));
        EXPECT_EQ(t.with_backoff(attempts), milliseconds(250) * (1ll << exponent));
    }
}

TEST(AdaptiveTimeout, NoSamplesFallsBackToFixed) {
    AdaptiveTimeout t(enabled_cfg(), milliseconds(250));
    EXPECT_EQ(t.base(), milliseconds(250));
    EXPECT_EQ(t.with_backoff(2), milliseconds(1000));
}

TEST(AdaptiveTimeout, FirstSampleSeedsSrttAndHalfVariance) {
    AdaptiveTimeout t(enabled_cfg(), milliseconds(250));
    t.observe(milliseconds(8));
    EXPECT_EQ(t.srtt(), milliseconds(8));
    EXPECT_EQ(t.rttvar(), milliseconds(4));
    // rto = 8 + 4*4 = 24 ms, scaled by rtt_factor 4 = 96 ms, clamped to
    // the 100 ms floor.
    EXPECT_EQ(t.base(), milliseconds(100));
}

TEST(AdaptiveTimeout, TracksRisingRttsAndStaysAboveThem) {
    AdaptiveTimeout t(enabled_cfg(), milliseconds(250));
    // A cluster-wide slowdown: RTTs drift from 20 ms to 2 s. The adaptive
    // base must follow and end up comfortably above the observed RTT —
    // while the fixed 250 ms schedule would sit below it (thrash).
    for (int i = 0; i <= 100; ++i) {
        t.observe(milliseconds(20 + i * 20));  // up to ~2 s
    }
    EXPECT_GT(t.base(), milliseconds(1500));
    EXPECT_LE(t.base(), seconds(60));
}

TEST(AdaptiveTimeout, BackoffDoublesAndCaps) {
    AdaptiveTimeout t(enabled_cfg(), milliseconds(250));
    t.observe(milliseconds(100));
    const Duration base = t.base();  // (100 + 4 * 50) ms * 4 = 1.2 s
    EXPECT_EQ(base, milliseconds(1200));
    EXPECT_EQ(t.with_backoff(0), base);
    EXPECT_EQ(t.with_backoff(1), base * 2);
    // Large attempt counts clamp at the cap (exponent capped at 6, and
    // 1.2 s * 64 exceeds kAdaptiveCap).
    EXPECT_EQ(t.with_backoff(5), base * 32);
    EXPECT_EQ(t.with_backoff(6), kAdaptiveCap);
    EXPECT_EQ(t.with_backoff(60), kAdaptiveCap);
}

TEST(AdaptiveTimeout, VarianceWidensTheBudget) {
    AdaptiveTimeout steady(enabled_cfg(), milliseconds(250));
    AdaptiveTimeout jumpy(enabled_cfg(), milliseconds(250));
    for (int i = 0; i < 50; ++i) {
        steady.observe(milliseconds(100));
        jumpy.observe(milliseconds(i % 2 == 0 ? 40 : 160));  // same mean
    }
    EXPECT_GT(jumpy.base(), steady.base());
}

TEST(AdaptiveTimeout, IntegerPathIsDeterministic) {
    AdaptiveTimeout a(enabled_cfg(), milliseconds(250));
    AdaptiveTimeout b(enabled_cfg(), milliseconds(250));
    for (int i = 0; i < 1000; ++i) {
        const Duration s = microseconds(500 + (i * 7919) % 3000);
        a.observe(s);
        b.observe(s);
    }
    EXPECT_EQ(a.base(), b.base());
    EXPECT_EQ(a.srtt(), b.srtt());
    EXPECT_EQ(a.rttvar(), b.rttvar());
}

}  // namespace
}  // namespace zc::pbft
