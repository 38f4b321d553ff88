#include <gtest/gtest.h>

#include "train/generator.hpp"

namespace zc::train {
namespace {

constexpr std::size_t kPayload = 256;

TEST(SignalGenerator, ProducesDecodablePayloadOfRequestedSize) {
    SignalGenerator gen(kPayload, Rng(1));
    const Bytes payload = gen.payload_for_cycle(0, TimePoint{0});
    EXPECT_NEAR(static_cast<double>(payload.size()), 256.0, 8.0);
    const auto content = codec::try_decode<TelegramContent>(payload);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(content->cycle, 0u);
    EXPECT_EQ(content->signals.size(), 9u);
}

TEST(SignalGenerator, CycleAndTimestampAdvance) {
    SignalGenerator gen(kPayload, Rng(2));
    const Bytes p0 = gen.payload_for_cycle(0, milliseconds(0));
    const Bytes p1 = gen.payload_for_cycle(1, milliseconds(64));
    const auto c0 = codec::try_decode<TelegramContent>(p0);
    const auto c1 = codec::try_decode<TelegramContent>(p1);
    EXPECT_EQ(c0->cycle, 0u);
    EXPECT_EQ(c1->cycle, 1u);
    EXPECT_LT(c0->timestamp_ns, c1->timestamp_ns);
}

TEST(SignalGenerator, TrainEventuallyMoves) {
    SignalGenerator gen(kPayload, Rng(3));
    TimePoint t{0};
    for (int i = 0; i < 1000; ++i) {
        gen.payload_for_cycle(static_cast<std::uint64_t>(i), t);
        t += milliseconds(64);
    }
    EXPECT_GT(gen.speed_kmh(), 0.0);
}

TEST(SignalGenerator, SpeedStaysWithinLimits) {
    SignalGenerator gen(kPayload, Rng(4));
    TimePoint t{0};
    for (int i = 0; i < 20000; ++i) {
        gen.payload_for_cycle(static_cast<std::uint64_t>(i), t);
        t += milliseconds(64);
        EXPECT_GE(gen.speed_kmh(), 0.0);
        EXPECT_LE(gen.speed_kmh(), 160.0 + 1e-9);
    }
}

TEST(SignalGenerator, OdometerMonotonic) {
    SignalGenerator gen(kPayload, Rng(5));
    TimePoint t{0};
    std::int64_t last_odo = -1;
    for (int i = 0; i < 5000; ++i) {
        gen.payload_for_cycle(static_cast<std::uint64_t>(i), t);
        t += milliseconds(64);
        const auto& content = gen.last_content();
        for (const Signal& s : content.signals) {
            if (s.kind == SignalKind::kOdometer) {
                EXPECT_GE(s.value, last_odo);
                last_odo = s.value;
            }
        }
    }
    EXPECT_GT(last_odo, 0);
}

TEST(SignalGenerator, DoorsOnlyOpenWhenStopped) {
    SignalGenerator gen(kPayload, Rng(6));
    TimePoint t{0};
    bool opened = false;  // 20,000 cycles reach several station stops
    for (int i = 0; i < 20000; ++i) {
        gen.payload_for_cycle(static_cast<std::uint64_t>(i), t);
        t += milliseconds(64);
        std::int64_t doors = 0, speed = 0;
        for (const Signal& s : gen.last_content().signals) {
            if (s.kind == SignalKind::kDoorState) doors = s.value;
            if (s.kind == SignalKind::kSpeed) speed = s.value;
        }
        if (doors != 0) {
            opened = true;
            EXPECT_EQ(speed, 0) << "doors open while moving at cycle " << i;
        }
    }
    EXPECT_TRUE(opened);
}

TEST(SignalGenerator, DeterministicForSameSeed) {
    SignalGenerator a(kPayload, Rng(7));
    SignalGenerator b(kPayload, Rng(7));
    TimePoint t{0};
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.payload_for_cycle(static_cast<std::uint64_t>(i), t),
                  b.payload_for_cycle(static_cast<std::uint64_t>(i), t));
        t += milliseconds(64);
    }
}

TEST(SignalGenerator, UnpaddedWhenTargetSmall) {
    SignalGenerator gen(0, Rng(8));
    const Bytes payload = gen.payload_for_cycle(0, TimePoint{0});
    const auto content = codec::try_decode<TelegramContent>(payload);
    ASSERT_TRUE(content.has_value());
    EXPECT_TRUE(content->opaque.empty());
}

}  // namespace
}  // namespace zc::train
