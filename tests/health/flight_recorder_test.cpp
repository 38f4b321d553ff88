#include "health/flight_recorder.hpp"

#include <gtest/gtest.h>

#include "common/log.hpp"

namespace zc::health {
namespace {

FlightEvent phase_event(const FlightRecorder& r, std::size_t i) { return r.events().at(i); }

TEST(FlightRecorder, KeepsOnlyNotablePhases) {
    FlightRecorder r(8);
    r.event(0, TimePoint(100), trace::Phase::kBusReceive, 1, 0);   // routine: filtered
    r.event(0, TimePoint(200), trace::Phase::kSoftTimeout, 2, 7);  // notable
    r.event(0, TimePoint(300), trace::Phase::kDecide, 3, 0);       // routine: filtered
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(phase_event(r, 0).phase, trace::Phase::kSoftTimeout);
    EXPECT_EQ(phase_event(r, 0).arg, 7u);
}

TEST(FlightRecorder, RingWrapsAndCountsDrops) {
    FlightRecorder r(4);
    for (int i = 0; i < 10; ++i) {
        r.event(0, TimePoint(i * 100), trace::Phase::kSoftTimeout, 0,
                static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.dropped(), 6u);
    // The ring retains the newest events, oldest first.
    const auto events = r.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].arg, 6u + i);
        if (i > 0) {
            EXPECT_GT(events[i].at, events[i - 1].at);
        }
    }
}

TEST(FlightRecorder, PerNodeRingsMergeInTimeOrder) {
    FlightRecorder r(4);
    r.event(1, TimePoint(300), trace::Phase::kSoftTimeout, 0, 0);
    r.event(0, TimePoint(100), trace::Phase::kHardTimeout, 0, 0);
    r.event(2, TimePoint(200), trace::Phase::kNewView, 0, 0);
    const auto events = r.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].node, 0u);
    EXPECT_EQ(events[1].node, 2u);
    EXPECT_EQ(events[2].node, 1u);
    // Simultaneous events keep their arrival order via the global seq.
    r.event(3, TimePoint(300), trace::Phase::kSoftTimeout, 0, 0);
    const auto again = r.events();
    EXPECT_EQ(again[2].node, 1u);
    EXPECT_EQ(again[3].node, 3u);
}

TEST(FlightRecorder, DumpIsDeterministic) {
    const auto fill = [] {
        FlightRecorder r(3);
        for (int i = 0; i < 8; ++i) {
            r.event(static_cast<NodeId>(i % 2), TimePoint(i * 50), trace::Phase::kSoftTimeout,
                    0, static_cast<std::uint64_t>(i));
        }
        Alarm alarm;
        alarm.node = 1;
        alarm.kind = AlarmKind::kStalledView;
        alarm.first_seen = TimePoint(377);
        alarm.detail = "test \"quoted\" detail";
        r.record_alarm(alarm);
        return r.json();
    };
    const std::string a = fill();
    const std::string b = fill();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("stalled_view: "), std::string::npos);
    EXPECT_NE(a.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(a.find("\"dropped\":"), std::string::npos);
}

TEST(FlightRecorder, LogHookCapturesWarningsWithoutCallSiteChanges) {
    FlightRecorder r(8);
    const TimePoint now(4242);
    r.set_clock(&now);
    r.hook_logs();
    ZC_WARN("unit", "something {} happened", 13);
    ZC_DEBUG("unit", "below warn: not recorded");
    r.unhook_logs();
    ZC_WARN("unit", "after unhook: not recorded");

    const auto events = r.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, FlightEventKind::kLog);
    EXPECT_EQ(events[0].at, TimePoint(4242));
    EXPECT_NE(events[0].detail.find("something 13 happened"), std::string::npos);
}

TEST(FlightRecorder, HookIsRemovedOnDestruction) {
    {
        FlightRecorder r(4);
        r.hook_logs();
    }
    // Must not crash: the destructor removed the dangling hook.
    ZC_WARN("unit", "no recorder attached");
}

}  // namespace
}  // namespace zc::health
