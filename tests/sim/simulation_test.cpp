#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace zc::sim {
namespace {

TEST(Simulation, StartsAtZero) {
    Simulation sim;
    EXPECT_EQ(sim.now().count(), 0);
}

TEST(Simulation, EventsRunInTimeOrder) {
    Simulation sim;
    std::vector<int> order;
    sim.schedule(milliseconds(30), [&] { order.push_back(3); });
    sim.schedule(milliseconds(10), [&] { order.push_back(1); });
    sim.schedule(milliseconds(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SameTimeEventsRunInScheduleOrder) {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(milliseconds(5), [&, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
    Simulation sim;
    TimePoint seen{-1};
    sim.schedule(milliseconds(64), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, milliseconds(64));
    EXPECT_EQ(sim.now(), milliseconds(64));
}

TEST(Simulation, CancelPreventsExecution) {
    Simulation sim;
    bool ran = false;
    const EventId id = sim.schedule(milliseconds(1), [&] { ran = true; });
    EXPECT_TRUE(sim.pending(id));
    sim.cancel(id);
    EXPECT_FALSE(sim.pending(id));
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(Simulation, CancelFiredEventIsNoop) {
    Simulation sim;
    const EventId id = sim.schedule(milliseconds(1), [] {});
    sim.run();
    sim.cancel(id);  // must not crash
}

TEST(Simulation, EventsCanScheduleEvents) {
    Simulation sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) sim.schedule(milliseconds(1), recurse);
    };
    sim.schedule(milliseconds(1), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulation, RunUntilStopsAtBoundary) {
    Simulation sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule(milliseconds(i * 10), [&] { ++count; });
    }
    sim.run_until(milliseconds(50));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), milliseconds(50));
    sim.run();
    EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilAdvancesIdleClock) {
    Simulation sim;
    sim.run_until(seconds(2));
    EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulation, NegativeDelayClampedToNow) {
    Simulation sim;
    sim.run_until(milliseconds(10));
    TimePoint seen{-1};
    sim.schedule(milliseconds(-5), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, milliseconds(10));
}

TEST(Simulation, HandlerCanCancelLaterEvent) {
    Simulation sim;
    bool second_ran = false;
    const EventId later = sim.schedule(milliseconds(20), [&] { second_ran = true; });
    sim.schedule(milliseconds(10), [&] { sim.cancel(later); });
    sim.run();
    EXPECT_FALSE(second_ran);
}

TEST(Simulation, RngDeterministicBySeed) {
    Simulation a(99), b(99);
    EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(Simulation, EqualTimesOrderByOriginThenTheOriginsOwnCounter) {
    Simulation fleet;
    Simulation train_a(fleet, 1), train_b(fleet, 2);
    std::vector<int> order;
    // Inserted out of key order: the origin decides, not insertion time.
    const EventId b1 = train_b.next_key();
    const EventId a1 = train_a.next_key();
    const EventId a2 = train_a.next_key();
    fleet.schedule_keyed(milliseconds(5), b1, [&] { order.push_back(21); });
    fleet.schedule_keyed(milliseconds(5), a2, [&] { order.push_back(12); });
    fleet.schedule_keyed(milliseconds(5), a1, [&] { order.push_back(11); });
    fleet.schedule(milliseconds(5), [&] { order.push_back(0); });
    fleet.run();
    EXPECT_EQ(order, (std::vector<int>{0, 11, 12, 21}));
    EXPECT_EQ(a1 >> Simulation::kOriginShift, 1u);
    EXPECT_EQ(b1 >> Simulation::kOriginShift, 2u);
}

TEST(Simulation, KeyedEventsCancelByTheirKey) {
    Simulation fleet;
    Simulation train(fleet, 1);
    bool ran = false;
    const EventId key = train.next_key();
    fleet.schedule_keyed(milliseconds(1), key, [&] { ran = true; });
    EXPECT_TRUE(fleet.pending(key));
    fleet.cancel(key);
    fleet.run();
    EXPECT_FALSE(ran);
}

TEST(Simulation, PeerQueueDrawsFromTheRootStream) {
    Simulation root(99), reference(99);
    Simulation peer(root, 1);
    EXPECT_EQ(peer.rng().next(), reference.rng().next());
    EXPECT_EQ(root.rng().next(), reference.rng().next());
    EXPECT_THROW(Simulation(root, 0), std::invalid_argument);
}

TEST(Simulation, NextTimeSkipsCancelledEventsAndDrainUntilAdvancesTheClock) {
    Simulation sim;
    EXPECT_FALSE(sim.next_time().has_value());
    const EventId early = sim.schedule(milliseconds(1), [] {});
    sim.schedule(milliseconds(3), [] {});
    sim.cancel(early);
    EXPECT_EQ(sim.next_time(), TimePoint{milliseconds(3)});
    sim.drain_until(milliseconds(2));
    EXPECT_EQ(sim.now(), milliseconds(2));
    EXPECT_EQ(sim.pending_events(), 1u);
}

}  // namespace
}  // namespace zc::sim
