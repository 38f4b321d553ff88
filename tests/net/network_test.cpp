#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/network.hpp"

namespace zc::net {
namespace {

struct Recorder final : Endpoint {
    struct Received {
        EndpointId from;
        Bytes msg;
        TimePoint at;
    };
    explicit Recorder(sim::Simulation& sim) : sim(sim) {}
    void deliver(EndpointId from, Bytes message) override {
        received.push_back({from, std::move(message), sim.now()});
    }
    sim::Simulation& sim;
    std::vector<Received> received;
};

struct NetFixture : ::testing::Test {
    NetFixture() : sim(7), net(sim), a(sim), b(sim) {
        net.attach(0, &a);
        net.attach(1, &b);
        LinkProfile p;
        p.latency = milliseconds(1);
        p.jitter = Duration::zero();
        p.bandwidth_bps = 100e6;
        p.loss = 0.0;
        net.set_default_profile(p);
    }
    sim::Simulation sim;
    Network net;
    Recorder a, b;
};

TEST_F(NetFixture, DeliversWithLatencyAndSerialization) {
    net.send(0, 1, Bytes(1184, 0x11));  // 1184 + 66 overhead = 1250 B = 100 us at 100 Mbit/s
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].from, 0u);
    EXPECT_EQ(b.received[0].msg.size(), 1184u);
    EXPECT_EQ(b.received[0].at, milliseconds(1) + microseconds(100));
}

TEST_F(NetFixture, EgressSerializationQueues) {
    // Two 1250-wire-byte messages back to back share the NIC.
    net.send(0, 1, Bytes(1184, 0x01));
    net.send(0, 1, Bytes(1184, 0x02));
    sim.run();
    ASSERT_EQ(b.received.size(), 2u);
    EXPECT_EQ(b.received[0].at, milliseconds(1) + microseconds(100));
    EXPECT_EQ(b.received[1].at, milliseconds(1) + microseconds(200));
}

TEST_F(NetFixture, MetersBytesWithFraming) {
    net.send(0, 1, Bytes(100, 0x00));
    sim.run();
    EXPECT_EQ(net.stats(0).bytes_sent, 100 + Network::kFrameOverhead);
    EXPECT_EQ(net.stats(0).messages_sent, 1u);
    EXPECT_EQ(net.stats(1).bytes_received, 100 + Network::kFrameOverhead);
    EXPECT_EQ(net.stats(1).messages_received, 1u);
    EXPECT_EQ(net.total_bytes_sent(), 100 + Network::kFrameOverhead);
}

TEST_F(NetFixture, BlockedLinkDropsMessages) {
    net.set_blocked(0, 1, true);
    net.send(0, 1, Bytes(10, 0x00));
    sim.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(net.stats(0).messages_dropped, 1u);

    net.set_blocked(0, 1, false);
    net.send(0, 1, Bytes(10, 0x00));
    sim.run();
    EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, BlockIsDirectional) {
    net.set_blocked(0, 1, true);
    net.send(1, 0, Bytes(10, 0x00));
    sim.run();
    EXPECT_EQ(a.received.size(), 1u);
}

TEST_F(NetFixture, LossyLinkDropsApproximatelyAtRate) {
    LinkProfile lossy;
    lossy.latency = microseconds(10);
    lossy.jitter = Duration::zero();
    lossy.loss = 0.5;
    net.set_profile(0, 1, lossy);
    for (int i = 0; i < 1000; ++i) net.send(0, 1, Bytes(8, 0x00));
    sim.run();
    EXPECT_GT(b.received.size(), 350u);
    EXPECT_LT(b.received.size(), 650u);
    EXPECT_EQ(b.received.size() + net.stats(0).messages_dropped, 1000u);
}

TEST_F(NetFixture, JitterDelaysWithinBound) {
    LinkProfile jittery;
    jittery.latency = milliseconds(1);
    jittery.jitter = milliseconds(2);
    net.set_profile(0, 1, jittery);
    for (int i = 0; i < 100; ++i) net.send(0, 1, Bytes(1, 0x00));
    sim.run();
    ASSERT_EQ(b.received.size(), 100u);
    // All arrivals within [latency, latency + jitter + serialization*queue].
    for (const auto& rec : b.received) {
        EXPECT_GE(rec.at, milliseconds(1));
        EXPECT_LE(rec.at, milliseconds(3) + microseconds(100 * 6));
    }
}

TEST_F(NetFixture, LteProfileIsSlower) {
    net.set_profile(0, 1, LinkProfile::lte());
    net.send(0, 1, Bytes(100000, 0x00));
    sim.run();
    ASSERT_EQ(b.received.size(), 1u);
    // ~100 kB at 8.5 Mbit/s is ~94 ms serialization + >=35 ms latency.
    EXPECT_GT(b.received[0].at, milliseconds(120));
}

TEST_F(NetFixture, EgressUtilization) {
    const TimePoint start = sim.now();
    // 10 messages x 1250 wire bytes = 100,000 bits over 10 ms at 100 Mbit/s
    // = 0.1 utilization over 10 ms window.
    for (int i = 0; i < 10; ++i) net.send(0, 1, Bytes(1184, 0x00));
    sim.run_until(start + milliseconds(10));
    EXPECT_NEAR(net.egress_utilization(0, start, 0, 100e6), 0.1, 0.001);
}

TEST_F(NetFixture, UnknownEndpointDropsSilently) {
    net.send(0, 99, Bytes(10, 0x00));
    sim.run();  // must not crash
}

TEST_F(NetFixture, SelfSendDeliversAndMetersBothSides) {
    net.send(0, 0, Bytes(100, 0xab));
    sim.run();
    ASSERT_EQ(a.received.size(), 1u);
    EXPECT_EQ(a.received[0].from, 0u);
    // One endpoint is both sender and receiver: both meters tick.
    EXPECT_EQ(net.stats(0).messages_sent, 1u);
    EXPECT_EQ(net.stats(0).messages_received, 1u);
    EXPECT_EQ(net.stats(0).bytes_sent, net.stats(0).bytes_received);
}

TEST_F(NetFixture, UnattachedEndpointStillMetersTheSender) {
    net.send(0, 99, Bytes(10, 0x00));
    sim.run();
    // The send is metered (the NIC did transmit); the vanishing happens at
    // the receiver, silently — not attributed to any drop cause.
    EXPECT_EQ(net.stats(0).messages_sent, 1u);
    EXPECT_EQ(net.stats(0).messages_dropped, 0u);
    EXPECT_EQ(net.stats(99).messages_received, 0u);
}

TEST_F(NetFixture, ZeroBandwidthNeverDeliversButNeverCrashes) {
    LinkProfile dead;
    dead.latency = milliseconds(1);
    dead.jitter = Duration::zero();
    dead.bandwidth_bps = 0.0;  // clamped to 1 bit/s internally
    net.set_profile(0, 1, dead);
    net.send(0, 1, Bytes(100, 0x00));
    // 166 wire bytes at the 1 bit/s clamp = ~1328 s of serialization; a
    // minute in, nothing has arrived and nothing has crashed or hung.
    sim.run_until(TimePoint{0} + seconds(60));
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(net.stats(0).messages_sent, 1u);
}

TEST_F(NetFixture, BlockAfterSendDoesNotDropInFlight) {
    // The partition decision is made at send time (the frame is already on
    // the wire); blocking mid-flight must not retract it.
    net.send(0, 1, Bytes(10, 0x00));
    net.set_blocked(0, 1, true);
    sim.run();
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_EQ(net.stats(0).dropped_partition, 0u);
}

TEST_F(NetFixture, EndpointDownDropsInFlightAsPartition) {
    // A powered-down receiver *does* lose in-flight frames: its NIC is off
    // when they arrive.
    net.send(0, 1, Bytes(10, 0x00));
    net.set_endpoint_down(1, true);
    sim.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(net.stats(1).dropped_partition, 1u);

    net.set_endpoint_down(1, false);
    net.send(0, 1, Bytes(10, 0x00));
    sim.run();
    EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, AsymmetricBlockDropsOnlyOneDirection) {
    net.set_blocked(0, 1, true);  // 0 -> 1 dead, 1 -> 0 alive
    net.send(0, 1, Bytes(10, 0x00));
    net.send(1, 0, Bytes(10, 0x00));
    sim.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(a.received.size(), 1u);
    EXPECT_EQ(net.stats(0).dropped_partition, 1u);
    EXPECT_EQ(net.stats(1).dropped_partition, 0u);
}

TEST_F(NetFixture, DuplicationInjectsExtraCopies) {
    LinkProfile dup;
    dup.latency = microseconds(10);
    dup.jitter = Duration::zero();
    dup.duplicate = 1.0;
    net.set_profile(0, 1, dup);
    for (int i = 0; i < 10; ++i) net.send(0, 1, Bytes(8, 0x00));
    sim.run();
    EXPECT_EQ(b.received.size(), 20u);
    EXPECT_EQ(net.stats(0).messages_duplicated, 10u);
    EXPECT_EQ(net.stats(0).messages_sent, 10u);
}

TEST_F(NetFixture, CorruptionIsDroppedAtReceiverNic) {
    LinkProfile noisy;
    noisy.latency = microseconds(10);
    noisy.jitter = Duration::zero();
    noisy.corrupt = 1.0;
    net.set_profile(0, 1, noisy);
    for (int i = 0; i < 10; ++i) net.send(0, 1, Bytes(8, 0x00));
    sim.run();
    EXPECT_TRUE(b.received.empty());
    // FCS discard happens at the *receiver* NIC: the drop (and cause) land
    // on the receiver's counters, after the sender metered the bytes.
    EXPECT_EQ(net.stats(1).dropped_corrupt, 10u);
    EXPECT_EQ(net.stats(0).messages_sent, 10u);
    EXPECT_EQ(net.stats(1).messages_received, 0u);
}

TEST_F(NetFixture, ReorderHoldsMessagesBack) {
    LinkProfile weird;
    weird.latency = microseconds(10);
    weird.jitter = Duration::zero();
    weird.reorder = 0.5;
    weird.reorder_window = milliseconds(5);
    net.set_profile(0, 1, weird);
    for (int i = 0; i < 100; ++i) net.send(0, 1, Bytes{static_cast<std::uint8_t>(i)});
    sim.run();
    ASSERT_EQ(b.received.size(), 100u);
    EXPECT_GT(net.stats(0).messages_reordered, 20u);
    EXPECT_LT(net.stats(0).messages_reordered, 80u);
    // At least one pair arrives out of send order.
    bool out_of_order = false;
    for (std::size_t i = 1; i < b.received.size(); ++i) {
        if (b.received[i].msg[0] < b.received[i - 1].msg[0]) out_of_order = true;
    }
    EXPECT_TRUE(out_of_order);
}

TEST_F(NetFixture, NicQueueBoundOverflows) {
    LinkProfile bounded;
    bounded.latency = microseconds(10);
    bounded.jitter = Duration::zero();
    bounded.bandwidth_bps = 1e6;       // 1250 wire bytes = 10 ms each
    bounded.max_queue = milliseconds(15);  // at most ~2 queued
    net.set_profile(0, 1, bounded);
    for (int i = 0; i < 10; ++i) net.send(0, 1, Bytes(1184, 0x00));
    sim.run();
    EXPECT_GT(net.stats(0).dropped_nic_overflow, 0u);
    EXPECT_EQ(b.received.size() + net.stats(0).dropped_nic_overflow, 10u);
}

TEST_F(NetFixture, PerCauseDropCountersSumToAggregate) {
    LinkProfile chaos;
    chaos.latency = microseconds(10);
    chaos.jitter = Duration::zero();
    chaos.loss = 0.2;
    chaos.corrupt = 0.2;
    net.set_profile(0, 1, chaos);
    net.set_blocked(0, 2, true);
    for (int i = 0; i < 200; ++i) net.send(0, 1, Bytes(8, 0x00));
    for (int i = 0; i < 5; ++i) net.send(0, 2, Bytes(8, 0x00));
    sim.run();
    const TrafficStats& tx = net.stats(0);
    const TrafficStats& rx = net.stats(1);
    EXPECT_EQ(tx.messages_dropped, tx.dropped_loss + tx.dropped_partition +
                                       tx.dropped_nic_overflow + tx.dropped_corrupt);
    EXPECT_EQ(rx.messages_dropped, rx.dropped_loss + rx.dropped_partition +
                                       rx.dropped_nic_overflow + rx.dropped_corrupt);
    EXPECT_EQ(tx.dropped_partition, 5u);
    EXPECT_GT(tx.dropped_loss, 0u);
    EXPECT_GT(rx.dropped_corrupt, 0u);
}

TEST_F(NetFixture, GrayPerturbationsDeterministicAcrossRuns) {
    // Same seed + same send sequence => identical dup/reorder/corrupt
    // decisions, delivery times and counters.
    sim::Simulation sim2(7);
    Network net2(sim2);
    Recorder a2(sim2), b2(sim2);
    net2.attach(0, &a2);
    net2.attach(1, &b2);
    LinkProfile chaos;
    chaos.latency = milliseconds(1);
    chaos.jitter = milliseconds(1);
    chaos.loss = 0.05;
    chaos.duplicate = 0.2;
    chaos.reorder = 0.3;
    chaos.reorder_window = milliseconds(4);
    chaos.corrupt = 0.1;
    net.set_profile(0, 1, chaos);
    net2.set_profile(0, 1, chaos);

    for (int i = 0; i < 200; ++i) {
        net.send(0, 1, Bytes(64, static_cast<std::uint8_t>(i)));
        net2.send(0, 1, Bytes(64, static_cast<std::uint8_t>(i)));
    }
    sim.run();
    sim2.run();
    ASSERT_EQ(b.received.size(), b2.received.size());
    for (std::size_t i = 0; i < b.received.size(); ++i) {
        EXPECT_EQ(b.received[i].at, b2.received[i].at);
        EXPECT_EQ(b.received[i].msg, b2.received[i].msg);
    }
    EXPECT_EQ(net.stats(0).messages_duplicated, net2.stats(0).messages_duplicated);
    EXPECT_EQ(net.stats(0).messages_reordered, net2.stats(0).messages_reordered);
    EXPECT_EQ(net.stats(1).dropped_corrupt, net2.stats(1).dropped_corrupt);
    EXPECT_EQ(net.stats(0).dropped_loss, net2.stats(0).dropped_loss);
}

TEST_F(NetFixture, EgressRampDegradesOverTime) {
    LinkRamp ramp;
    ramp.start = TimePoint{0} + seconds(1);
    ramp.duration = seconds(10);
    ramp.bandwidth_scale_end = 0.1;
    ramp.latency_scale_end = 4.0;
    ramp.loss_end = 0.0;
    ramp.hold = true;
    net.set_egress_ramp(0, ramp);

    // Before the ramp: nominal.
    const LinkProfile before = net.effective_profile(0, 1);
    EXPECT_EQ(before.latency, milliseconds(1));

    sim.run_until(TimePoint{0} + seconds(6));  // halfway up the ramp
    const LinkProfile mid = net.effective_profile(0, 1);
    EXPECT_GT(mid.latency, milliseconds(2));
    EXPECT_LT(mid.bandwidth_bps, 100e6);

    sim.run_until(TimePoint{0} + seconds(20));  // held at the end state
    const LinkProfile held = net.effective_profile(0, 1);
    EXPECT_NEAR(held.bandwidth_bps, 10e6, 1e5);
    EXPECT_EQ(held.latency, milliseconds(4));
}

TEST_F(NetFixture, DeterministicAcrossRuns) {
    // Same seed, same construction order => identical delivery times.
    sim::Simulation sim2(7);
    Network net2(sim2);
    Recorder a2(sim2), b2(sim2);
    net2.attach(0, &a2);
    net2.attach(1, &b2);
    LinkProfile p;
    p.latency = milliseconds(1);
    p.jitter = milliseconds(1);
    net.set_default_profile(p);
    net2.set_default_profile(p);

    for (int i = 0; i < 20; ++i) {
        net.send(0, 1, Bytes(64, 0x00));
        net2.send(0, 1, Bytes(64, 0x00));
    }
    sim.run();
    sim2.run();
    ASSERT_EQ(b.received.size(), b2.received.size());
    for (std::size_t i = 0; i < b.received.size(); ++i) {
        EXPECT_EQ(b.received[i].at, b2.received[i].at);
    }
}

// A train's network (its own queue) with a data-center port on the
// fleet's queue: train->DC deliveries wait in the outbox until the
// barrier flush; DC->train deliveries go straight onto the train queue.
TEST(NetworkCrossQueue, BuffersHomeToForeignAndSchedulesForeignToHome) {
    sim::Simulation fleet(7);
    sim::Simulation train(fleet, 1);
    Network net(train);
    Recorder node(train), dc(fleet);
    net.attach(0, &node);
    net.attach(100, &dc, &fleet);
    LinkProfile p;
    p.latency = milliseconds(35);
    p.jitter = Duration::zero();
    net.set_default_profile(p);

    net.send(0, 100, Bytes(10, 0x01));
    EXPECT_EQ(net.outbox_size(), 1u);
    EXPECT_EQ(fleet.pending_events(), 0u);
    net.send(100, 0, Bytes(10, 0x02));
    EXPECT_EQ(train.pending_events(), 1u) << "DC->train is scheduled directly";

    train.drain_until(milliseconds(30));
    net.flush_outbox(milliseconds(30));
    EXPECT_EQ(net.outbox_size(), 0u);
    fleet.drain_until(milliseconds(40));
    train.drain_until(milliseconds(40));
    ASSERT_EQ(dc.received.size(), 1u);
    ASSERT_EQ(node.received.size(), 1u);
    EXPECT_GT(dc.received[0].at, milliseconds(35));
    EXPECT_GT(node.received[0].at, milliseconds(35));
}

TEST(NetworkCrossQueue, FlushRejectsADeliveryDueAtOrBeforeTheBarrier) {
    sim::Simulation fleet(7);
    sim::Simulation train(fleet, 1);
    Network net(train);
    Recorder node(train), dc(fleet);
    net.attach(0, &node);
    net.attach(100, &dc, &fleet);
    LinkProfile p;
    p.latency = milliseconds(5);
    p.jitter = Duration::zero();
    net.set_default_profile(p);
    net.send(0, 100, Bytes(10, 0x01));
    EXPECT_THROW(net.flush_outbox(milliseconds(35)), std::logic_error);
}

}  // namespace
}  // namespace zc::net
