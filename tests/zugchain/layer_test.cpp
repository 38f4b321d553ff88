#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "zugchain/layer.hpp"

namespace zc::zugchain {
namespace {

/// Bus input the way Node::process_telegram hands it over: the payload
/// with its digest.
void receive(CommunicationLayer& layer, std::string_view payload, std::uint64_t uniq,
             std::uint32_t source = 0) {
    const Bytes bytes = to_bytes(payload);
    layer.receive(bytes, crypto::sha256(bytes), uniq, source);
}

struct MockConsensus final : ConsensusHandle {
    bool propose(const pbft::Request& r) override {
        proposed.push_back(r);
        return true;
    }
    void suspect() override { ++suspects; }
    std::vector<pbft::Request> inflight_requests() const override { return inflight; }

    std::vector<pbft::Request> proposed;
    std::vector<pbft::Request> inflight;
    int suspects = 0;
};

struct MockTransport final : LayerTransport {
    void broadcast(const pbft::Request& r) override { broadcasts.push_back(r); }
    void forward(NodeId to, const pbft::Request& r) override { forwards.emplace_back(to, r); }

    std::vector<pbft::Request> broadcasts;
    std::vector<std::pair<NodeId, pbft::Request>> forwards;
};

struct MockSink final : LogSink {
    void log(const pbft::Request& r, const crypto::Digest& payload_digest, NodeId origin,
             SeqNo seq) override {
        EXPECT_EQ(payload_digest, r.payload_digest());
        logged.push_back({r, origin, seq});
    }
    struct Entry {
        pbft::Request request;
        NodeId origin;
        SeqNo seq;
    };
    std::vector<Entry> logged;
};

struct LayerFixture : ::testing::Test {
    static constexpr NodeId kSelf = 1;

    LayerFixture() : sim(11) {
        Rng keyrng = sim.rng().fork("keys");
        for (NodeId i = 0; i < 4; ++i) {
            keys.push_back(provider.generate(keyrng));
            directory.register_key(i, keys.back().pub);
        }
        crypto = std::make_unique<crypto::CryptoContext>(provider, directory, keys[kSelf], costs,
                                                         meter);
        LayerConfig cfg;
        cfg.id = kSelf;
        cfg.soft_timeout = milliseconds(250);
        cfg.hard_timeout = milliseconds(250);
        cfg.max_open_per_origin = 4;
        layer = std::make_unique<CommunicationLayer>(cfg, sim, *crypto, transport, sink);
        layer->attach_consensus(consensus);
    }

    /// A request as another node would sign it.
    pbft::Request peer_request(NodeId origin, BytesView payload, std::uint64_t uniq = 1) {
        crypto::WorkMeter m;
        crypto::CryptoContext ctx(provider, directory, keys[origin], costs, m);
        pbft::Request r;
        r.payload = Bytes(payload.begin(), payload.end());
        r.origin = origin;
        r.origin_seq = uniq;
        r.sig = ctx.sign(r.signing_bytes());
        return r;
    }

    /// Simulates the replica deciding one of the consensus' proposals.
    void decide(const pbft::Request& r, SeqNo seq) { layer->deliver(r, seq); }

    sim::Simulation sim;
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    std::vector<crypto::KeyPair> keys;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> crypto;
    MockConsensus consensus;
    MockTransport transport;
    MockSink sink;
    std::unique_ptr<CommunicationLayer> layer;
};

TEST_F(LayerFixture, BackupStartsSoftTimerInsteadOfProposing) {
    // Self (node 1) is not the primary (node 0 initially).
    receive(*layer, "cycle-1", 1);
    EXPECT_TRUE(consensus.proposed.empty());
    EXPECT_EQ(layer->open_requests(), 1u);

    // Soft timeout fires: the request is broadcast and a hard timer armed.
    sim.run_until(milliseconds(250));
    ASSERT_EQ(transport.broadcasts.size(), 1u);
    EXPECT_EQ(transport.broadcasts[0].origin, kSelf);
    EXPECT_EQ(layer->stats().soft_timeouts, 1u);
}

TEST_F(LayerFixture, PrimaryProposesImmediately) {
    layer->new_primary(1, kSelf);  // become primary
    receive(*layer, "cycle-1", 1);
    ASSERT_EQ(consensus.proposed.size(), 1u);
    EXPECT_EQ(consensus.proposed[0].origin, kSelf);
    EXPECT_EQ(consensus.proposed[0].payload, to_bytes("cycle-1"));
}

TEST_F(LayerFixture, DecideCancelsTimersAndLogs) {
    receive(*layer, "cycle-1", 1);
    // The primary (node 0) proposed its copy; the decide arrives.
    decide(peer_request(0, to_bytes("cycle-1")), 1);
    ASSERT_EQ(sink.logged.size(), 1u);
    EXPECT_EQ(sink.logged[0].origin, 0u);
    EXPECT_EQ(sink.logged[0].seq, 1u);
    EXPECT_EQ(layer->open_requests(), 0u);

    // Timers were cancelled: no broadcast later.
    sim.run();
    EXPECT_TRUE(transport.broadcasts.empty());
    EXPECT_EQ(consensus.suspects, 0);
}

TEST_F(LayerFixture, RepeatedBusInputFilteredAfterDecide) {
    receive(*layer, "cycle-1", 1);
    decide(peer_request(0, to_bytes("cycle-1")), 1);
    receive(*layer, "cycle-1", 1);  // bus glitch re-delivers
    EXPECT_EQ(layer->stats().filtered_in_log, 1u);
    EXPECT_EQ(layer->open_requests(), 0u);
}

TEST_F(LayerFixture, DuplicateDecideSuspectsPrimary) {
    decide(peer_request(0, to_bytes("cycle-1"), 1), 1);
    // Faulty primary orders the same payload again (different uniquifier).
    decide(peer_request(0, to_bytes("cycle-1"), 2), 2);
    EXPECT_EQ(consensus.suspects, 1);
    EXPECT_EQ(layer->stats().duplicates_decided, 1u);
    EXPECT_EQ(sink.logged.size(), 1u);  // logged exactly once
}

TEST_F(LayerFixture, PrepreparedCancelsSoftTimeout) {
    receive(*layer, "cycle-1", 1);
    // Primary's preprepare observed: cancel the soft timer.
    layer->preprepared(peer_request(0, to_bytes("cycle-1")));
    sim.run();
    EXPECT_TRUE(transport.broadcasts.empty());
    EXPECT_EQ(layer->stats().soft_timeouts, 0u);
}

TEST_F(LayerFixture, HardTimeoutSuspects) {
    receive(*layer, "cycle-1", 1);
    sim.run_until(milliseconds(250));  // soft fires, broadcast + hard timer
    sim.run_until(milliseconds(500));  // hard fires
    EXPECT_EQ(layer->stats().hard_timeouts, 1u);
    EXPECT_EQ(consensus.suspects, 1);
}

TEST_F(LayerFixture, PeerBroadcastOnPrimaryProposesBroadcastersCopy) {
    layer->new_primary(1, kSelf);
    const pbft::Request r = peer_request(2, to_bytes("only-node2-saw-this"));
    layer->on_peer_request(2, r, false);
    ASSERT_EQ(consensus.proposed.size(), 1u);
    EXPECT_EQ(consensus.proposed[0], r);  // origin id 2 preserved (Alg. 1 ln. 29)
}

TEST_F(LayerFixture, PeerBroadcastOnPrimaryWithRequestInQueueIsNotReproposed) {
    layer->new_primary(1, kSelf);
    receive(*layer, "cycle-1", 1);  // we proposed our own copy
    ASSERT_EQ(consensus.proposed.size(), 1u);
    layer->on_peer_request(2, peer_request(2, to_bytes("cycle-1")), false);
    EXPECT_EQ(consensus.proposed.size(), 1u);  // r.req in R: skip
}

TEST_F(LayerFixture, PeerBroadcastOnBackupForwardsToPrimary) {
    const pbft::Request r = peer_request(2, to_bytes("cycle-1"));
    layer->on_peer_request(2, r, false);
    ASSERT_EQ(transport.forwards.size(), 1u);
    EXPECT_EQ(transport.forwards[0].first, 0u);  // current primary
    EXPECT_EQ(transport.forwards[0].second, r);

    // Hard timer armed: expires into suspicion if never decided.
    sim.run_until(milliseconds(250));
    EXPECT_EQ(consensus.suspects, 1);
}

TEST_F(LayerFixture, ForwardedBroadcastNotReForwarded) {
    layer->on_peer_request(3, peer_request(2, to_bytes("cycle-1")), true);
    EXPECT_TRUE(transport.forwards.empty());
}

TEST_F(LayerFixture, BadPeerSignatureDropped) {
    pbft::Request r = peer_request(2, to_bytes("cycle-1"));
    r.payload.push_back(0x01);
    layer->on_peer_request(2, r, false);
    EXPECT_EQ(layer->open_requests(), 0u);
    EXPECT_TRUE(transport.forwards.empty());
}

TEST_F(LayerFixture, RateLimitCapsOpenRequestsPerOrigin) {
    // Node 3 floods fabricated requests (max_open_per_origin = 4).
    for (int i = 0; i < 20; ++i) {
        layer->on_peer_request(
            3, peer_request(3, to_bytes("fabricated-" + std::to_string(i)),
                            static_cast<std::uint64_t>(i)),
            false);
    }
    EXPECT_EQ(layer->open_requests(), 4u);
    EXPECT_EQ(layer->stats().rate_limited, 16u);

    // Once one decides, capacity frees up.
    decide(peer_request(3, to_bytes("fabricated-0"), 0), 1);
    layer->on_peer_request(3, peer_request(3, to_bytes("fabricated-new"), 99), false);
    EXPECT_EQ(layer->open_requests(), 4u);
    EXPECT_EQ(layer->stats().rate_limited, 16u);
}

TEST_F(LayerFixture, RateLimitDoesNotAffectBusInput) {
    for (int i = 0; i < 20; ++i) {
        receive(*layer, "bus-" + std::to_string(i), static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(layer->open_requests(), 20u);
    EXPECT_EQ(layer->stats().rate_limited, 0u);
}

TEST_F(LayerFixture, NewPrimarySelfProposesOpenRequests) {
    receive(*layer, "cycle-1", 1);
    receive(*layer, "cycle-2", 2);
    EXPECT_TRUE(consensus.proposed.empty());

    layer->new_primary(1, kSelf);
    EXPECT_EQ(consensus.proposed.size(), 2u);
}

TEST_F(LayerFixture, NewPrimarySkipsRunningInstances) {
    receive(*layer, "cycle-1", 1);
    receive(*layer, "cycle-2", 2);
    // cycle-1 was re-proposed by the view change (running instance).
    consensus.inflight = {peer_request(0, to_bytes("cycle-1"))};
    layer->new_primary(1, kSelf);
    ASSERT_EQ(consensus.proposed.size(), 1u);
    EXPECT_EQ(consensus.proposed[0].payload, to_bytes("cycle-2"));
}

TEST_F(LayerFixture, NewPrimaryBackupRestartsSoftTimers) {
    receive(*layer, "cycle-1", 1);
    sim.run_until(milliseconds(100));
    layer->new_primary(2, 2);  // still a backup; timers restart
    sim.run_until(milliseconds(300));  // old timer would have fired at 250
    EXPECT_TRUE(transport.broadcasts.empty());
    sim.run_until(milliseconds(350));  // restarted timer fires at 100+250
    EXPECT_EQ(transport.broadcasts.size(), 1u);
}

TEST_F(LayerFixture, DivergentInputsAllLogged) {
    // The same cycle read differently on two nodes: both versions must be
    // logged (they are different payloads).
    decide(peer_request(0, to_bytes("cycle-1-version-a")), 1);
    decide(peer_request(2, to_bytes("cycle-1-version-b")), 2);
    EXPECT_EQ(sink.logged.size(), 2u);
    EXPECT_EQ(consensus.suspects, 0);
}

TEST_F(LayerFixture, DedupWindowEvictsOldDigests) {
    const crypto::Digest first = crypto::sha256(to_bytes("payload-0"));
    const auto payload = [](std::size_t i) { return to_bytes("payload-" + std::to_string(i)); };
    for (std::size_t i = 0; i <= kDedupWindow; ++i) {
        layer->deliver(peer_request(0, payload(i), i), static_cast<SeqNo>(i + 1));
        if (i + 1 == kDedupWindow) {
            EXPECT_TRUE(layer->in_log(first));  // window full
        }
    }
    EXPECT_FALSE(layer->in_log(first));  // evicted
    EXPECT_TRUE(layer->in_log(crypto::sha256(payload(1))));
    EXPECT_TRUE(layer->in_log(crypto::sha256(payload(kDedupWindow))));
}

TEST_F(LayerFixture, MultipleSourcesAreIndependentQueues) {
    receive(*layer, "mvb-frame", 1, /*source=*/0);
    receive(*layer, "profinet-frame", 1, /*source=*/1);
    EXPECT_EQ(layer->open_requests(), 2u);
    decide(peer_request(0, to_bytes("mvb-frame")), 1);
    decide(peer_request(0, to_bytes("profinet-frame")), 2);
    EXPECT_EQ(sink.logged.size(), 2u);
}

TEST_F(LayerFixture, NullDecideIgnored) {
    layer->deliver(pbft::Request::null(), 5);
    EXPECT_TRUE(sink.logged.empty());
    EXPECT_EQ(consensus.suspects, 0);
}

TEST_F(LayerFixture, QueueGaugeTracksOpenBytes) {
    metrics::MemoryTracker tracker;
    metrics::Gauge* gauge = tracker.gauge("layer");
    LayerConfig cfg;
    cfg.id = kSelf;
    CommunicationLayer tracked(cfg, sim, *crypto, transport, sink, gauge);
    tracked.attach_consensus(consensus);

    receive(tracked, "cycle-1", 1);
    EXPECT_GT(gauge->value(), 0);
    tracked.deliver(peer_request(0, to_bytes("cycle-1")), 1);
    EXPECT_EQ(gauge->value(), 0);
    EXPECT_EQ(tracker.underflows(), 0u);
}

}  // namespace
}  // namespace zc::zugchain
