// Edge-path tests for the communication layer: optimization toggles,
// timer interactions across primary changes, and state-transfer marking.
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

struct EdgeFixture : ::testing::Test {
    static constexpr NodeId kSelf = 1;

    EdgeFixture() : sim(23) {
        Rng keyrng = sim.rng().fork("keys");
        for (NodeId i = 0; i < 4; ++i) {
            keys.push_back(provider.generate(keyrng));
            directory.register_key(i, keys.back().pub);
        }
        crypto = std::make_unique<crypto::CryptoContext>(provider, directory, keys[kSelf],
                                                         costs, meter);
    }

    std::unique_ptr<CommunicationLayer> make_layer(LayerConfig cfg) {
        cfg.id = kSelf;
        auto layer = std::make_unique<CommunicationLayer>(cfg, sim, *crypto, transport, sink);
        layer->attach_consensus(consensus);
        return layer;
    }

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
};

TEST_F(EdgeFixture, PrepreparedOptimizationCanBeDisabled) {
    LayerConfig cfg;
    cfg.soft_timeout = milliseconds(100);
    cfg.cancel_soft_on_preprepare = false;
    auto layer = make_layer(cfg);

    receive(*layer, "cycle", 1);
    layer->preprepared(peer_request(0, to_bytes("cycle")));  // ignored by config
    sim.run_until(milliseconds(150));
    EXPECT_EQ(layer->stats().soft_timeouts, 1u);
    EXPECT_EQ(transport.broadcasts.size(), 1u);
}

TEST_F(EdgeFixture, HardTimerSurvivesPrepreparedOptimization) {
    // The preprepare indication cancels only the *soft* timer; a hard
    // timer armed by a peer broadcast keeps running until DECIDE.
    LayerConfig cfg;
    cfg.hard_timeout = milliseconds(100);
    auto layer = make_layer(cfg);

    layer->on_peer_request(2, peer_request(2, to_bytes("cycle")), false);
    layer->preprepared(peer_request(0, to_bytes("cycle")));
    sim.run_until(milliseconds(150));
    EXPECT_EQ(layer->stats().hard_timeouts, 1u);
    EXPECT_EQ(consensus.suspects, 1);
}

TEST_F(EdgeFixture, NewPrimaryCancelsHardTimers) {
    LayerConfig cfg;
    cfg.soft_timeout = milliseconds(200);
    cfg.hard_timeout = milliseconds(100);
    auto layer = make_layer(cfg);

    layer->on_peer_request(2, peer_request(2, to_bytes("cycle")), false);  // hard armed
    sim.run_until(milliseconds(50));
    layer->new_primary(1, 2);  // view change before the hard timer fires
    sim.run_until(milliseconds(200));
    // The hard timer was replaced by a fresh soft timer for the new view:
    // no suspicion of the *new* primary from stale timers.
    EXPECT_EQ(layer->stats().hard_timeouts, 0u);
    EXPECT_EQ(consensus.suspects, 0);
    // The restarted soft timer fires relative to the view change.
    sim.run_until(milliseconds(260));
    EXPECT_EQ(layer->stats().soft_timeouts, 1u);
}

TEST_F(EdgeFixture, MarkLoggedClearsOpenAndFilters) {
    auto layer = make_layer({});
    receive(*layer, "transferred", 1);
    EXPECT_EQ(layer->open_requests(), 1u);

    const crypto::Digest digest = crypto::sha256(to_bytes("transferred"));
    layer->mark_logged(digest);
    EXPECT_EQ(layer->open_requests(), 0u);
    EXPECT_TRUE(layer->in_log(digest));

    // Re-reading the same payload from the bus is now filtered.
    receive(*layer, "transferred", 1);
    EXPECT_EQ(layer->stats().filtered_in_log, 1u);
    // No timers left behind.
    sim.run();
    EXPECT_EQ(layer->stats().soft_timeouts, 0u);
}

TEST_F(EdgeFixture, ReceiveAfterPeerBroadcastUpgradesToBusCopy) {
    auto layer = make_layer({});
    // Peer broadcast arrives first (we are a backup; hard timer starts).
    layer->on_peer_request(2, peer_request(2, to_bytes("cycle")), false);
    EXPECT_EQ(layer->open_requests(), 1u);
    // Then our own bus read of the same payload: no second entry, and as
    // primary later we would not re-propose (r.req in R).
    receive(*layer, "cycle", 1);
    EXPECT_EQ(layer->open_requests(), 1u);
    EXPECT_EQ(layer->stats().received, 0u);  // merged into the existing entry
}

TEST_F(EdgeFixture, SuspectNotCalledWhenDecideBeatsHardTimer) {
    LayerConfig cfg;
    cfg.hard_timeout = milliseconds(100);
    auto layer = make_layer(cfg);
    const pbft::Request r = peer_request(2, to_bytes("cycle"));
    layer->on_peer_request(2, r, false);
    sim.run_until(milliseconds(50));
    layer->deliver(r, 1);
    sim.run();
    EXPECT_EQ(consensus.suspects, 0);
    EXPECT_EQ(sink.logged.size(), 1u);
}

}  // namespace
}  // namespace zc::zugchain
