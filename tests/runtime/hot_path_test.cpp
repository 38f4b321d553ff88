// The per-telegram wire path: envelope decoding in place, encode-once
// broadcasts, a clean run that never throws, and a bounded amount of
// hashing per telegram.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "runtime/node.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

// -- decode_envelope ----------------------------------------------------------

/// The envelope decoder the wire path used before it decoded in place:
/// channel byte, length-delimited body copy, nothing after it.
std::optional<std::pair<Channel, Bytes>> reference_decode(BytesView data) {
    try {
        codec::Reader r(data);
        const std::uint8_t c = r.u8();
        if (c < 1 || c > 3) throw codec::DecodeError("bad channel");
        Bytes body = r.bytes();
        r.expect_done();
        return std::pair{static_cast<Channel>(c), std::move(body)};
    } catch (const codec::DecodeError&) {
        return std::nullopt;
    }
}

void expect_same_verdict(const Bytes& data, const std::string& what) {
    const auto got = decode_envelope(data);
    const auto want = reference_decode(data);
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (!got) return;
    EXPECT_EQ(got->channel, want->first) << what;
    EXPECT_EQ(Bytes(got->body.begin(), got->body.end()), want->second) << what;
}

Bytes raw_envelope(std::uint8_t channel, std::uint64_t len, const Bytes& body) {
    codec::Writer w;
    w.u8(channel);
    w.varint(len);
    w.raw(body);
    return w.take();
}

TEST(Envelope, DecodeMatchesReferenceOnTable) {
    const Bytes body = to_bytes("consensus");
    std::vector<std::pair<std::string, Bytes>> t;
    for (std::uint8_t c = 0; c <= 4; ++c) {
        t.emplace_back("channel " + std::to_string(c), raw_envelope(c, body.size(), body));
    }
    t.emplace_back("empty buffer", Bytes{});
    t.emplace_back("channel only", Bytes{1});
    t.emplace_back("empty body", raw_envelope(1, 0, {}));
    t.emplace_back("length short by one", raw_envelope(1, body.size() - 1, body));
    t.emplace_back("length long by one", raw_envelope(1, body.size() + 1, body));
    Bytes trailing = raw_envelope(2, body.size(), body);
    trailing.push_back(0);
    t.emplace_back("trailing byte", trailing);
    Bytes non_minimal{3, static_cast<std::uint8_t>(body.size() | 0x80), 0x00};
    append(non_minimal, body);
    t.emplace_back("non-minimal length varint", non_minimal);
    t.emplace_back("length above kDefaultMaxLen",
                   raw_envelope(1, codec::Reader::kDefaultMaxLen + 1, body));
    Bytes overlong{1};
    overlong.insert(overlong.end(), 10, 0x80);
    overlong.push_back(0);
    t.emplace_back("11-byte length varint", overlong);

    for (const auto& [what, data] : t) expect_same_verdict(data, what);
    // The table's accept/reject split, pinned.
    EXPECT_FALSE(decode_envelope(t[0].second));  // channel 0
    for (int c = 1; c <= 3; ++c) EXPECT_TRUE(decode_envelope(t[c].second)) << c;
    EXPECT_FALSE(decode_envelope(t[4].second));  // channel 4
    EXPECT_TRUE(decode_envelope(non_minimal));
    EXPECT_FALSE(decode_envelope(trailing));
}

TEST(Envelope, DecodeMatchesReferenceUnderMutation) {
    Rng rng(20);
    const Bytes good = encode_envelope(Channel::kLayer, rng.bytes(200));
    for (int round = 0; round < 4000; ++round) {
        Bytes m = good;
        const int edits = 1 + round % 4;
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = rng.next_below(m.size());
            switch (rng.next_below(3)) {
                case 0: m[pos] = static_cast<std::uint8_t>(rng.next()); break;
                case 1: m.resize(pos); break;
                default: m.push_back(static_cast<std::uint8_t>(rng.next())); break;
            }
            if (m.empty()) break;
        }
        expect_same_verdict(m, "round " + std::to_string(round));
    }
}

TEST(Envelope, EncodeRoundTripsAndBodyPointsIntoInput) {
    const Bytes body(300, 0xab);  // a two-byte length varint
    const Bytes wire = encode_envelope(Channel::kExport, body);
    ASSERT_EQ(wire.size(), 1 + 2 + body.size());
    EXPECT_EQ(wire.capacity(), wire.size());  // sized up front
    const auto env = decode_envelope(wire);
    ASSERT_TRUE(env);
    EXPECT_EQ(env->channel, Channel::kExport);
    EXPECT_EQ(env->body.data(), wire.data() + 3);
    EXPECT_EQ(env->body.size(), body.size());
    EXPECT_EQ(Bytes(env->body.begin(), env->body.end()), body);
}

// -- encode-once broadcast ----------------------------------------------------

struct Recorder final : net::Endpoint {
    void deliver(net::EndpointId from, Bytes message) override {
        if (from == 0) got.push_back(std::move(message));
    }
    std::vector<Bytes> got;
};

TEST(Broadcast, EveryPeerReceivesIdenticalBytes) {
    // Node 0, the view-0 primary, orders a request among three recording
    // peers: its PrePrepare reaches each of them as the same byte string.
    sim::Simulation sim(3);
    net::Network network(sim);
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    Rng keyrng(4);
    std::vector<crypto::KeyPair> keys;
    for (NodeId i = 0; i < 4; ++i) {
        keys.push_back(provider.generate(keyrng));
        directory.register_key(i, keys.back().pub);
    }
    const metrics::CostModel costs;
    Node node(NodeOptions{}, sim, network, provider, directory, keys[0], costs);
    network.attach(0, &node);
    Recorder peers[3];
    for (NodeId i = 1; i < 4; ++i) network.attach(i, &peers[i - 1]);

    node.request_emergency_trim(5);
    sim.run_for(seconds(1));

    ASSERT_FALSE(peers[0].got.empty());
    bool saw_pbft = false;
    for (const Recorder& peer : peers) {
        ASSERT_EQ(peer.got.size(), peers[0].got.size());
        for (std::size_t k = 0; k < peer.got.size(); ++k) {
            EXPECT_EQ(peer.got[k], peers[0].got[k]) << "message " << k;
        }
    }
    for (const Bytes& m : peers[0].got) {
        const auto env = decode_envelope(m);
        ASSERT_TRUE(env);
        saw_pbft |= env->channel == Channel::kPbft;
    }
    EXPECT_TRUE(saw_pbft);
}

// -- no hot-path throws -------------------------------------------------------

TEST(HotPath, CleanRushConsistThrowsNoDecodeError) {
    // The fleet bench's rush operating point, 5 s, clean bus: every
    // telegram crosses the trim probe, the envelope decoder and the
    // message decoders, none of which may throw on well-formed input.
    ScenarioConfig cfg;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(5);
    cfg.bus_cycle = milliseconds(16);
    cfg.payload_size = 256;
    cfg.batch_max_requests = 10;
    cfg.batch_linger = milliseconds(2);
    cfg.adaptive_timeouts.enabled = true;
    cfg.default_tap_faults = {};

    const std::uint64_t before = codec::DecodeError::constructed();
    Scenario s(cfg);
    s.run();
    EXPECT_GT(s.report().logged_unique, 300u);
    EXPECT_EQ(codec::DecodeError::constructed(), before);
}

TEST(HotPath, BulkConsistAbsorbsEachPayloadAFewTimes) {
    // The paper's 64 ms cycle with 8 KiB telegrams on a clean 4-node
    // consist. Each replica hashes every telegram's bytes several times
    // (bus tap, request digest, signature, Merkle leaf and their
    // re-checks); the per-thread SHA-256 memo turns the repeats of one
    // (state, bytes) pair into a compare. Counted in payload-equivalents
    // of 128 compressed blocks per logged telegram: about 28 without the
    // memo, about 8 with it.
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(10);
    cfg.bus_cycle = milliseconds(64);
    cfg.payload_size = 8192;
    cfg.default_tap_faults = {};

    const std::uint64_t before = crypto::sha256_blocks_compressed();
    Scenario s(cfg);
    s.run();
    const std::uint64_t blocks = crypto::sha256_blocks_compressed() - before;
    const std::uint64_t logged = s.report().logged_unique;
    ASSERT_GT(logged, 140u);
    const double per_telegram = static_cast<double>(blocks) / 128.0 / static_cast<double>(logged);
    RecordProperty("payload_equivalents_per_telegram", std::to_string(per_telegram));
    EXPECT_LE(per_telegram, 14.0) << blocks << " blocks over " << logged << " telegrams";
}

}  // namespace
}  // namespace zc::runtime
