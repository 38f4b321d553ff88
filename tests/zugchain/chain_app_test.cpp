#include <gtest/gtest.h>

#include <limits>

#include "train/signal.hpp"
#include "zugchain/chain_app.hpp"

namespace zc::zugchain {
namespace {

struct ChainAppFixture : ::testing::Test {
    ChainAppFixture() {
        Rng keyrng(5);
        key = provider.generate(keyrng);
        directory.register_key(0, key.pub);
        crypto = std::make_unique<crypto::CryptoContext>(provider, directory, key, costs, meter);
        app = std::make_unique<ChainApp>(store, *crypto, 10);
    }

    pbft::Request request(std::uint64_t uniq, BytesView payload) {
        pbft::Request r;
        r.payload = Bytes(payload.begin(), payload.end());
        r.origin = 0;
        r.origin_seq = uniq;
        r.sig = crypto->sign(r.signing_bytes());
        return r;
    }

    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    crypto::KeyPair key;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> crypto;
    chain::BlockStore store;
    std::unique_ptr<ChainApp> app;
};

TEST_F(ChainAppFixture, BundlesLoggedRequestsIntoBlock) {
    for (SeqNo s = 1; s <= 10; ++s) {
        app->log(request(s, to_bytes("rec-" + std::to_string(s))), 2, s);
    }
    const crypto::Digest head = app->state_digest(10);
    EXPECT_EQ(head, store.head_hash());
    EXPECT_EQ(store.head_height(), 1u);

    const chain::Block* block = store.get(1);
    ASSERT_NE(block, nullptr);
    ASSERT_EQ(block->requests.size(), 10u);
    EXPECT_EQ(block->requests[0].origin, 2u);
    EXPECT_EQ(block->requests[0].seq, 1u);
    EXPECT_TRUE(block->payload_valid());
    EXPECT_EQ(app->pending_requests(), 0u);
}

TEST_F(ChainAppFixture, DeterministicAcrossReplicas) {
    crypto::WorkMeter meter2;
    crypto::CryptoContext crypto2(provider, directory, key, costs, meter2);
    chain::BlockStore store2;
    ChainApp app2(store2, crypto2, 10);

    for (SeqNo s = 1; s <= 10; ++s) {
        const pbft::Request r = request(s, to_bytes("rec-" + std::to_string(s)));
        app->log(r, r.origin, s);
        app2.log(r, r.origin, s);
    }
    EXPECT_EQ(app->state_digest(10), app2.state_digest(10));
}

TEST_F(ChainAppFixture, EmptyWindowStillProducesBlock) {
    // A checkpoint window of pure null requests (after a view change)
    // creates an empty block so the chain and checkpoints stay aligned.
    const crypto::Digest head = app->state_digest(10);
    EXPECT_EQ(store.head_height(), 1u);
    EXPECT_EQ(store.get(1)->requests.size(), 0u);
    EXPECT_EQ(head, store.head_hash());
}

TEST_F(ChainAppFixture, ConsecutiveBlocksChain) {
    for (SeqNo s = 1; s <= 10; ++s) app->log(request(s, to_bytes("a")), 0, s);
    app->state_digest(10);
    for (SeqNo s = 11; s <= 20; ++s) app->log(request(s, to_bytes("b")), 0, s);
    app->state_digest(20);
    EXPECT_EQ(store.head_height(), 2u);
    EXPECT_TRUE(store.validate(0, 2));
}

TEST_F(ChainAppFixture, ChargesCpuForBlockBuild) {
    for (SeqNo s = 1; s <= 10; ++s) app->log(request(s, Bytes(1024, 0x7a)), 0, s);
    meter.take();
    app->state_digest(10);
    EXPECT_GT(meter.pending(), milliseconds(1));  // hash + flash write cost
}

TEST_F(ChainAppFixture, SyncStateUsesFetcher) {
    bool called = false;
    app->set_state_fetcher([&](SeqNo seq, const crypto::Digest&) {
        called = true;
        EXPECT_EQ(seq, 30u);
        return true;
    });
    app->log(request(1, to_bytes("stale")), 0, 1);
    app->sync_state(30, crypto::Digest{});
    EXPECT_TRUE(called);
    EXPECT_EQ(app->pending_requests(), 0u);  // pending cleared on transfer
}

TEST_F(ChainAppFixture, RejectsZeroInterval) {
    EXPECT_THROW(ChainApp(store, *crypto, 0), std::invalid_argument);
}

// -- the trim probe ----------------------------------------------------------
//
// Every logged request is probed for the trim marker, so the probe must
// decide without throwing while accepting exactly the payloads the
// throwing decode below accepts.

std::optional<Height> reference_trim_parse(BytesView payload) {
    try {
        codec::Reader r(payload);
        if (r.str(16) != "ZC-TRIM1") return std::nullopt;
        const Height h = r.u64();
        r.expect_done();
        return h;
    } catch (const codec::DecodeError&) {
        return std::nullopt;
    }
}

Bytes trim_with_prefix(Bytes prefix, std::string_view magic, Height h) {
    Bytes out = std::move(prefix);
    out.insert(out.end(), magic.begin(), magic.end());
    codec::Writer w;
    w.u64(h);
    append(out, w.buffer());
    return out;
}

std::vector<std::pair<std::string, Bytes>> trim_probe_table() {
    std::vector<std::pair<std::string, Bytes>> t;
    for (const Height h : {Height{0}, Height{1}, Height{1} << 40,
                           std::numeric_limits<Height>::max()}) {
        t.emplace_back("height " + std::to_string(h), ChainApp::make_trim_request(h));
    }
    t.emplace_back("2-byte length prefix", trim_with_prefix({0x88, 0x00}, "ZC-TRIM1", 7));
    Bytes ten{0x88};
    ten.insert(ten.end(), 8, 0x80);
    ten.push_back(0x00);
    t.emplace_back("10-byte length prefix", trim_with_prefix(ten, "ZC-TRIM1", 7));
    Bytes eleven{0x88};
    eleven.insert(eleven.end(), 9, 0x80);
    eleven.push_back(0x00);
    t.emplace_back("11-byte length prefix", trim_with_prefix(eleven, "ZC-TRIM1", 7));
    t.emplace_back("wrong magic", trim_with_prefix({0x08}, "ZC-TRIM2", 7));
    t.emplace_back("7-byte magic", trim_with_prefix({0x07}, "ZC-TRIM", 7));
    t.emplace_back("9-byte magic", trim_with_prefix({0x09}, "ZC-TRIM1X", 7));
    Bytes truncated = ChainApp::make_trim_request(7);
    truncated.pop_back();
    t.emplace_back("truncated height", truncated);
    Bytes trailing = ChainApp::make_trim_request(7);
    trailing.push_back(0x00);
    t.emplace_back("one trailing byte", trailing);
    t.emplace_back("empty payload", Bytes{});

    train::LogRecord rec;
    rec.cycle = 42;
    rec.timestamp_ns = 1'000'000;
    rec.signals = {{train::SignalKind::kSpeed, 8000}, {train::SignalKind::kHorn, 1}};
    rec.opaque = Bytes(32, 0x5a);
    t.emplace_back("LogRecord", codec::encode_to_bytes(rec));
    t.emplace_back("17 bytes, not a trim request", Bytes(17, 0x41));
    return t;
}

TEST(TrimProbe, MatchesReferenceDecodeOnTable) {
    for (const auto& [name, payload] : trim_probe_table()) {
        EXPECT_EQ(ChainApp::parse_trim_request(payload), reference_trim_parse(payload)) << name;
    }
}

TEST(TrimProbe, AcceptsExpectedPayloads) {
    const auto t = trim_probe_table();
    const auto parsed = [&t](std::string_view name) {
        for (const auto& [n, payload] : t) {
            if (n == name) return ChainApp::parse_trim_request(payload);
        }
        ADD_FAILURE() << "no case " << name;
        return std::optional<Height>{};
    };
    EXPECT_EQ(parsed("height 0"), Height{0});
    EXPECT_EQ(parsed("height 1"), Height{1});
    EXPECT_EQ(parsed("height " + std::to_string(Height{1} << 40)), Height{1} << 40);
    EXPECT_EQ(parsed("height " + std::to_string(std::numeric_limits<Height>::max())),
              std::numeric_limits<Height>::max());
    EXPECT_EQ(parsed("2-byte length prefix"), Height{7});
    EXPECT_EQ(parsed("10-byte length prefix"), Height{7});
    EXPECT_EQ(parsed("11-byte length prefix"), std::nullopt);
    EXPECT_EQ(parsed("LogRecord"), std::nullopt);
    EXPECT_EQ(parsed("17 bytes, not a trim request"), std::nullopt);
}

TEST(TrimProbe, MatchesReferenceDecodeUnderMutation) {
    // Every single-byte value at every position, and every truncation,
    // of the minimal and the 2-byte-prefix encodings.
    for (const Bytes& base :
         {ChainApp::make_trim_request(0x0102030405060708ull),
          trim_with_prefix({0x88, 0x00}, "ZC-TRIM1", 99)}) {
        for (std::size_t pos = 0; pos < base.size(); ++pos) {
            for (int v = 0; v < 256; ++v) {
                Bytes m = base;
                m[pos] = static_cast<std::uint8_t>(v);
                ASSERT_EQ(ChainApp::parse_trim_request(m), reference_trim_parse(m))
                    << "pos " << pos << " value " << v;
            }
        }
        for (std::size_t len = 0; len <= base.size(); ++len) {
            const BytesView cut{base.data(), len};
            ASSERT_EQ(ChainApp::parse_trim_request(cut), reference_trim_parse(cut)) << len;
        }
    }
}

TEST(TrimProbe, NeverThrows) {
    const std::uint64_t before = codec::DecodeError::constructed();
    for (const auto& [name, payload] : trim_probe_table()) {
        (void)ChainApp::parse_trim_request(payload);
    }
    EXPECT_EQ(codec::DecodeError::constructed(), before);
}

}  // namespace
}  // namespace zc::zugchain
