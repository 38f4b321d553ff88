// Verified-signature memo + process-global verify cache tests: first
// sight of a (signer, bytes, sig) triple charges the full asymmetric
// cost, repeats charge hash-only re-check cost, verdicts (including
// failures) are memoized, the memo is bounded direct-mapped virtual state, and
// the host-side cache/recheck knobs never change virtual charging.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/context.hpp"
#include "crypto/provider.hpp"
#include "crypto/verify_cache.hpp"

namespace zc::crypto {
namespace {

class VerifyMemoTest : public ::testing::Test {
protected:
    VerifyMemoTest() : provider(fast) {
        global_verify_cache().clear();
        Rng rng(7);
        signer_key = fast.generate(rng);
        own_key = fast.generate(rng);
        directory.register_key(1, signer_key.pub);
        message = to_bytes("train telemetry record");
        sig = fast.sign(signer_key, BytesView{message});
    }
    ~VerifyMemoTest() override {
        global_verify_cache().clear();
        global_verify_cache().set_enabled(true);
        CryptoContext::set_host_recheck(false);
    }

    CryptoContext make_context() {
        return CryptoContext(provider, directory, own_key, costs, meter);
    }

    FastProvider fast;
    CountingProvider provider;
    KeyDirectory directory;
    metrics::CostModel costs;
    WorkMeter meter;
    KeyPair signer_key;
    KeyPair own_key;
    Bytes message;
    Signature sig;
};

TEST_F(VerifyMemoTest, FirstVerifyChargesFullRepeatChargesCachedHash) {
    CryptoContext ctx = make_context();
    EXPECT_TRUE(ctx.verify(1, BytesView{message}, sig));
    EXPECT_EQ(meter.take(), costs.verify_msg(message.size()));
    EXPECT_EQ(provider.calls(), 1u);

    // The certificate-revalidation pattern: same triple again.
    EXPECT_TRUE(ctx.verify(1, BytesView{message}, sig));
    EXPECT_EQ(meter.take(), costs.verify_cached(message.size()));
    EXPECT_EQ(provider.calls(), 1u) << "memo hit must not re-run the provider";
    EXPECT_EQ(ctx.memo().size(), 1u);
}

TEST_F(VerifyMemoTest, NegativeVerdictIsMemoizedToo) {
    CryptoContext ctx = make_context();
    Signature bad = sig;
    bad.v[0] ^= 0xFF;
    EXPECT_FALSE(ctx.verify(1, BytesView{message}, bad));
    EXPECT_FALSE(ctx.verify(1, BytesView{message}, bad));
    EXPECT_EQ(provider.calls(), 1u);
    // With the memo gone the host cache still answers the failure.
    ctx.reset_memo();
    EXPECT_FALSE(ctx.verify(1, BytesView{message}, bad));
    EXPECT_EQ(provider.calls(), 1u);
}

TEST_F(VerifyMemoTest, UnknownSignerFailsAtFullCostWithoutProviderCall) {
    CryptoContext ctx = make_context();
    EXPECT_FALSE(ctx.verify(42, BytesView{message}, sig));
    EXPECT_EQ(meter.take(), costs.verify_msg(message.size()));
    EXPECT_EQ(provider.calls(), 0u);
    EXPECT_EQ(ctx.memo().size(), 0u) << "unknown signers are not memoized";
}

TEST_F(VerifyMemoTest, ResetMemoRechargesFullButHostStillSkips) {
    CryptoContext ctx = make_context();
    EXPECT_TRUE(ctx.verify(1, BytesView{message}, sig));
    meter.take();
    ctx.reset_memo();  // power loss: RAM memo gone, charging starts over…
    EXPECT_TRUE(ctx.verify(1, BytesView{message}, sig));
    EXPECT_EQ(meter.take(), costs.verify_msg(message.size()));
    // …but the host-side cache is an orthogonal optimization and may
    // still skip the provider (outputs never depend on it).
    EXPECT_EQ(provider.calls(), 1u);
}

TEST_F(VerifyMemoTest, CrossPrincipalCacheSkipsProviderButChargesEachFull) {
    WorkMeter meter_b;
    CryptoContext a = make_context();
    CryptoContext b(provider, directory, own_key, costs, meter_b);
    EXPECT_TRUE(a.verify(1, BytesView{message}, sig));
    EXPECT_EQ(meter.take(), costs.verify_msg(message.size()));
    // b's own memo misses: it pays the full virtual cost like a real
    // second device would, while the shared host cache skips the work.
    EXPECT_TRUE(b.verify(1, BytesView{message}, sig));
    EXPECT_EQ(meter_b.take(), costs.verify_msg(message.size()));
    EXPECT_EQ(provider.calls(), 1u);
}

TEST_F(VerifyMemoTest, ChargingIdenticalWithCacheDisabledOrRecheckOn) {
    // Run the same verify sequence under three host configurations; the
    // charged durations and results must be bit-identical (satellite:
    // memoized/batched verify is charged once, host knobs are invisible).
    auto run_sequence = [&](CryptoContext& ctx) {
        std::vector<Duration> charges;
        std::vector<bool> results;
        Signature bad = sig;
        bad.v[3] ^= 0x01;
        for (int round = 0; round < 3; ++round) {
            results.push_back(ctx.verify(1, BytesView{message}, sig));
            charges.push_back(meter.take());
            results.push_back(ctx.verify(1, BytesView{message}, bad));
            charges.push_back(meter.take());
        }
        return std::make_pair(charges, results);
    };

    global_verify_cache().set_enabled(true);
    CryptoContext::set_host_recheck(false);
    CryptoContext ctx1 = make_context();
    const auto baseline = run_sequence(ctx1);

    global_verify_cache().clear();
    global_verify_cache().set_enabled(false);
    CryptoContext ctx2 = make_context();
    EXPECT_EQ(run_sequence(ctx2), baseline);

    global_verify_cache().set_enabled(true);
    CryptoContext::set_host_recheck(true);
    const std::uint64_t calls_before = provider.calls();
    CryptoContext ctx3 = make_context();
    EXPECT_EQ(run_sequence(ctx3), baseline);
    EXPECT_GT(provider.calls(), calls_before) << "recheck re-runs the provider on hits";
}

TEST(VerifyMemo, BoundedDirectMappedReplacement) {
    VerifyMemo memo;
    // The slot index is the low bits of the key's first 8 bytes, so keys
    // whose byte 0/1 agree but later bytes differ collide on one slot.
    auto key_of = [](std::size_t slot, std::uint8_t tag) {
        Digest d{};
        d[0] = static_cast<std::uint8_t>(slot);
        d[1] = static_cast<std::uint8_t>(slot >> 8);
        d[31] = tag;
        return d;
    };
    // Fill every slot, then 10 more distinct keys: the table never grows
    // past its fixed size and each colliding key replaced its occupant.
    for (std::size_t i = 0; i < VerifyMemo::kSlots; ++i) memo.insert(key_of(i, 0), true);
    EXPECT_EQ(memo.size(), VerifyMemo::kSlots);
    for (std::size_t i = 0; i < 10; ++i) memo.insert(key_of(i, 1), true);
    EXPECT_EQ(memo.size(), VerifyMemo::kSlots);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(memo.find(key_of(i, 0)), nullptr) << "replaced occupant " << i << " must be gone";
        ASSERT_NE(memo.find(key_of(i, 1)), nullptr);
    }
    ASSERT_NE(memo.find(key_of(VerifyMemo::kSlots - 1, 0)), nullptr);
    EXPECT_TRUE(*memo.find(key_of(VerifyMemo::kSlots - 1, 0)));
    // Re-inserting an existing key neither grows nor flips the entry.
    memo.insert(key_of(VerifyMemo::kSlots - 1, 0), false);
    EXPECT_TRUE(*memo.find(key_of(VerifyMemo::kSlots - 1, 0)));
    memo.clear();
    EXPECT_EQ(memo.size(), 0u);
}

TEST(VerifyCacheKey, DistinguishesEveryInput) {
    FastProvider fast;
    Rng rng(11);
    const KeyPair a = fast.generate(rng);
    const KeyPair b = fast.generate(rng);
    const Bytes msg1 = to_bytes("m1");
    const Bytes msg2 = to_bytes("m2");
    const Signature s1 = fast.sign(a, BytesView{msg1});
    Signature s2 = s1;
    s2.v[0] ^= 1;

    const Digest base = verify_cache_key("fast", a.pub, BytesView{msg1}, s1);
    EXPECT_NE(base, verify_cache_key("ed25519", a.pub, BytesView{msg1}, s1));
    EXPECT_NE(base, verify_cache_key("fast", b.pub, BytesView{msg1}, s1));
    EXPECT_NE(base, verify_cache_key("fast", a.pub, BytesView{msg2}, s1));
    EXPECT_NE(base, verify_cache_key("fast", a.pub, BytesView{msg1}, s2));
}

TEST(VerifyCache, LookupInsertCountersAndDisable) {
    VerifyCache cache;
    Digest k{};
    k[0] = 1;
    bool ok = false;
    EXPECT_FALSE(cache.lookup(k, ok));
    cache.insert(k, true);
    ASSERT_TRUE(cache.lookup(k, ok));
    EXPECT_TRUE(ok);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.inserts(), 1u);

    cache.set_enabled(false);
    EXPECT_FALSE(cache.lookup(k, ok)) << "disabled lookups must miss";
    Digest k2{};
    k2[0] = 2;
    cache.insert(k2, true);
    cache.set_enabled(true);
    EXPECT_FALSE(cache.lookup(k2, ok)) << "disabled inserts are dropped";

    cache.clear();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.inserts(), 0u);
    EXPECT_FALSE(cache.lookup(k, ok));
}

TEST(CountingProvider, CountsCallsSignsAndUniqueTriples) {
    FastProvider fast;
    CountingProvider counting(fast);
    Rng rng(5);
    const KeyPair key = counting.generate(rng);
    const Bytes msg = to_bytes("payload");
    const Signature sig = counting.sign(key, BytesView{msg});
    EXPECT_EQ(counting.signs(), 1u);

    EXPECT_TRUE(counting.verify(key.pub, BytesView{msg}, sig));
    EXPECT_TRUE(counting.verify(key.pub, BytesView{msg}, sig));
    EXPECT_EQ(counting.calls(), 2u);
    EXPECT_EQ(counting.unique(), 1u) << "same triple twice is one unique verification";

    Signature bad = sig;
    bad.v[0] ^= 1;
    EXPECT_FALSE(counting.verify(key.pub, BytesView{msg}, bad));
    EXPECT_EQ(counting.calls(), 3u);
    EXPECT_EQ(counting.unique(), 2u);

    counting.reset();
    EXPECT_EQ(counting.calls(), 0u);
    EXPECT_EQ(counting.unique(), 0u);
    EXPECT_EQ(counting.signs(), 0u);
}

}  // namespace
}  // namespace zc::crypto
