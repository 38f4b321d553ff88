#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/provider.hpp"

namespace zc::crypto {
namespace {

class ProviderTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProviderTest, SignVerifyRoundTrip) {
    auto provider = make_provider(GetParam());
    Rng rng(1);
    const KeyPair kp = provider->generate(rng);
    const Bytes msg = to_bytes("hello train");
    const Signature sig = provider->sign(kp, msg);
    EXPECT_TRUE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, RejectsTamperedMessage) {
    auto provider = make_provider(GetParam());
    Rng rng(2);
    const KeyPair kp = provider->generate(rng);
    Bytes msg = to_bytes("hello train");
    const Signature sig = provider->sign(kp, msg);
    msg[0] ^= 1;
    EXPECT_FALSE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, RejectsWrongKey) {
    auto provider = make_provider(GetParam());
    Rng rng(3);
    const KeyPair a = provider->generate(rng);
    const KeyPair b = provider->generate(rng);
    const Bytes msg = to_bytes("payload");
    EXPECT_FALSE(provider->verify(b.pub, msg, provider->sign(a, msg)));
}

TEST_P(ProviderTest, RejectsTamperedSignature) {
    auto provider = make_provider(GetParam());
    Rng rng(4);
    const KeyPair kp = provider->generate(rng);
    const Bytes msg = to_bytes("payload");
    Signature sig = provider->sign(kp, msg);
    sig.v[40] ^= 0x10;
    EXPECT_FALSE(provider->verify(kp.pub, msg, sig));
}

TEST_P(ProviderTest, DistinctKeysPerGenerate) {
    auto provider = make_provider(GetParam());
    Rng rng(5);
    EXPECT_NE(provider->generate(rng).pub, provider->generate(rng).pub);
}

INSTANTIATE_TEST_SUITE_P(AllProviders, ProviderTest, ::testing::Values("ed25519", "fast"));

TEST(Provider, UnknownNameThrows) {
    EXPECT_THROW(make_provider("rsa"), std::invalid_argument);
}

TEST(FastProvider, UnknownKeyFailsVerification) {
    FastProvider provider;
    Rng rng(6);
    const KeyPair kp = provider.generate(rng);
    const Bytes msg = to_bytes("m");
    const Signature sig = provider.sign(kp, msg);

    FastProvider other;  // fresh registry: key unknown
    EXPECT_FALSE(other.verify(kp.pub, msg, sig));
}

TEST(FastProvider, SignatureBytesArePinned) {
    // Signatures are hashed into blocks and sent on the wire, so any change
    // to the bytes FastProvider produces changes every simulated output.
    // The expected values pin its format: HMAC-SHA256(seed, message)
    // followed by SHA-256 of that MAC and "ext".
    FastProvider provider;
    Rng rng(2024);
    const KeyPair kp = provider.generate(rng);
    const Bytes msg = to_bytes("ETCS juridical telegram, cycle 42");
    const Signature sig = provider.sign(kp, msg);
    EXPECT_EQ(to_hex(BytesView{kp.pub.v.data(), kp.pub.v.size()}),
              "72063d262841609fbaec70a401be4895f1102a3edcd11eb71ad9b4c4c0c1f0bf");
    EXPECT_EQ(to_hex(BytesView{sig.v.data(), sig.v.size()}),
              "817508cd35befe39a82063c596d4d5484eb92632fa81bbac79e634dde158baad"
              "7cd0daee152007ceabdb5f0bcdf4c4934ef2e6dc8fd8d356c16b9a587c0e62b4");
    EXPECT_TRUE(provider.verify(kp.pub, msg, sig));
}

}  // namespace
}  // namespace zc::crypto
