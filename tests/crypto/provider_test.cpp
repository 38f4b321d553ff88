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

TEST(FastProvider, SignaturesPinnedAcrossBlockBoundaries) {
    // Message lengths on both sides of SHA-256's one-block padding limit
    // (55/56) and block size (63/64/65), plus a bulk telegram. Signing
    // and verifying start from cached HMAC pads; the bytes must be the
    // ones the pads-per-call implementation produced.
    FastProvider provider;
    Rng rng(2024);
    const KeyPair kp = provider.generate(rng);
    const std::pair<std::size_t, const char*> golden[] = {
        {0, "e4f7f47d58b88a1a5a122967829a5103b77cb1a9002ca59b964e68d1a35871b0"
            "932616ffc6eff2bb693f7430ffe24b83034cc3b8ca63af0be1db0ecfeeae5c8b"},
        {55, "923497b0fdf81d28618da02c85b7a9eda2f7f378fca33ffd2d9d0533085f347a"
             "df1cb5a2f844ab429ecb54a0be9766918d843100c14273f2fd64a8bd72d58854"},
        {56, "632e4f808d424fd77834b9f12caaed2534a9b69e31886ceda8a06974f39b5cb1"
             "7e923658da54352a3dad94cb8c07e6ec5ede96be5e2a4709913eecf405c6b4dd"},
        {63, "ae8e60e8241251d0e7f21fe149dcd3d92ced0f9318174509213165b05424cd7c"
             "8b30311e747edd891fee3e37d2d77980cc10f5d466f272c010de80cedb628718"},
        {64, "7b7b90a9c55476aea60f056670a6a46d41a17cd358b0f8afd5e5ff3339a21f2f"
             "cbd2ed0f50825de1e25e4160ed588de4cf040eb7d26ca754a871e9dfa4d92a1f"},
        {65, "c6bf2e05bdcd4753678ac07305e28f602ab728c72b78eea1983b029eabfee634"
             "b1495aa2878118159fa87ee0e7667fb1be9a48e20f696aa8a7eb191fb311a46c"},
        {8192, "24e93ee31a82234a511d3986b15de2fa528448743e7ab9c06fa0e1384e57d0c6"
               "94d8255b75dc4eee8d977b882dbdddff23309b1809281be8c000e14703775046"},
    };
    for (const auto& [len, hex] : golden) {
        Bytes msg(len);
        for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
        const Signature sig = provider.sign(kp, msg);
        EXPECT_EQ(to_hex(BytesView{sig.v.data(), sig.v.size()}), hex) << len;
        EXPECT_TRUE(provider.verify(kp.pub, msg, sig)) << len;
        // A provider that never generated the key signs the same bytes.
        FastProvider stranger;
        EXPECT_EQ(stranger.sign(kp, msg), sig) << len;
    }
}

}  // namespace
}  // namespace zc::crypto
