// Cross-checks the SHA-256 compression kernels: the portable loop and the
// SHA-NI one must compute the same function, and Sha256 must use the
// SHA-NI kernel exactly when the CPU reports the extensions. Each kernel
// is driven here by a minimal padder of its own, so a padding bug in
// Sha256::finalize cannot hide behind the same bug in the check.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/detail/sha256_kernel.hpp"
#include "crypto/sha256.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace zc::crypto {
namespace {

using detail::Sha256Compress;

/// FIPS 180-4 §5.1.1 padding, then one call of `kernel` over all blocks.
Digest hash_with(Sha256Compress kernel, BytesView msg) {
    Bytes padded(msg.begin(), msg.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
    for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));

    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    kernel(state, padded.data(), padded.size() / 64);
    Digest out;
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 4; ++j) {
            out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
        }
    }
    return out;
}

std::string hex(const Digest& d) { return to_hex(BytesView{d.data(), d.size()}); }

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return rng.bytes(n);
}

/// Every length 0–1024 (every padding position over 0–16 whole blocks),
/// the consist_bulk telegram size and 1 MiB.
std::vector<std::size_t> test_lengths() {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
    lengths.push_back(8192);
    lengths.push_back(1 << 20);
    return lengths;
}

bool cpuid_reports_sha() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    const bool ssse3_and_sse41 = ((c >> 9) & 1) != 0 && ((c >> 19) & 1) != 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    return ssse3_and_sse41 && ((b >> 29) & 1) != 0;
#else
    return false;
#endif
}

struct Vector {
    std::string message;
    std::string digest;
};

const Vector kFipsVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopq"
     "rlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

constexpr const char* kMillionA =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

void expect_fips_vectors(Sha256Compress kernel) {
    for (const Vector& v : kFipsVectors) {
        EXPECT_EQ(hex(hash_with(kernel, to_bytes(v.message))), v.digest)
            << "message \"" << v.message << "\"";
    }
    const Bytes million(1'000'000, 'a');
    EXPECT_EQ(hex(hash_with(kernel, million)), kMillionA);
}

TEST(Sha256Kernel, PortableMatchesFipsVectors) {
    expect_fips_vectors(&detail::sha256_compress_portable);
}

TEST(Sha256Kernel, ShaNiMatchesFipsVectors) {
    const Sha256Compress shani = detail::sha256_shani_kernel();
    if (shani == nullptr) GTEST_SKIP() << "this CPU has no SHA extensions (or is not x86-64)";
    expect_fips_vectors(shani);
}

TEST(Sha256Kernel, ShaNiAgreesWithPortableOnEveryLength) {
    const Sha256Compress shani = detail::sha256_shani_kernel();
    if (shani == nullptr) GTEST_SKIP() << "this CPU has no SHA extensions (or is not x86-64)";
    const Bytes data = random_bytes(1 << 20, 11);
    for (const std::size_t n : test_lengths()) {
        const BytesView msg{data.data(), n};
        ASSERT_EQ(hash_with(shani, msg), hash_with(&detail::sha256_compress_portable, msg))
            << "length " << n;
    }
}

TEST(Sha256Kernel, Sha256MatchesPortableOnEveryLength) {
    // Covers update()'s multi-block path and the one-pass finalize() for
    // every padding position, whichever kernel is active.
    const Bytes data = random_bytes(1 << 20, 12);
    for (const std::size_t n : test_lengths()) {
        const BytesView msg{data.data(), n};
        ASSERT_EQ(sha256(msg), hash_with(&detail::sha256_compress_portable, msg))
            << "length " << n;
    }
}

TEST(Sha256Kernel, ActiveKernelIsShaNiExactlyWhenCpuidReportsIt) {
    const bool sha = cpuid_reports_sha();
    EXPECT_EQ(detail::sha256_shani_kernel() != nullptr, sha);
    const Sha256Compress expected =
        sha ? detail::sha256_shani_kernel() : &detail::sha256_compress_portable;
    EXPECT_EQ(detail::sha256_active_kernel(), expected);
    EXPECT_STREQ(detail::sha256_kernel_name(), sha ? "sha-ni" : "portable");
}

}  // namespace
}  // namespace zc::crypto
