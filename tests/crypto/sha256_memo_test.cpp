// The per-thread SHA-256 absorb memo must be invisible: every digest that
// goes through it equals one computed without it. Two references are
// memo-free by construction: Sha256 fed in chunks below the memo's
// threshold, and the portable kernel behind a padder of its own.
#include <gtest/gtest.h>

#include <thread>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/detail/sha256_kernel.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace zc::crypto {
namespace {

constexpr std::size_t kMin = Sha256::kMemoMinBytes;
constexpr std::size_t kMax = Sha256::kMemoMaxBytes;
constexpr std::size_t kChunk = kMin / 2;  // every update below the threshold

/// Sha256 over `prefix` then `input`, `input` fed in sub-threshold chunks.
Digest chunked(BytesView prefix, BytesView input) {
    Sha256 h;
    h.update(prefix);
    for (std::size_t at = 0; at < input.size(); at += kChunk) {
        h.update(input.subspan(at, std::min(kChunk, input.size() - at)));
    }
    return h.finalize();
}

/// FIPS 180-4 padding over `prefix || input`, compressed by the portable
/// kernel alone.
Digest portable(BytesView prefix, BytesView input) {
    Bytes padded(prefix.begin(), prefix.end());
    padded.insert(padded.end(), input.begin(), input.end());
    const std::uint64_t bits = static_cast<std::uint64_t>(padded.size()) * 8;
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    detail::sha256_compress_portable(state, padded.data(), padded.size() / 64);
    Digest out;
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 4; ++j) {
            out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
        }
    }
    return out;
}

/// Sha256 over `prefix` then `input` in one update: the memo's path for
/// inputs of kMin..kMax bytes.
Digest whole(BytesView prefix, BytesView input) {
    Sha256 h;
    h.update(prefix);
    h.update(input);
    return h.finalize();
}

Digest hmac_chunked(BytesView key, BytesView message) {
    std::uint8_t k[64] = {};
    std::copy(key.begin(), key.end(), k);
    std::uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
        ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    const Digest inner = chunked(BytesView(ipad, 64), message);
    return chunked(BytesView(opad, 64), inner);
}

std::string hex(const Digest& d) { return to_hex(BytesView{d.data(), d.size()}); }

/// Makes the calling thread's memo store entries: it stays cold for the
/// thread's first kMemoWarmAbsorbs qualifying absorbs.
void warm_memo() {
    Rng rng(3);
    for (std::size_t i = 0; i < Sha256::kMemoWarmAbsorbs; ++i) whole({}, rng.bytes(kMin));
}

TEST(Sha256Memo, MatchesMemoFreeReferencesAtEveryBoundary) {
    warm_memo();
    Rng rng(23);
    const std::size_t sizes[] = {kMin - 1, kMin, kMin + 1, 8192, kMax, kMax + 1};
    for (const std::size_t size : sizes) {
        const bool memoized = size >= kMin && size <= kMax;
        for (std::size_t buffered = 0; buffered < 64; ++buffered) {
            const Bytes prefix = rng.bytes(buffered);
            const Bytes input = rng.bytes(size);
            const Digest want = chunked(prefix, input);
            ASSERT_EQ(hex(want), hex(portable(prefix, input))) << size << "/" << buffered;

            const Sha256MemoStats before = sha256_memo_stats();
            EXPECT_EQ(hex(whole(prefix, input)), hex(want)) << size << "/" << buffered;
            EXPECT_EQ(hex(whole(prefix, input)), hex(want)) << size << "/" << buffered;
            const Sha256MemoStats after = sha256_memo_stats();
            EXPECT_EQ(after.misses - before.misses, memoized ? 1u : 0u) << size;
            EXPECT_EQ(after.hits - before.hits, memoized ? 1u : 0u) << size;
        }
    }
}

TEST(Sha256Memo, HitResumesWithTheRightBufferedTail) {
    warm_memo();
    // After a hit the context keeps absorbing: the buffered tail the hit
    // restores must be the input's, whatever the alignment.
    Rng rng(5);
    const Bytes input = rng.bytes(kMin + 37);
    const Bytes more = rng.bytes(100);
    for (std::size_t buffered = 0; buffered < 64; buffered += 9) {
        const Bytes prefix = rng.bytes(buffered);
        Bytes all = prefix;
        all.insert(all.end(), input.begin(), input.end());
        all.insert(all.end(), more.begin(), more.end());
        for (int round = 0; round < 2; ++round) {
            Sha256 h;
            h.update(prefix).update(input).update(more);
            EXPECT_EQ(hex(h.finalize()), hex(portable({}, all))) << buffered << "/" << round;
        }
    }
}

TEST(Sha256Memo, InPlaceEditAfterAHitIsSeen) {
    warm_memo();
    // The stale-memo hazard: the same buffer, hashed, hit, then edited in
    // place. Position len / 4 is none of the eight-byte words the slot
    // index samples (first, middle, last), so that edit lands on the
    // same slot and only the full input compare can reject it.
    Rng rng(7);
    Bytes input = rng.bytes(8192);
    const std::size_t positions[] = {0, input.size() - 1, input.size() / 4};
    for (const std::size_t pos : positions) {
        whole({}, input);
        const Sha256MemoStats before = sha256_memo_stats();
        whole({}, input);
        ASSERT_EQ(sha256_memo_stats().hits, before.hits + 1);
        input[pos] ^= 0x01;
        EXPECT_EQ(hex(whole({}, input)), hex(chunked({}, input))) << "edit at " << pos;
        EXPECT_EQ(hex(whole({}, input)), hex(portable({}, input))) << "edit at " << pos;
    }
}

TEST(Sha256Memo, BufferedBytesArePartOfTheKey) {
    warm_memo();
    // Same state (nothing compressed yet), same buffered length, same
    // input, different buffered bytes: the slot is the same, the digest
    // is not.
    Rng rng(11);
    const Bytes input = rng.bytes(4096);
    Bytes prefix = rng.bytes(5);
    EXPECT_EQ(hex(whole(prefix, input)), hex(chunked(prefix, input)));
    prefix[2] ^= 0x80;
    EXPECT_EQ(hex(whole(prefix, input)), hex(chunked(prefix, input)));
}

TEST(Sha256Memo, StateIsPartOfTheKey) {
    warm_memo();
    // One message under more keys than the memo has slots: each key's
    // inner pad leaves a different state with nothing buffered, so slots
    // are shared among keys and only the state compare tells them apart.
    Rng rng(13);
    const Bytes message = rng.bytes(kMin);
    for (std::size_t k = 0; k <= Sha256::kMemoSlots; ++k) {
        const Bytes key = rng.bytes(32);
        const HmacKey hk(key);
        const Digest want = hmac_chunked(key, message);
        ASSERT_EQ(hex(hk.mac(message)), hex(want)) << "key " << k;
        ASSERT_EQ(hex(hk.mac(message)), hex(want)) << "key " << k << ", again";
    }
}

TEST(Sha256Memo, TwoKeysGiveTwoMacs) {
    warm_memo();
    Rng rng(17);
    const Bytes message = rng.bytes(8192);
    const Bytes key_a = rng.bytes(32);
    const Bytes key_b = rng.bytes(32);
    const HmacKey a(key_a), b(key_b);
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(hex(a.mac(message)), hex(hmac_chunked(key_a, message)));
        EXPECT_EQ(hex(b.mac(message)), hex(hmac_chunked(key_b, message)));
        EXPECT_NE(hex(a.mac(message)), hex(b.mac(message)));
    }
}

TEST(Sha256Memo, EvictionAndArenaWrapStayCorrect) {
    warm_memo();
    // Twice as many distinct inputs as slots, sized so they wrap the
    // arena several times, then every one of them again.
    Rng rng(19);
    std::vector<Bytes> inputs;
    std::size_t total = 0;
    for (std::size_t i = 0; i < 2 * Sha256::kMemoSlots; ++i) {
        inputs.push_back(rng.bytes(kMin + rng.next_below(kMax - kMin + 1)));
        total += inputs.back().size();
    }
    ASSERT_GT(total, 4 * Sha256::kMemoArenaBytes);
    std::vector<Digest> want;
    for (const Bytes& in : inputs) {
        want.push_back(chunked({}, in));
        ASSERT_EQ(hex(whole({}, in)), hex(want.back()));
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        ASSERT_EQ(hex(whole({}, inputs[i])), hex(want[i])) << "input " << i;
    }
    // The most recent inputs are still held.
    const Sha256MemoStats before = sha256_memo_stats();
    whole({}, inputs.back());
    EXPECT_EQ(sha256_memo_stats().hits, before.hits + 1);
}

TEST(Sha256Memo, MillionAInLongUpdates) {
    const std::string want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    const Bytes a(1'000'000, 'a');
    for (const std::size_t step : {std::size_t{1024}, kMin, std::size_t{8192}}) {
        for (int round = 0; round < 2; ++round) {
            Sha256 h;
            for (std::size_t at = 0; at < a.size(); at += step) {
                h.update(BytesView(a).subspan(at, std::min(step, a.size() - at)));
            }
            EXPECT_EQ(hex(h.finalize()), want) << step << "-byte updates, round " << round;
        }
    }
}

TEST(Sha256Memo, HitCompressesOnlyThePadding) {
    warm_memo();
    Rng rng(29);
    const Bytes input = rng.bytes(8192);  // 128 blocks, then one of padding
    std::uint64_t before = sha256_blocks_compressed();
    const Digest first = whole({}, input);
    EXPECT_EQ(sha256_blocks_compressed() - before, 129u);
    before = sha256_blocks_compressed();
    EXPECT_EQ(hex(whole({}, input)), hex(first));
    EXPECT_EQ(sha256_blocks_compressed() - before, 1u);
}

TEST(Sha256Memo, EachThreadHasItsOwnMemoAndCounters) {
    Rng rng(31);
    const Bytes shared = rng.bytes(4096);
    std::vector<Bytes> own[2];
    for (auto& inputs : own) {
        for (int i = 0; i < 8; ++i) inputs.push_back(rng.bytes(kMin + 64 * i));
    }
    struct Outcome {
        Sha256MemoStats stats;
        bool correct = true;
    };
    Outcome outcome[2];
    auto work = [&](int t) {
        Outcome& out = outcome[t];
        warm_memo();
        const Sha256MemoStats warm = sha256_memo_stats();
        for (int round = 0; round < 3; ++round) {
            for (const Bytes& in : own[t]) {
                out.correct &= whole({}, in) == chunked({}, in);
                out.correct &= whole({}, shared) == chunked({}, shared);
            }
        }
        out.stats = sha256_memo_stats();
        out.stats.hits -= warm.hits;
        out.stats.misses -= warm.misses;
    };
    std::thread a(work, 0), b(work, 1);
    a.join();
    b.join();
    for (const Outcome& out : outcome) {
        EXPECT_TRUE(out.correct);
        // A fresh thread starts empty: 8 own inputs plus the shared one
        // miss once each after the warm-up, whatever the other thread
        // hashed.
        EXPECT_EQ(out.stats.misses, 9u);
        EXPECT_EQ(out.stats.hits, 3u * 16u - 9u);
    }
}

TEST(Sha256Memo, ColdThreadStoresNothing) {
    // A thread whose long absorbs are few never fills (or allocates)
    // its memo: the same input misses until the warm-up count is spent.
    Rng rng(37);
    const Bytes input = rng.bytes(kMin);
    Sha256MemoStats stats;
    bool correct = true;
    std::thread cold([&] {
        for (std::size_t i = 0; i < Sha256::kMemoWarmAbsorbs; ++i) {
            correct &= whole({}, input) == chunked({}, input);
        }
        stats = sha256_memo_stats();
        correct &= whole({}, input) == chunked({}, input);
        stats.hits = sha256_memo_stats().hits - stats.hits;
    });
    cold.join();
    EXPECT_TRUE(correct);
    EXPECT_EQ(stats.misses, Sha256::kMemoWarmAbsorbs);
    EXPECT_EQ(stats.hits, 1u);  // the last absorb stored its entry
}

}  // namespace
}  // namespace zc::crypto
