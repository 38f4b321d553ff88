#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <new>

#include "crypto/detail/sha256_kernel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ZC_SHA256_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace zc::crypto {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

#ifdef ZC_SHA256_SHANI

// The state is kept as the two lanes sha256rnds2 works on: ABEF and CDGH.
// Each of the 16 steps runs four rounds on one message quad; from the
// fifth step on, the quad is scheduled from the four before it.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) noexcept {
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; nblocks > 0; --nblocks, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i) {
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), bswap);
        }
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            if (i >= 4) {
                // w[i&3] holds quad i-4; the others hold i-3, i-2, i-1.
                const __m128i prev = w[(i + 3) & 3];
                const __m128i s0 = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
                const __m128i w7 = _mm_alignr_epi8(prev, w[(i + 2) & 3], 4);
                w[i & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), prev);
            }
            __m128i wk = _mm_add_epi32(
                w[i & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            wk = _mm_shuffle_epi32(wk, 0x0e);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool cpu_has_shani() noexcept {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    const bool ssse3 = (c & (1u << 9)) != 0;
    const bool sse41 = (c & (1u << 19)) != 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    const bool sha = (b & (1u << 29)) != 0;
    return sha && ssse3 && sse41;
}

#endif  // ZC_SHA256_SHANI

thread_local std::uint64_t t_blocks_compressed = 0;

void compress_counted(std::uint32_t* state, const std::uint8_t* blocks,
                      std::size_t nblocks) noexcept {
    t_blocks_compressed += nblocks;
    detail::sha256_active_kernel()(state, blocks, nblocks);
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// The per-thread absorb memo: direct-mapped slots over a ring arena that
/// holds each entry's buffered bytes followed by its input. Arena
/// positions count up forever; an entry is live while fewer than
/// kArena bytes have been written since its start. Slots and arena are
/// allocated, uninitialised, on the thread's kMemoWarmAbsorbs-th
/// qualifying absorb, so a thread that hashes a handful of long inputs
/// never takes a heap block the rest of the run could have reused.
class AbsorbMemo {
public:
    static constexpr std::size_t kSlots = Sha256::kMemoSlots;
    static constexpr std::size_t kArena = Sha256::kMemoArenaBytes;
    static_assert(std::has_single_bit(kSlots));
    static_assert(kArena >= Sha256::kMemoMaxBytes + 64);

    /// On a match for (state, buffered bytes, input) writes the state
    /// after the absorb to `out` and returns true.
    bool lookup(const std::uint32_t* state, const std::uint8_t* buf, std::size_t buf_len,
                const std::uint8_t* p, std::size_t len, std::uint32_t* out) noexcept {
        if (!slots_) return false;
        const std::size_t i = index(state, buf_len, p, len);
        if ((used_[i / 64] >> (i % 64) & 1) == 0) return false;
        const Slot& s = slots_[i];
        if (s.len != len || s.buf_len != buf_len || head_ - s.pos > kArena) return false;
        if (std::memcmp(s.state_in, state, sizeof s.state_in) != 0) return false;
        const std::uint8_t* e = arena_.get() + s.pos % kArena;
        if (std::memcmp(e, buf, buf_len) != 0) return false;
        if (std::memcmp(e + buf_len, p, len) != 0) return false;
        std::memcpy(out, s.state_out, sizeof s.state_out);
        return true;
    }

    /// Records that absorbing `p` from (`state_in`, buffered bytes) gave
    /// `state_out`, replacing the slot's previous entry. Stores nothing
    /// if the memo cannot be allocated: no digest depends on it.
    void store(const std::uint32_t* state_in, const std::uint8_t* buf, std::size_t buf_len,
               const std::uint8_t* p, std::size_t len,
               const std::uint32_t* state_out) noexcept {
        if (!slots_) {
            if (++cold_absorbs_ < Sha256::kMemoWarmAbsorbs) return;
            // Left uninitialised: used_ says which slots hold an entry.
            slots_.reset(new (std::nothrow) Slot[kSlots]);
            arena_.reset(new (std::nothrow) std::uint8_t[kArena]);
            if (!slots_ || !arena_) {
                slots_.reset();
                return;
            }
        }
        const std::size_t n = buf_len + len;
        if (head_ % kArena + n > kArena) head_ += kArena - head_ % kArena;  // wrap
        const std::size_t i = index(state_in, buf_len, p, len);
        Slot& s = slots_[i];
        std::memcpy(s.state_in, state_in, sizeof s.state_in);
        std::memcpy(s.state_out, state_out, sizeof s.state_out);
        s.pos = head_;
        s.len = static_cast<std::uint32_t>(len);
        s.buf_len = static_cast<std::uint32_t>(buf_len);
        std::uint8_t* e = arena_.get() + head_ % kArena;
        std::memcpy(e, buf, buf_len);
        std::memcpy(e + buf_len, p, len);
        head_ += n;
        used_[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    Sha256MemoStats stats;

private:
    struct Slot {
        std::uint32_t state_in[8];
        std::uint32_t state_out[8];
        std::uint64_t pos;
        std::uint32_t len;
        std::uint32_t buf_len;
    };

    static std::size_t index(const std::uint32_t* state, std::size_t buf_len,
                             const std::uint8_t* p, std::size_t len) noexcept {
        constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
        std::uint64_t h = (std::uint64_t{len} << 6 | buf_len) * kMul;
        for (int w = 0; w < 8; w += 2) {
            h = (h ^ (std::uint64_t{state[w]} << 32 | state[w + 1])) * kMul;
        }
        h = (h ^ load_u64(p)) * kMul;
        h = (h ^ load_u64(p + len / 2)) * kMul;
        h = (h ^ load_u64(p + len - 8)) * kMul;
        return static_cast<std::size_t>(h >> 32) & (kSlots - 1);
    }

    std::unique_ptr<Slot[]> slots_;
    std::unique_ptr<std::uint8_t[]> arena_;
    std::size_t cold_absorbs_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t used_[kSlots / 64] = {};
};

thread_local AbsorbMemo t_memo;

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks) noexcept {
    for (; nblocks > 0; --nblocks, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
            const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

Sha256Compress sha256_shani_kernel() noexcept {
#ifdef ZC_SHA256_SHANI
    static const Sha256Compress kernel = cpu_has_shani() ? &compress_shani : nullptr;
    return kernel;
#else
    return nullptr;
#endif
}

Sha256Compress sha256_active_kernel() noexcept {
    static const Sha256Compress kernel = [] {
        const Sha256Compress shani = sha256_shani_kernel();
        return shani != nullptr ? shani : &sha256_compress_portable;
    }();
    return kernel;
}

const char* sha256_kernel_name() noexcept {
    return sha256_active_kernel() == &sha256_compress_portable ? "portable" : "sha-ni";
}

}  // namespace detail

Sha256::Sha256() noexcept {
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
}

Sha256& Sha256::update(const void* data, std::size_t len) noexcept {
    if (len == 0) return *this;  // an empty view may carry a null pointer: no memcpy from it
    const auto* p = static_cast<const std::uint8_t*>(data);
    if (len >= kMemoMinBytes && len <= kMemoMaxBytes) {
        absorb_memoized(p, len);
    } else {
        absorb(p, len);
    }
    return *this;
}

void Sha256::absorb_memoized(const std::uint8_t* p, std::size_t len) noexcept {
    AbsorbMemo& memo = t_memo;
    std::uint32_t out[8];
    if (memo.lookup(state_, buffer_, buffer_len_, p, len, out)) {
        ++memo.stats.hits;
        std::memcpy(state_, out, sizeof state_);
        total_len_ += len;
        // The input is longer than a block, so what stays buffered is its tail.
        const std::size_t rest = (buffer_len_ + len) % sizeof(buffer_);
        std::memcpy(buffer_, p + len - rest, rest);
        buffer_len_ = rest;
        return;
    }
    ++memo.stats.misses;
    std::uint32_t state_in[8];
    std::uint8_t buffer_in[sizeof(buffer_)];
    const std::size_t buffer_len_in = buffer_len_;
    std::memcpy(state_in, state_, sizeof state_);
    std::memcpy(buffer_in, buffer_, buffer_len_in);
    absorb(p, len);
    memo.store(state_in, buffer_in, buffer_len_in, p, len, state_);
}

void Sha256::absorb(const std::uint8_t* p, std::size_t len) noexcept {
    total_len_ += len;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
        std::memcpy(buffer_ + buffer_len_, p, take);
        buffer_len_ += take;
        p += take;
        len -= take;
        if (buffer_len_ == sizeof(buffer_)) {
            compress_counted(state_, buffer_, 1);
            buffer_len_ = 0;
        }
    }
    if (len >= sizeof(buffer_)) {
        const std::size_t nblocks = len / sizeof(buffer_);
        compress_counted(state_, p, nblocks);
        p += nblocks * sizeof(buffer_);
        len -= nblocks * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, p, len);
        buffer_len_ = len;
    }
}

Sha256& Sha256::update(BytesView data) noexcept { return update(data.data(), data.size()); }

Digest Sha256::finalize() noexcept {
    const std::uint64_t bit_len = total_len_ * 8;
    // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the
    // last 8 bytes of a block. With fewer than 9 bytes free after the
    // data, the padding spills into one more block.
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > sizeof(buffer_) - 8) {
        std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
        compress_counted(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - 8 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress_counted(state_, buffer_, 1);

    Digest out;
    for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
    return out;
}

Digest sha256(BytesView data) noexcept { return Sha256().update(data).finalize(); }

Sha256MemoStats sha256_memo_stats() noexcept { return t_memo.stats; }

std::uint64_t sha256_blocks_compressed() noexcept { return t_blocks_compressed; }

}  // namespace zc::crypto
