// SHA-256 (FIPS 180-4), implemented from scratch. Validated against the
// standard test vectors in tests/crypto/sha_test.cpp. The compression
// function runs on the CPU's SHA instructions where the host has them
// (crypto/detail/sha256_kernel.hpp).
//
// Long absorbs go through a per-thread memo. The replicas of a consist
// hash the same telegram bytes from the same starting state several
// times each (bus tap, request digest, Merkle leaf, their re-checks).
// An update() of kMemoMinBytes..kMemoMaxBytes looks up the exact pair
// (state and buffered partial block in, input bytes); on a match it
// restores the stored state instead of compressing. A match needs equal
// state words, an equal buffered block, an equal length and a memcmp of
// the whole input against a stored copy, so the memo caches a pure
// function and every digest is what the compression would produce. The
// memo is thread_local (no locks, nothing shared). It starts storing on
// a thread's kMemoWarmAbsorbs-th qualifying absorb, so a thread that
// hashes a handful of long inputs never allocates it; it then allocates
// its fixed budget once, and a miss allocates nothing after that.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace zc::crypto {

/// Incremental SHA-256 context.
class Sha256 {
public:
    Sha256() noexcept;

    /// Absorbs of this many bytes or more, up to kMemoMaxBytes, go
    /// through the calling thread's memo; longer ones bypass it.
    static constexpr std::size_t kMemoMinBytes = 4096;
    static constexpr std::size_t kMemoMaxBytes = 16 * 1024;
    /// Qualifying absorbs a thread makes before its memo stores any.
    static constexpr std::size_t kMemoWarmAbsorbs = 16;
    /// Direct-mapped slots. The slot index mixes the state words, both
    /// lengths, and the input's first, middle and last eight bytes; it
    /// only picks a slot, so a collision costs a miss.
    static constexpr std::size_t kMemoSlots = 256;
    /// Bytes of stored inputs kept per thread: a ring, oldest overwritten.
    static constexpr std::size_t kMemoArenaBytes = 1024 * 1024;

    Sha256& update(BytesView data) noexcept;
    Sha256& update(const void* data, std::size_t len) noexcept;

    /// Finalizes and returns the digest. The context must not be reused
    /// afterwards (construct a fresh one).
    Digest finalize() noexcept;

private:
    void absorb(const std::uint8_t* p, std::size_t len) noexcept;
    void absorb_memoized(const std::uint8_t* p, std::size_t len) noexcept;

    std::uint32_t state_[8];
    std::uint64_t total_len_ = 0;
    std::uint8_t buffer_[64];
    std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data) noexcept;

/// The calling thread's memo counters since the thread started: a hit
/// restored a stored state, a miss compressed (and, once the memo is
/// warm, stored the result).
struct Sha256MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
Sha256MemoStats sha256_memo_stats() noexcept;

/// 64-byte blocks the calling thread has compressed since it started
/// (memo hits compress none). Tests pin the hash work of a hot path.
std::uint64_t sha256_blocks_compressed() noexcept;

}  // namespace zc::crypto
