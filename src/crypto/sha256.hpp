// SHA-256 (FIPS 180-4), implemented from scratch. Validated against the
// standard test vectors in tests/crypto/sha_test.cpp. The compression
// function runs on the CPU's SHA instructions where the host has them
// (crypto/detail/sha256_kernel.hpp).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace zc::crypto {

/// Incremental SHA-256 context.
class Sha256 {
public:
    Sha256() noexcept;

    Sha256& update(BytesView data) noexcept;
    Sha256& update(const void* data, std::size_t len) noexcept;

    /// Finalizes and returns the digest. The context must not be reused
    /// afterwards (construct a fresh one).
    Digest finalize() noexcept;

private:
    std::uint32_t state_[8];
    std::uint64_t total_len_ = 0;
    std::uint8_t buffer_[64];
    std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data) noexcept;

}  // namespace zc::crypto
