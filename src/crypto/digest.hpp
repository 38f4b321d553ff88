// Fixed-size digest type used for block hashes, payload digests and
// checkpoint state digests.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace zc::crypto {

/// 32-byte digest (SHA-256 output).
using Digest = std::array<std::uint8_t, 32>;

inline BytesView view(const Digest& d) { return BytesView{d.data(), d.size()}; }

/// Hash functor for unordered containers keyed by Digest.
struct DigestHash {
    std::size_t operator()(const Digest& d) const noexcept {
        std::uint64_t h;
        std::memcpy(&h, d.data(), sizeof h);
        return h;
    }
};

}  // namespace zc::crypto
