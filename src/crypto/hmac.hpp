// HMAC-SHA256 (RFC 2104). Used by the FastCrypto simulation provider and
// available for keyed integrity checks.
#pragma once

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace zc::crypto {

/// An HMAC-SHA256 key with its pads absorbed: the hash states after the
/// ipad and the opad block. mac() starts from copies of them, so a key
/// that signs many messages derives and hashes its pads once.
class HmacKey {
public:
    explicit HmacKey(BytesView key) noexcept;

    /// HMAC-SHA256(key, message).
    Digest mac(BytesView message) const noexcept;

private:
    Sha256 inner_;
    Sha256 outer_;
};

/// Computes HMAC-SHA256(key, message): HmacKey(key).mac(message).
Digest hmac_sha256(BytesView key, BytesView message) noexcept;

}  // namespace zc::crypto
