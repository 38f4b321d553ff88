#include "crypto/provider.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace zc::crypto {

KeyPair Ed25519Provider::generate(Rng& rng) { return ed25519::generate(rng); }

Signature Ed25519Provider::sign(const KeyPair& key, BytesView message) {
    return ed25519::sign(key, message);
}

bool Ed25519Provider::verify(const PublicKey& pub, BytesView message, const Signature& sig) {
    return ed25519::verify(pub, message, sig);
}

KeyPair FastProvider::generate(Rng& rng) {
    KeyPair kp;
    Bytes seed = rng.bytes(kp.seed.size());
    std::memcpy(kp.seed.data(), seed.data(), kp.seed.size());

    // Public key = SHA256(seed || "pub"): unforgeable link without exposing
    // the seed through the public key itself.
    Bytes pub_input(kp.seed.begin(), kp.seed.end());
    append(pub_input, to_bytes("pub"));
    const Digest pub = sha256(pub_input);
    std::memcpy(kp.pub.v.data(), pub.data(), pub.size());

    registry_[kp.pub] = kp.seed;
    return kp;
}

Signature FastProvider::compute(const std::array<std::uint8_t, 32>& seed,
                                BytesView message) const {
    const Digest mac = hmac_sha256(BytesView{seed.data(), seed.size()}, message);
    // Second half binds a domain-separated copy so the signature is 64 bytes
    // like Ed25519 and on-wire sizes match exactly.
    Bytes second_input(mac.begin(), mac.end());
    append(second_input, to_bytes("ext"));
    const Digest mac2 = sha256(second_input);

    Signature sig;
    std::memcpy(sig.v.data(), mac.data(), 32);
    std::memcpy(sig.v.data() + 32, mac2.data(), 32);
    return sig;
}

Signature FastProvider::sign(const KeyPair& key, BytesView message) {
    return compute(key.seed, message);
}

bool FastProvider::verify(const PublicKey& pub, BytesView message, const Signature& sig) {
    const auto it = registry_.find(pub);
    if (it == registry_.end()) return false;
    const Signature expected = compute(it->second, message);
    return equal_ct(BytesView{expected.v.data(), expected.v.size()},
                    BytesView{sig.v.data(), sig.v.size()});
}

bool CountingProvider::verify(const PublicKey& pub, BytesView message, const Signature& sig) {
    ++calls_;
    Sha256 h;
    h.update(pub.v.data(), pub.v.size());
    h.update(sig.v.data(), sig.v.size());
    h.update(message);
    seen_.insert(h.finalize());
    return inner_.verify(pub, message, sig);
}

void CountingProvider::reset() {
    calls_ = 0;
    signs_ = 0;
    seen_.clear();
}

std::unique_ptr<CryptoProvider> make_provider(std::string_view name) {
    if (name == "ed25519") return std::make_unique<Ed25519Provider>();
    if (name == "fast") return std::make_unique<FastProvider>();
    throw std::invalid_argument("unknown crypto provider: " + std::string(name));
}

}  // namespace zc::crypto
