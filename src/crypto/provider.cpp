#include "crypto/provider.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

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

    registry_[kp.pub] = Secret{kp.seed, std::nullopt};
    return kp;
}

const HmacKey& FastProvider::pads(Secret& secret) {
    if (!secret.pads) secret.pads.emplace(BytesView{secret.seed.data(), secret.seed.size()});
    return *secret.pads;
}

Signature FastProvider::finish(const Digest& mac) {
    // Second half binds a domain-separated copy so the signature is 64 bytes
    // like Ed25519 and on-wire sizes match exactly: SHA256(mac || "ext").
    static constexpr std::uint8_t kExt[] = {'e', 'x', 't'};
    const Digest mac2 =
        Sha256().update(mac.data(), mac.size()).update(kExt, sizeof kExt).finalize();

    Signature sig;
    std::memcpy(sig.v.data(), mac.data(), 32);
    std::memcpy(sig.v.data() + 32, mac2.data(), 32);
    return sig;
}

Signature FastProvider::sign(const KeyPair& key, BytesView message) {
    // A key this provider generated signs from its cached pads; any other
    // key pair derives them for this one signature.
    const auto it = registry_.find(key.pub);
    if (it != registry_.end() && it->second.seed == key.seed) {
        return finish(pads(it->second).mac(message));
    }
    return finish(HmacKey(BytesView{key.seed.data(), key.seed.size()}).mac(message));
}

bool FastProvider::verify(const PublicKey& pub, BytesView message, const Signature& sig) {
    const auto it = registry_.find(pub);
    if (it == registry_.end()) return false;
    const Signature expected = finish(pads(it->second).mac(message));
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
