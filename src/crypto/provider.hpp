// Signature-provider abstraction.
//
// All protocol code signs/verifies through this interface. Two providers
// exist:
//  * Ed25519Provider — real RFC 8032 signatures (what the paper's Rust
//    prototype uses via `ring`).
//  * FastProvider — HMAC-based simulation signatures for very large
//    parameter sweeps. Verifiers look up the signer's secret in a shared
//    registry, which is only sound inside a single-process simulation.
//    The CPU *cost* charged by the metrics model is identical for both, so
//    switching providers changes host runtime, never simulated results.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/digest.hpp"
#include "crypto/ed25519.hpp"

namespace zc::crypto {

class CryptoProvider {
public:
    virtual ~CryptoProvider() = default;

    /// Generates a key pair from simulation randomness.
    virtual KeyPair generate(Rng& rng) = 0;

    /// Signs a message with the given key pair.
    virtual Signature sign(const KeyPair& key, BytesView message) = 0;

    /// Verifies a signature against a public key.
    virtual bool verify(const PublicKey& pub, BytesView message, const Signature& sig) = 0;

    /// Human-readable provider name for experiment logs.
    virtual const char* name() const noexcept = 0;
};

/// Real Ed25519 signatures.
class Ed25519Provider final : public CryptoProvider {
public:
    KeyPair generate(Rng& rng) override;
    Signature sign(const KeyPair& key, BytesView message) override;
    bool verify(const PublicKey& pub, BytesView message, const Signature& sig) override;
    const char* name() const noexcept override { return "ed25519"; }
};

/// HMAC-SHA256 simulation signatures (single-process only; see file
/// comment). Signature = HMAC(secret, message) || HMAC(secret, message)'.
class FastProvider final : public CryptoProvider {
public:
    KeyPair generate(Rng& rng) override;
    Signature sign(const KeyPair& key, BytesView message) override;
    bool verify(const PublicKey& pub, BytesView message, const Signature& sig) override;
    const char* name() const noexcept override { return "fast-hmac"; }

private:
    Signature compute(const std::array<std::uint8_t, 32>& seed, BytesView message) const;

    // public key -> seed, so any party can "verify" in-process.
    std::unordered_map<PublicKey, std::array<std::uint8_t, 32>, PublicKeyHash> registry_;
};

/// Instrumentation wrapper counting provider-level verify work: total
/// calls versus distinct (key, message, signature) triples seen. The
/// redundant-verification regression tests pin `calls() == unique()` on
/// the memoized path — every triple hits the provider at most once.
class CountingProvider final : public CryptoProvider {
public:
    explicit CountingProvider(CryptoProvider& inner) : inner_(inner) {}

    KeyPair generate(Rng& rng) override { return inner_.generate(rng); }
    Signature sign(const KeyPair& key, BytesView message) override {
        ++signs_;
        return inner_.sign(key, message);
    }
    bool verify(const PublicKey& pub, BytesView message, const Signature& sig) override;
    const char* name() const noexcept override { return inner_.name(); }

    std::uint64_t calls() const noexcept { return calls_; }
    std::uint64_t unique() const noexcept { return seen_.size(); }
    std::uint64_t signs() const noexcept { return signs_; }
    void reset();

private:
    CryptoProvider& inner_;
    std::uint64_t calls_ = 0;
    std::uint64_t signs_ = 0;
    std::unordered_set<Digest, DigestHash> seen_;
};

/// Factory by name ("ed25519" | "fast"); throws std::invalid_argument.
std::unique_ptr<CryptoProvider> make_provider(std::string_view name);

}  // namespace zc::crypto
