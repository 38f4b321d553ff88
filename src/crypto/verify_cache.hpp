// Per-thread cache of completed signature verifications.
//
// The verification of a (public key, message, signature) triple is a pure
// function: the same inputs always produce the same boolean, for both
// providers. That makes its result safe to share across principals —
// every replica of a consist verifies the same PrePrepares, Commits and
// certificates, so the first CryptoContext::verify of a triple pays for
// the provider call and the others reuse its verdict.
//
// The cache is HOST-ONLY state: it decides whether the host re-runs the
// provider, never what the simulation observes. Virtual CPU charging is
// decided exclusively by the per-node VerifyMemo in CryptoContext, so
// same-seed runs produce byte-identical virtual output whether this cache
// is empty, warm, or disabled.
//
// Keys are a fast 256-bit mixing hash over (provider-name, pubkey, sig,
// message) with per-field length separators: content-addressed, so
// distinct key directories, shards, or scenario instances can never
// alias. The hash is deliberately NOT cryptographic — on the hot path it
// would otherwise cost as much as the verification it memoizes. It only
// has to keep honest traffic collision-free (the key identifies a triple;
// the equality classes that drive charging are the triples themselves),
// and 128+ effective bits leave astronomical margin at simulation
// volumes. Capacity is bounded by 4-way set-associative replacement; an
// evicted entry just means one redundant provider call.
//
// Each thread has its own table, built on the thread's first verify: a
// fleet's trains verify on worker threads (fleet::Fleet), and a table
// shared between them would need a lock on every verification. The
// replicas that re-verify the same triple belong to one train, which
// runs on one thread per window and mostly on the same thread across
// windows, so a private table loses little.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/ed25519.hpp"

namespace zc::crypto {

/// Content-addressed cache key for one verification. `provider_name`
/// namespaces results so a fast-HMAC verdict can never satisfy an
/// Ed25519 lookup (or vice versa) in a process that runs both.
Digest verify_cache_key(const char* provider_name, const PublicKey& pub, BytesView message,
                        const Signature& sig) noexcept;

/// Bounded map Digest -> bool: a fixed slot array in sets of kWays (no
/// allocation on the hot path, one set probed per operation — this sits on
/// every verification the simulator performs). Single-threaded: one per
/// thread.
class VerifyCache {
public:
    static constexpr std::size_t kSlots = 4096;  // power of two; ~136 KiB
    static constexpr std::size_t kWays = 4;

    /// Returns true and sets `ok` if the triple's verdict is cached.
    bool lookup(const Digest& key, bool& ok) const noexcept;

    /// Records a verdict (idempotent). A key whose set is full replaces
    /// one occupant (chosen by key bits): lossy is fine for a cache, the
    /// evictee just pays one provider call.
    void insert(const Digest& key, bool ok);

    /// Master switch (tests / A-B measurement). Disabled lookups miss and
    /// disabled inserts are dropped; virtual output is unaffected either
    /// way.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

    /// Empties every slot and zeroes the hit/miss/insert counters.
    void clear();

    std::uint64_t hits() const noexcept { return hits_; }
    std::uint64_t misses() const noexcept { return misses_; }
    std::uint64_t inserts() const noexcept { return inserts_; }

private:
    struct Slot {
        Digest key{};
        bool ok = false;
        bool used = false;
    };

    static std::uint64_t bits_of(const Digest& key) noexcept {
        std::uint64_t h;
        std::memcpy(&h, key.data() + 8, sizeof h);
        return h;
    }
    /// First slot of the key's set.
    static std::size_t set_of(std::uint64_t bits) noexcept {
        return static_cast<std::size_t>(bits) & (kSlots - kWays);
    }

    std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
    bool enabled_ = true;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
};

/// The calling thread's instance, shared by every CryptoContext that
/// verifies on this thread (built on first use).
VerifyCache& global_verify_cache() noexcept;

}  // namespace zc::crypto
