// Per-node crypto context: key directory + signing/verification that
// charges the virtual CPU cost model.
//
// All protocol-level crypto goes through this wrapper so that (a) replicas
// address each other by NodeId instead of raw keys and (b) every signature
// operation is metered — the paper's latency and CPU numbers are dominated
// by Ed25519 on the 800 MHz Cortex-A9, so metering here is what transfers
// those shapes into the simulation.
#pragma once

#include <array>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/ids.hpp"
#include "crypto/provider.hpp"
#include "crypto/verify_cache.hpp"
#include "metrics/cost_model.hpp"
#include "prof/prof.hpp"

namespace zc::crypto {

/// Accumulates virtual CPU cost during one handler invocation; the node
/// executor drains it to occupy the core.
class WorkMeter {
public:
    void add(Duration d) noexcept { pending_ += d; }
    Duration take() noexcept {
        const Duration d = pending_;
        pending_ = Duration::zero();
        return d;
    }
    Duration pending() const noexcept { return pending_; }

private:
    Duration pending_{Duration::zero()};
};

/// Maps node/data-center ids to public keys (the permissioned membership,
/// fixed at deployment per the paper).
class KeyDirectory {
public:
    void register_key(std::uint32_t id, const PublicKey& key) { keys_[id] = key; }

    const PublicKey& key_of(std::uint32_t id) const {
        const auto it = keys_.find(id);
        if (it == keys_.end()) throw std::out_of_range("unknown key id");
        return it->second;
    }

    bool known(std::uint32_t id) const noexcept { return keys_.contains(id); }

private:
    std::unordered_map<std::uint32_t, PublicKey> keys_;
};

/// Bounded digest-keyed memo of this principal's completed verifications.
///
/// This is VIRTUAL state: a real node would keep exactly this table in
/// RAM, so its contents decide virtual CPU charging (first sight of a
/// (signer, bytes, sig) triple pays the full asymmetric cost, repeats pay
/// hash-only re-check cost) and its result short-circuits redundant
/// certificate re-verification. It is only ever touched from the event
/// loop, in deterministic order, which is what keeps same-seed runs
/// byte-identical.
///
/// Layout: a fixed direct-mapped slot array (the table a constrained
/// device would actually ship — bounded RAM, no allocation, one probe
/// per lookup). A new key evicts whatever occupied its slot; the slot
/// index is a pure function of the key bytes, so replacement is as
/// deterministic as the inserts themselves. This runs on every signature
/// verification in the simulator — at fleet scale a node-allocating map
/// here measurably drags the whole event loop through the allocator and
/// the CPU cache, which is also not a table a real device would keep.
class VerifyMemo {
public:
    static constexpr std::size_t kSlots = 1024;  // power of two, ~34 KiB

    const bool* find(const Digest& key) const noexcept {
        const Slot& s = slots_[slot_of(key)];
        if (!s.used || s.key != key) return nullptr;
        return &s.ok;
    }

    /// First write for a key wins (a triple's verdict never changes);
    /// a different key mapping to the same slot replaces the occupant.
    void insert(const Digest& key, bool ok) noexcept {
        Slot& s = slots_[slot_of(key)];
        if (s.used && s.key == key) return;
        if (!s.used) ++size_;
        s.key = key;
        s.ok = ok;
        s.used = true;
    }

    void clear() noexcept {
        for (Slot& s : slots_) s.used = false;
        size_ = 0;
    }

    std::size_t size() const noexcept { return size_; }

private:
    struct Slot {
        Digest key{};
        bool ok = false;
        bool used = false;
    };

    static std::size_t slot_of(const Digest& key) noexcept {
        std::uint64_t h;
        std::memcpy(&h, key.data(), sizeof h);
        return static_cast<std::size_t>(h) & (kSlots - 1);
    }

    std::array<Slot, kSlots> slots_{};
    std::size_t size_ = 0;
};

/// One principal's view of the crypto subsystem.
class CryptoContext {
public:
    CryptoContext(CryptoProvider& provider, const KeyDirectory& directory, KeyPair key,
                  const metrics::CostModel& costs, WorkMeter& meter)
        : provider_(provider), directory_(directory), key_(std::move(key)), costs_(costs),
          meter_(meter) {}

    /// Signs with this principal's key; charges sign + hash cost.
    Signature sign(BytesView message) {
        ZC_PROF_SCOPE(kCryptoSign);
        meter_.add(costs_.sign_msg(message.size()));
        return provider_.sign(key_, message);
    }

    /// Verifies a signature by `signer`. Unknown signers fail verification
    /// (permissioned membership) at full cost.
    ///
    /// Charging is memoized: the first verification of a distinct
    /// (signer, bytes, sig) triple charges verify + hash; any repeat —
    /// e.g. a Commit re-checked inside a checkpoint certificate, or a
    /// PrePrepare re-validated during a view change — charges hash-only
    /// re-check cost, because a real node holding the memo would not redo
    /// the asymmetric operation. The memo is virtual state updated only
    /// here (event-loop order), so outputs are deterministic; whether the
    /// *host* skips the provider call on a hit is an orthogonal,
    /// output-invisible optimization (see set_host_recheck).
    bool verify(std::uint32_t signer, BytesView message, const Signature& sig) {
        ZC_PROF_SCOPE(kCryptoVerify);
        if (!directory_.known(signer)) {
            meter_.add(costs_.verify_msg(message.size()));
            return false;
        }
        const PublicKey& pub = directory_.key_of(signer);
        const Digest key = verify_cache_key(provider_.name(), pub, message, sig);
        if (const bool* hit = memo_.find(key)) {
            meter_.add(costs_.verify_cached(message.size()));
            if (s_host_recheck) {
                const bool again = provider_.verify(pub, message, sig);
                assert(again == *hit);
                (void)again;
            }
            return *hit;
        }
        meter_.add(costs_.verify_msg(message.size()));
        bool ok;
        VerifyCache& cache = global_verify_cache();
        if (cache.lookup(key, ok)) {
            // Verified earlier by another principal. Host-only shortcut;
            // charging above is unchanged.
            if (s_host_recheck) {
                const bool again = provider_.verify(pub, message, sig);
                assert(again == ok);
                (void)again;
            }
        } else {
            ok = provider_.verify(pub, message, sig);
            cache.insert(key, ok);
        }
        memo_.insert(key, ok);
        return ok;
    }

    /// Drops the memo (power loss: a real node's RAM table is gone).
    void reset_memo() noexcept { memo_.clear(); }
    const VerifyMemo& memo() const noexcept { return memo_; }

    /// Test/CI knob: when on, memo and cache hits still re-run the
    /// provider and assert the stored verdict — proving the host-side
    /// skip never changes a result. Charging (and therefore every virtual
    /// output) is identical with this on or off.
    static void set_host_recheck(bool on) noexcept { s_host_recheck = on; }
    static bool host_recheck() noexcept { return s_host_recheck; }

    /// Charges hashing work without performing crypto (block building etc.).
    void charge_hash(std::size_t bytes) { meter_.add(costs_.hash(bytes)); }
    void charge(Duration d) { meter_.add(d); }

    const PublicKey& public_key() const noexcept { return key_.pub; }
    const metrics::CostModel& costs() const noexcept { return costs_; }
    WorkMeter& meter() noexcept { return meter_; }

private:
    inline static bool s_host_recheck = false;

    CryptoProvider& provider_;
    const KeyDirectory& directory_;
    KeyPair key_;
    const metrics::CostModel& costs_;
    WorkMeter& meter_;
    VerifyMemo memo_;
};

}  // namespace zc::crypto
