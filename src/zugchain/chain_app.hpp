// The blockchain application (paper §III-C "Blockchain Application" and
// "Checkpointing").
//
// Receives totally ordered, deduplicated LOG entries from the
// communication layer, deterministically bundles every
// `checkpoint_interval` sequence numbers into a block, persists it, and
// serves as the PBFT application whose state digest (the chain head hash)
// is what checkpoints certify — so a stable checkpoint's 2f+1 signatures
// prove block inclusion for the export protocol.
#pragma once

#include <functional>

#include "chain/block_store.hpp"
#include "crypto/context.hpp"
#include "pbft/replica.hpp"

namespace zc::zugchain {

class ChainApp final : public pbft::Application {
public:
    /// `block_interval` must equal the replica's checkpoint_interval: the
    /// paper creates one checkpoint per block.
    ChainApp(chain::BlockStore& store, crypto::CryptoContext& crypto, SeqNo block_interval);

    // -- emergency trim agreement (paper §III-D error scenario (v)) ------
    //
    // When a replica misses deletes and approaches memory exhaustion, the
    // replicas "agree to remove the data of a certain number of blocks and
    // only store their headers. The joint agreement is stored on the
    // blockchain." The agreement is an ordinary ordered request carrying a
    // trim marker; once logged, every replica deterministically drops the
    // bodies up to the marked height (headers — and thus verifiability —
    // remain).

    /// Builds the payload of a trim-agreement request.
    static Bytes make_trim_request(Height up_to);

    /// Recognizes a trim-agreement payload; returns the height.
    static std::optional<Height> parse_trim_request(BytesView payload);

    /// Number of trim agreements executed (tests/observability).
    std::uint64_t trims_executed() const noexcept { return trims_executed_; }

    // -- LOG upcall from the communication layer (forwarded by the node) --
    void log(const pbft::Request& request, NodeId origin, SeqNo seq);

    // -- pbft::Application (chained behind the layer) --------------------
    void deliver(const pbft::Request&, SeqNo) override {}  // layer logs instead
    crypto::Digest state_digest(SeqNo seq) override;
    void new_primary(View, NodeId) override {}
    void sync_state(SeqNo seq, const crypto::Digest& state) override;

    /// Set by the runtime: fetches missing blocks (state transfer) up to
    /// the block covering `seq`, returning true on success. The blocks
    /// must be appended to the store by the fetcher.
    using StateFetcher = std::function<bool(SeqNo seq, const crypto::Digest& state)>;
    void set_state_fetcher(StateFetcher fetcher) { fetcher_ = std::move(fetcher); }

    const chain::BlockStore& store() const noexcept { return store_; }
    chain::BlockStore& store() noexcept { return store_; }
    SeqNo block_interval() const noexcept { return interval_; }

    /// Requests logged but not yet bundled into a block.
    std::size_t pending_requests() const noexcept { return pending_.size(); }

private:
    chain::BlockStore& store_;
    crypto::CryptoContext& crypto_;
    SeqNo interval_;
    std::vector<chain::LoggedRequest> pending_;
    std::optional<Height> pending_trim_;
    std::uint64_t trims_executed_ = 0;
    StateFetcher fetcher_;
};

}  // namespace zc::zugchain
