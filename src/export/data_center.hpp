// Data-center side of the export protocol (paper §III-D, Fig. 4).
//
// Any data center can initiate an export: it broadcasts a read (1),
// collects 2f+1 stable-checkpoint replies plus full blocks from one
// randomly chosen replica (2), synchronizes with the other companies'
// data centers (3), validates signatures and chain integrity (4) — with a
// second fetch round for gaps — signs a delete (5), and collects replica
// acknowledgements (7). Each exported chain is kept permanently in the
// data center's own block store.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "chain/block_store.hpp"
#include "common/rng.hpp"
#include "crypto/context.hpp"
#include "export/messages.hpp"
#include "sim/simulation.hpp"
#include "trace/trace.hpp"

namespace zc::exporter {

/// Outbound paths; implemented by the runtime.
class DcTransport {
public:
    virtual ~DcTransport() = default;
    virtual void to_replica(NodeId replica, const ExportMessage& m) = 0;
    virtual void to_data_center(DataCenterId dc, const ExportMessage& m) = 0;
};

/// Bounded retry with exponential backoff: a round that times out (or
/// delivers unusable blocks) is retried after kExportRetryBackoff,
/// doubling up to kExportRetryBackoffMax, at most kMaxExportRetries times
/// before the export is abandoned as failed. This lets an export that
/// straddles an LTE outage complete once the link returns instead of
/// hammering a dead uplink or giving up after one timeout.
inline constexpr std::uint32_t kMaxExportRetries = 8;
inline constexpr Duration kExportRetryBackoff = seconds(2);
inline constexpr Duration kExportRetryBackoffMax = seconds(30);

struct DcConfig {
    DataCenterId id = 0;
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    SeqNo checkpoint_interval = 10;
    std::vector<DataCenterId> peers;  ///< the other companies' data centers
    Duration reply_timeout{seconds(20)};
};

/// Timing/outcome record of one export run (Table II's rows).
struct ExportRecord {
    TimePoint started{0};
    Duration read_time{0};    ///< read broadcast until all needed replies
    Duration verify_cost{0};  ///< CPU spent validating proofs + chain
    Duration delete_time{0};  ///< delete broadcast until acks received
    Height exported_from = 0;
    Height exported_to = 0;
    std::uint64_t blocks = 0;
    bool success = false;
};

struct DcStats {
    std::uint64_t exports_started = 0;
    std::uint64_t exports_completed = 0;
    std::uint64_t exports_failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t invalid_messages = 0;
    std::uint64_t syncs_received = 0;

    /// Staged blocks discarded because the assembled range failed
    /// validation against the checkpoint digest (forged or corrupt blocks
    /// from a compromised replica or peer DC). The permanent store is
    /// never touched by a rejected range.
    std::uint64_t blocks_rejected = 0;
};

class DataCenter {
public:
    DataCenter(DcConfig config, sim::Simulation& sim, crypto::CryptoContext& crypto,
               DcTransport& transport, metrics::Gauge* store_gauge = nullptr);

    /// (1) Starts an export round. No-op if one is already in progress.
    void start_export();

    void on_message(const ExportMessage& m);

    /// Invoked when an export round finishes (successfully or not).
    using CompletionHook = std::function<void(const ExportRecord&)>;
    void set_completion_hook(CompletionHook hook) { on_complete_ = std::move(hook); }

    const chain::BlockStore& store() const noexcept { return store_; }
    const std::vector<ExportRecord>& history() const noexcept { return history_; }
    const DcStats& stats() const noexcept { return stats_; }

    /// Latest quorum-certified checkpoint proof covering this DC's chain
    /// (null until the first successful export/sync). The safety auditor
    /// uses it to check that the exported chain is a proof-covered prefix.
    const pbft::CheckpointProof* last_proof() const noexcept {
        return last_proof_ ? &*last_proof_ : nullptr;
    }
    bool exporting() const noexcept {
        return state_ != State::kIdle || retry_timer_ != sim::kInvalidEvent;
    }

    /// Attaches a trace sink; `trace_node` is the pid the DC's export
    /// spans are recorded under (DCs share the replica NodeId space in
    /// traces via an offset chosen by the runtime).
    void set_trace(trace::TraceSink* sink, NodeId trace_node) noexcept {
        trace_ = sink;
        trace_node_ = trace_node;
    }

private:
    enum class State { kIdle, kReading, kFetching, kDeleting };

    void handle(const ReadReply& m);
    void handle(const BlockFetchReply& m);
    void handle(const DcSync& m);
    void handle(const DeleteAck& m);
    void handle(const DcFetch& m);

    bool validate_proof(const pbft::CheckpointProof& proof);
    void begin_round();
    void retry_round();
    void maybe_complete_read();
    void verify_and_continue();

    /// Sorts `staged` by height; returns the highest height our head plus
    /// the staged blocks reach without a gap.
    Height covered_height(std::vector<chain::Block>& staged) const;

    /// store_.adopt up to the checkpoint (`target`, `state`), charging the
    /// re-hash to our CPU; a rejected range counts into blocks_rejected.
    bool adopt(std::vector<chain::Block>& staged, Height target, const crypto::Digest& state);

    void issue_delete(Height height, const crypto::Digest& block_hash);
    void finish(bool success);
    void arm_timeout();
    void trace_span(trace::Phase phase, TimePoint start, Duration dur, std::uint64_t trace,
                    std::uint64_t arg = 0) {
        if (trace_ != nullptr) trace_->span(trace_node_, start, dur, phase, trace, arg);
    }

    DcConfig config_;
    sim::Simulation& sim_;
    crypto::CryptoContext& crypto_;
    DcTransport& transport_;
    Rng rng_;
    chain::BlockStore store_;

    State state_ = State::kIdle;
    ExportRecord current_;
    NodeId full_from_ = 0;
    std::set<NodeId> excluded_full_;  ///< replicas that failed to deliver blocks
    std::map<NodeId, ReadReply> replies_;
    std::optional<pbft::CheckpointProof> best_proof_;
    Height target_height_ = 0;
    std::vector<chain::Block> staged_blocks_;
    TimePoint delete_started_{0};
    std::set<NodeId> acks_;
    sim::EventId timeout_ = sim::kInvalidEvent;
    sim::EventId retry_timer_ = sim::kInvalidEvent;
    std::uint32_t attempts_ = 0;  ///< retry rounds within the current export

    /// Latest validated stable checkpoint proof this DC holds; served to
    /// lagging peer data centers (error scenario (iv)).
    std::optional<pbft::CheckpointProof> last_proof_;

    CompletionHook on_complete_;
    std::vector<ExportRecord> history_;
    DcStats stats_;
    trace::TraceSink* trace_ = nullptr;
    NodeId trace_node_ = 0;
};

}  // namespace zc::exporter
