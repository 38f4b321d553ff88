// PBFT replica state machine (Castro & Liskov), event-driven on virtual
// time. Implements the ordering (preprepare/prepare/commit), per-block
// checkpointing, and view-change subprotocols, and exposes the interface
// the paper's Tab. I requires from the BFT module:
//
//     down:  Propose(r)        -> propose()
//            Suspect(id)       -> suspect()
//     up:    Decide(r, sn)     -> Application::deliver()
//            NewPrimary        -> Application::new_primary()
//
// plus a preprepare indication upcall (the paper's optimization letting
// the ZugChain layer cancel soft timeouts when the primary's preprepare
// for a request is observed).
//
// The replica is transport-agnostic: it emits messages through Transport
// and is fed through on_message(); the runtime layer does (de)serialization
// and CPU accounting. All signatures go through crypto::CryptoContext and
// are therefore metered.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "common/time.hpp"
#include "crypto/context.hpp"
#include "metrics/memory.hpp"
#include "pbft/adaptive.hpp"
#include "pbft/messages.hpp"
#include "sim/simulation.hpp"
#include "trace/trace.hpp"

namespace zc::pbft {

/// Outbound message sink, implemented by the node runtime.
class Transport {
public:
    virtual ~Transport() = default;
    virtual void send(NodeId to, const Message& m) = 0;
    /// Sends to every replica except the local one.
    virtual void broadcast(const Message& m) = 0;
};

/// Upcalls into the replicated application (the blockchain layer).
class Application {
public:
    virtual ~Application() = default;

    /// Totally ordered request (the DECIDE upcall). Called in strict seq
    /// order; null requests (view-change gap fillers) are delivered too and
    /// must be skipped content-wise by the application.
    virtual void deliver(const Request& request, SeqNo seq) = 0;

    /// Application state digest after executing `seq` (the chain head hash
    /// once the block for this checkpoint window has been built).
    virtual crypto::Digest state_digest(SeqNo seq) = 0;

    /// A view change completed; `primary` leads `view`.
    virtual void new_primary(View view, NodeId primary) = 0;

    /// A checkpoint became stable (2f+1 signatures collected).
    virtual void stable_checkpoint(SeqNo seq, const CheckpointProof& proof) { (void)seq; (void)proof; }

    /// The primary's preprepare for `request` was accepted (optimization
    /// hook for the ZugChain layer's soft timers).
    virtual void preprepared(const Request& request) { (void)request; }

    /// The replica is behind a stable checkpoint at `seq` with app state
    /// `state` and cannot catch up by ordering alone; the application must
    /// perform state transfer (fetch blocks from peers, paper §III-D
    /// discussion (ii)) and then consider `seq` executed.
    virtual void sync_state(SeqNo seq, const crypto::Digest& state) { (void)seq; (void)state; }
};

struct ReplicaConfig {
    NodeId id = 0;
    std::uint32_t n = 4;
    std::uint32_t f = 1;

    /// Checkpoint every this many sequence numbers (= the block size).
    SeqNo checkpoint_interval = 10;

    /// High watermark = last stable + window.
    SeqNo watermark_window = 200;

    /// Baseline mode: a backup receiving a forwarded Request starts this
    /// timer and suspects the primary on expiry. Zero disables (ZugChain
    /// supplies its own soft/hard timers in the communication layer).
    Duration request_timeout{0};

    /// Batch ordering: the primary accumulates proposals into an open
    /// batch and runs one three-phase instance per batch. A batch is
    /// flushed when it reaches `max_batch_requests` requests or
    /// `max_batch_bytes` of payload, or when `batch_linger` elapses after
    /// the first request entered the batch. The default of 1 preserves the
    /// classic request-per-instance pipeline (and schedules no linger
    /// events, keeping same-seed runs byte-identical to it).
    std::uint32_t max_batch_requests = 1;
    std::size_t max_batch_bytes = 128 * 1024;
    Duration batch_linger{0};

    /// Bound on the primary's watermark-blocked proposal queue; overflow
    /// is dropped (and counted) instead of growing without limit while
    /// checkpoints stall.
    std::size_t max_pending = 4096;

    /// Retry cadence: after broadcasting a view change, escalate to the
    /// next view if no new view arrives in time. When `adaptive.enabled`
    /// this is only the pre-sample fallback; the live timeout tracks the
    /// observed agreement round trip (see pbft/adaptive.hpp).
    Duration view_change_timeout{milliseconds(2000)};

    /// Adaptive view-change timeout (Jacobson RTT EWMA + variance over the
    /// preprepare -> execute round trip, exponential backoff across failed
    /// views, capped). Disabled by default: the fixed schedule above.
    AdaptiveTimeoutConfig adaptive;

    /// Honest primaries refuse to assign a second sequence number to a
    /// request digest that is in flight or recently decided. Disabled when
    /// simulating a faulty primary that proposes duplicates.
    bool dedup_proposals = true;

    /// How many stable checkpoint proofs to retain for the export protocol.
    std::size_t proof_retention = 64;

    /// Restart support: a recovering replica rejoins in the view the
    /// cluster is believed to run (hint from the harness) with its
    /// execution/stable watermark at the durable chain's head (so peer
    /// checkpoints beyond it trigger state transfer instead of being
    /// mistaken for stale duplicates).
    View start_view = 0;
    SeqNo start_seq = 0;
};

/// Counters exposed for tests and benchmarks.
struct ReplicaStats {
    std::uint64_t proposals = 0;
    std::uint64_t preprepares_sent = 0;
    std::uint64_t prepares_sent = 0;
    std::uint64_t commits_sent = 0;
    std::uint64_t decided = 0;
    std::uint64_t checkpoints_stable = 0;
    std::uint64_t view_changes_started = 0;
    std::uint64_t new_views_installed = 0;
    std::uint64_t invalid_messages = 0;
    std::uint64_t duplicate_proposals_blocked = 0;
    std::uint64_t batches_proposed = 0;   ///< preprepares sent by this primary
    std::uint64_t batched_requests = 0;   ///< requests inside those batches
    std::uint64_t pending_dropped = 0;    ///< overflow of the bounded pending queue
    std::uint64_t pending_rerouted = 0;   ///< stranded requests forwarded to a new primary
    std::uint64_t rtt_samples = 0;        ///< agreement round trips observed
    std::uint64_t timeout_escalations = 0;  ///< view-change timers that expired
    std::uint64_t timeout_thrash = 0;     ///< view changes started despite recent progress
};

class Replica {
public:
    Replica(ReplicaConfig config, sim::Simulation& sim, crypto::CryptoContext& crypto,
            Transport& transport, Application& app, metrics::Gauge* log_gauge = nullptr);

    /// Cancels pending virtual-time timers and releases the message-log
    /// gauge accounting, so a replica can be torn down mid-run (node
    /// crash/restart) without leaving events that fire into freed memory.
    ~Replica();

    // -- downcalls (Tab. I, interface 1) --------------------------------

    /// Proposes a request for total ordering. On the primary, assigns a
    /// sequence number and broadcasts the preprepare (or queues it until
    /// the watermark window opens). On a backup, forwards the request to
    /// the primary and, if `request_timeout` is enabled, starts a timer
    /// whose expiry suspects the primary. Returns false if dropped
    /// (duplicate or mid view change).
    bool propose(const Request& request);

    /// Local suspicion of the current primary: initiate a view change.
    void suspect();

    /// Feeds a received protocol message (after transport-level decode).
    void on_message(NodeId from, const Message& m);

    /// Cancels every pending virtual-time timer (view change, batch
    /// linger, baseline request timers). The node runtime calls this when
    /// the node crashes: the replica object outlives the crash in the
    /// harness, and a stale request timer firing after rejoin would
    /// suspect a primary that was never slow.
    void cancel_timers();

    /// Attaches a request-lifecycle trace sink (null = tracing off).
    void set_trace(trace::TraceSink* sink) noexcept { trace_ = sink; }

    // -- observers -------------------------------------------------------

    View view() const noexcept { return view_; }
    NodeId primary() const noexcept { return primary_of(view_); }
    NodeId primary_of(View v) const noexcept { return static_cast<NodeId>(v % config_.n); }
    bool is_primary() const noexcept { return primary() == config_.id && !in_view_change_; }
    bool in_view_change() const noexcept { return in_view_change_; }
    SeqNo last_executed() const noexcept { return last_exec_; }
    SeqNo last_stable() const noexcept { return last_stable_; }
    const ReplicaStats& stats() const noexcept { return stats_; }

    /// Latest stable checkpoint proof, or nullptr before the first one.
    const CheckpointProof* latest_stable_proof() const;

    /// Proof for a specific checkpoint seq if retained.
    const CheckpointProof* stable_proof(SeqNo seq) const;

    /// True if `digest` is a currently in-flight or recently decided
    /// request digest (PBFT-level dedup state; exposed for tests).
    bool knows_request(const crypto::Digest& digest) const;

    /// Requests preprepared but not yet executed (running instances).
    std::vector<Request> inflight_requests() const;

    /// Watermark-blocked proposals queued on this (primary) replica.
    std::size_t pending_size() const noexcept { return pending_.size(); }

    /// Requests accumulated in the primary's open (unflushed) batch.
    std::size_t open_batch_size() const noexcept { return open_batch_.size(); }

    /// The adaptive estimator (exposed for tests and health sampling).
    const AdaptiveTimeout& adaptive_timeout() const noexcept { return vc_timeout_; }

private:
    struct Slot {
        std::optional<PrePrepare> preprepare;
        std::map<NodeId, Prepare> prepares;
        std::map<NodeId, Commit> commits;
        bool commit_sent = false;
        bool executed = false;
        std::size_t bytes = 0;
        TimePoint preprepare_at{};  ///< when the preprepare was accepted (RTT sampling)
    };

    // message handlers
    void handle(NodeId from, const Request& r);
    void handle(NodeId from, const PrePrepare& pp);
    void handle(NodeId from, const Prepare& p);
    void handle(NodeId from, const Commit& c);
    void handle(NodeId from, const Checkpoint& c);
    void handle(NodeId from, const ViewChange& vc);
    void handle(NodeId from, const NewView& nv);

    // ordering
    bool assign_and_propose(const Request& request);
    void flush_batch();
    void queue_pending(Request request);
    void drain_pending();
    /// `digests` are `request_digests(pp.requests)`, computed by the caller.
    void accept_preprepare(const PrePrepare& pp, const std::vector<crypto::Digest>& digests);
    void maybe_prepared(SeqNo seq);
    void maybe_committed(SeqNo seq);
    void execute_ready();
    void execute(SeqNo seq, const std::vector<Request>& requests);

    // baseline request timers
    sim::EventId schedule_request_timer(const crypto::Digest& digest);
    void arm_request_timer(const Request& request);

    /// After a new view installs: hand stranded work to the new primary
    /// (or assign it ourselves if we are the new primary) and re-arm the
    /// surviving request timers against the new view.
    void reroute_after_view_change();

    // checkpoints
    void emit_checkpoint(SeqNo seq);
    void store_checkpoint(const Checkpoint& c);
    void make_stable(SeqNo seq, const crypto::Digest& state);
    void garbage_collect(SeqNo stable_seq);
    /// Records `digest` as known at `seq` (dedup set and its seq index).
    void remember_request(const crypto::Digest& digest, SeqNo seq);
    /// Drops one seq-index entry's digest, unless it was re-recorded since.
    void forget_known(const std::pair<SeqNo, crypto::Digest>& entry);

    // view change
    void start_view_change(View target);
    ViewChange build_view_change(View target);
    bool validate_view_change(const ViewChange& vc);
    bool validate_prepared_proof(const PreparedProof& proof);
    bool validate_checkpoint_proof(const CheckpointProof& proof);
    void maybe_assemble_new_view(View target);
    std::vector<PrePrepare> compute_reproposals(View v,
                                                const std::vector<ViewChange>& vcs,
                                                SeqNo& min_s_out, SeqNo& max_s_out,
                                                bool sign_them);
    void enter_view(View v);
    void install_reproposals(const std::vector<PrePrepare>& reproposals);
    void arm_view_change_timer(View target);

    bool in_watermarks(SeqNo seq) const noexcept;
    Slot& slot(SeqNo seq);

    /// Request-phase trace point; hashes the payload only when tracing.
    void trace_request(trace::Phase phase, const Request& request, std::uint64_t arg = 0) {
        if (trace_ != nullptr && !request.is_null()) {
            trace_->event(config_.id, sim_.now(), phase,
                          trace::trace_id_from(request.payload_digest().data()), arg);
        }
    }
    void trace_point(trace::Phase phase, std::uint64_t id, std::uint64_t arg = 0) {
        if (trace_ != nullptr) trace_->event(config_.id, sim_.now(), phase, id, arg);
    }
    void account_slot_bytes(Slot& s, std::size_t bytes);
    std::uint32_t quorum() const noexcept { return 2 * config_.f + 1; }

    ReplicaConfig config_;
    sim::Simulation& sim_;
    crypto::CryptoContext& crypto_;
    Transport& transport_;
    Application& app_;
    metrics::Gauge* log_gauge_;
    trace::TraceSink* trace_ = nullptr;

    View view_ = 0;
    bool in_view_change_ = false;
    View vc_target_ = 0;
    SeqNo next_seq_ = 1;       // next seq the primary assigns
    SeqNo last_exec_ = 0;
    SeqNo last_stable_ = 0;

    std::map<SeqNo, Slot> log_;

    // PBFT-level request dedup: full-request digests in flight or decided.
    std::unordered_map<crypto::Digest, SeqNo, crypto::DigestHash> known_requests_;
    // The same digests in seq order from `known_front_` on, so checkpoint
    // GC and the view-change trim visit only the expired ends. A re-proposed
    // digest is listed once per seq it had; only the entry for its current
    // seq erases it. (A vector with a front offset: unlike a deque it
    // allocates nothing until the first request.)
    std::vector<std::pair<SeqNo, crypto::Digest>> known_by_seq_;
    std::size_t known_front_ = 0;

    std::deque<Request> pending_;  // watermark-blocked proposals (primary, bounded)

    // Primary's open batch: requests accumulated since the last flush,
    // with their digests (same order) for intra-batch dedup.
    std::vector<Request> open_batch_;
    std::vector<crypto::Digest> open_batch_digests_;
    std::size_t open_batch_bytes_ = 0;
    sim::EventId batch_timer_ = sim::kInvalidEvent;

    // checkpoints: seq -> state digest -> replica -> message
    std::map<SeqNo, std::map<crypto::Digest, std::map<NodeId, Checkpoint>>> checkpoints_;
    std::map<SeqNo, crypto::Digest> own_checkpoint_digest_;
    std::map<SeqNo, CheckpointProof> stable_proofs_;

    // view change state: target view -> replica -> message
    std::map<View, std::map<NodeId, ViewChange>> view_changes_;
    sim::EventId vc_timer_ = sim::kInvalidEvent;
    std::uint32_t vc_attempts_ = 0;  // consecutive unsuccessful attempts (backoff)

    // Adaptive view-change timeout over agreement round trips, and the
    // last moment ordering progress was observed (thrash detection).
    AdaptiveTimeout vc_timeout_;
    TimePoint last_progress_{};

    // Baseline request timers. The request itself is retained so a backup
    // can re-forward it to the next primary after a view change, and the
    // arming view keeps a stale timer from indicting a newer view's
    // primary.
    struct ForwardedRequest {
        sim::EventId timer = sim::kInvalidEvent;
        View armed_view = 0;
        Request request;
    };
    std::unordered_map<crypto::Digest, ForwardedRequest, crypto::DigestHash> request_timers_;

    ReplicaStats stats_;
};

}  // namespace zc::pbft
