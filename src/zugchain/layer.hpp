// The ZugChain BFT communication layer (paper §III-C, Algorithm 1).
//
// Replaces traditional PBFT client interaction with handling of input
// received over an unauthenticated, time-triggered bus that every node
// reads independently:
//
//   * content- and primary-aware filtering: only the node co-located with
//     the primary proposes bus input, and only if the payload is not in
//     the log or in flight — so identical input read by all n nodes is
//     ordered once, not n times;
//   * soft timeout: a backup whose received input was not decided in time
//     signs it and broadcasts it to all nodes (covers inputs only it
//     received, and a slow/filtering-averse primary);
//   * hard timeout: detects a censoring primary and triggers suspicion;
//   * forwarding: a broadcast that missed the primary is forwarded by the
//     backups, preventing false suspicion of a correct primary;
//   * duplicate detection on DECIDE: a primary that orders a payload twice
//     is suspected (view change);
//   * rate limiting: a bounded number of open requests per origin node
//     caps the damage of fabricated-request floods (Fig. 9);
//   * multiple input sources: one request queue per attached bus/link.
//
// The layer implements pbft::Application and slots between the replica and
// the blockchain application, so DECIDE/NewPrimary/preprepared upcalls of
// Tab. I arrive here.
#pragma once

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "metrics/memory.hpp"
#include "pbft/messages.hpp"
#include "pbft/replica.hpp"
#include "sim/simulation.hpp"
#include "trace/trace.hpp"

namespace zc::zugchain {

/// Downcalls into the consensus module (Tab. I interface 1); implemented
/// by an adapter over pbft::Replica (or a mock in tests).
class ConsensusHandle {
public:
    virtual ~ConsensusHandle() = default;
    virtual bool propose(const pbft::Request& request) = 0;
    virtual void suspect() = 0;

    /// Requests with a running (preprepared but undecided) consensus
    /// instance. The layer consults this after a view change so "open"
    /// requests exclude instances the new primary already re-proposed
    /// (§III-C: "requests without a corresponding DECIDE or running
    /// consensus instance").
    virtual std::vector<pbft::Request> inflight_requests() const = 0;
};

/// Layer-to-layer transport: BROADCAST(r) to all peers, and forwarding a
/// broadcast to the primary that may have missed it.
class LayerTransport {
public:
    virtual ~LayerTransport() = default;
    virtual void broadcast(const pbft::Request& request) = 0;
    virtual void forward(NodeId to, const pbft::Request& request) = 0;
};

/// Downstream sink for totally ordered, deduplicated log entries
/// (Tab. I interface 2: LOG(req, id, sn)). `payload_digest` is
/// `request.payload_digest()`, already computed by the layer's dedup.
class LogSink {
public:
    virtual ~LogSink() = default;
    virtual void log(const pbft::Request& request, const crypto::Digest& payload_digest,
                     NodeId origin, SeqNo seq) = 0;
};

/// Payload-dedup sliding window, in decided requests (the paper checks
/// "a sliding window of past checkpoints"; with block size 10 this is
/// window_checkpoints * 10 requests).
inline constexpr std::size_t kDedupWindow = 512;

struct LayerConfig {
    NodeId id = 0;

    /// Fig. 8 uses 250 ms + 250 ms against the baseline's 500 ms.
    Duration soft_timeout{milliseconds(250)};
    Duration hard_timeout{milliseconds(250)};

    /// Adaptive suspicion timers (Jacobson over the request -> logged
    /// round trip): the soft/hard timers stretch with the observed
    /// logging latency so a limping-but-correct primary is not suspected
    /// as long as it keeps ordering. The fixed values above act as the
    /// floors. Disabled by default (fixed paper timers).
    pbft::AdaptiveTimeoutConfig adaptive;

    /// Maximum simultaneously open (undecided) requests accepted per
    /// origin node; "calculated based on the bus frequency" (§III-C).
    std::size_t max_open_per_origin = 32;

};

struct LayerStats {
    std::uint64_t received = 0;            ///< bus inputs accepted into R
    std::uint64_t filtered_in_log = 0;     ///< bus inputs already logged
    std::uint64_t proposed = 0;            ///< PROPOSE calls issued
    std::uint64_t broadcasts = 0;          ///< soft-timeout broadcasts sent
    std::uint64_t forwards = 0;            ///< broadcast relays to the primary
    std::uint64_t logged = 0;              ///< LOG upcalls (unique payloads)
    std::uint64_t duplicates_decided = 0;  ///< primary-ordered duplicates found
    std::uint64_t suspects = 0;            ///< SUSPECT calls issued
    std::uint64_t rate_limited = 0;        ///< broadcasts dropped by the limiter
    std::uint64_t soft_timeouts = 0;
    std::uint64_t hard_timeouts = 0;
};

class CommunicationLayer final : public pbft::Application {
public:
    CommunicationLayer(LayerConfig config, sim::Simulation& sim, crypto::CryptoContext& crypto,
                       LayerTransport& transport, LogSink& sink,
                       metrics::Gauge* queue_gauge = nullptr);

    /// Cancels all open-request soft/hard timers and releases the queue
    /// gauge accounting (teardown safety on node crash/restart).
    ~CommunicationLayer() override;

    /// Wires the consensus module (set once before operation; breaks the
    /// construction cycle between replica and layer).
    void attach_consensus(ConsensusHandle& consensus) { consensus_ = &consensus; }

    /// Attaches a request-lifecycle trace sink (null = tracing off; every
    /// trace point is then a single pointer test).
    void set_trace(trace::TraceSink* sink) noexcept { trace_ = sink; }

    /// RECEIVE(req): parsed+filtered bus input from `source` (one queue
    /// per input link; §III-C "Multiple Input Sources"). `uniquifier`
    /// disambiguates the signed request (the bus cycle number), so
    /// re-signing after a view change yields an identical request.
    /// `payload_digest` is the caller's `sha256(payload)`: the bus path
    /// has already hashed the payload, so the layer does not again.
    void receive(Bytes payload, const crypto::Digest& payload_digest, std::uint64_t uniquifier,
                 std::uint32_t source = 0);

    /// A layer BROADCAST/forward from another node (Alg. 1 ln. 25-32).
    /// `forwarded` suppresses re-forwarding loops.
    void on_peer_request(NodeId from, const pbft::Request& request, bool forwarded);

    // -- pbft::Application (upcalls from the replica) --------------------
    // The chain state upcalls (state_digest, stable_checkpoint,
    // sync_state) belong to zugchain::ChainApp, where Node::AppShim routes
    // them; the layer's own overrides are no-ops.
    void deliver(const pbft::Request& request, SeqNo seq) override;
    crypto::Digest state_digest(SeqNo seq) override;
    void new_primary(View view, NodeId primary) override;
    void stable_checkpoint(SeqNo seq, const pbft::CheckpointProof& proof) override;
    void preprepared(const pbft::Request& request) override;
    void sync_state(SeqNo seq, const crypto::Digest& state) override;

    const LayerStats& stats() const noexcept { return stats_; }
    std::size_t open_requests() const noexcept { return open_.size(); }

    /// True if the payload digest is in the dedup window (tests).
    bool in_log(const crypto::Digest& payload_digest) const {
        return logged_.contains(payload_digest);
    }

    /// True if the payload is still tracked as open (received ⇒ logged ∨
    /// open is Alg. 1's invariant; the safety auditor checks it).
    bool is_open(const crypto::Digest& payload_digest) const {
        return open_.contains(payload_digest);
    }

    /// Marks a payload as logged without a DECIDE — used after state
    /// transfer, when blocks obtained from peers contain requests this
    /// node never saw decided. Clears any matching open entry.
    void mark_logged(const crypto::Digest& payload_digest);

    /// The adaptive request->logged estimator (tests, health sampling).
    const pbft::AdaptiveTimeout& adaptive_timeout() const noexcept { return rtt_; }

private:
    struct OpenRequest {
        pbft::Request request;        ///< signed by us (or the broadcaster)
        std::uint32_t source = 0;
        bool from_bus = false;        ///< in R (read from our bus) vs peer broadcast
        NodeId broadcaster = kNoNode; ///< who broadcast it to us (rate limiting)
        sim::EventId soft_timer = sim::kInvalidEvent;
        sim::EventId hard_timer = sim::kInvalidEvent;
        TimePoint opened_at{};        ///< when the request entered the layer (RTT)
    };

    void propose_open(const crypto::Digest& payload_digest, OpenRequest& open);
    void trace_event(trace::Phase phase, const crypto::Digest& payload_digest,
                     std::uint64_t arg = 0) {
        if (trace_ != nullptr) {
            trace_->event(config_.id, sim_.now(), phase,
                          trace::trace_id_from(payload_digest.data()), arg);
        }
    }
    void start_soft_timer(const crypto::Digest& payload_digest);
    void start_hard_timer(const crypto::Digest& payload_digest);
    Duration soft_deadline() const;
    Duration hard_deadline() const;
    void on_soft_timeout(const crypto::Digest& payload_digest);
    void on_hard_timeout(const crypto::Digest& payload_digest);
    void remember_logged(const crypto::Digest& payload_digest);
    void erase_open(const crypto::Digest& payload_digest);
    pbft::Request make_signed_request(BytesView payload, std::uint64_t uniquifier);
    std::size_t request_bytes(const pbft::Request& r) const noexcept {
        return r.payload.size() + 96;
    }

    LayerConfig config_;
    sim::Simulation& sim_;
    crypto::CryptoContext& crypto_;
    LayerTransport& transport_;
    LogSink& sink_;
    ConsensusHandle* consensus_ = nullptr;
    metrics::Gauge* queue_gauge_;
    trace::TraceSink* trace_ = nullptr;

    /// Request -> logged round trips; stretches the soft/hard timers when
    /// `config_.adaptive.enabled`.
    pbft::AdaptiveTimeout rtt_;

    NodeId primary_ = 0;

    /// R plus peer-broadcast requests awaiting decision, by payload digest.
    std::unordered_map<crypto::Digest, OpenRequest, crypto::DigestHash> open_;

    /// Sliding dedup window over decided payload digests.
    std::unordered_set<crypto::Digest, crypto::DigestHash> logged_;
    std::deque<crypto::Digest> logged_order_;

    /// Open-broadcast counts per origin (rate limiting).
    std::unordered_map<NodeId, std::size_t> open_per_origin_;

    LayerStats stats_;
};

}  // namespace zc::zugchain
