#include "zugchain/layer.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace zc::zugchain {

CommunicationLayer::CommunicationLayer(LayerConfig config, sim::Simulation& sim,
                                       crypto::CryptoContext& crypto, LayerTransport& transport,
                                       LogSink& sink, metrics::Gauge* queue_gauge)
    : config_(config), sim_(sim), crypto_(crypto), transport_(transport), sink_(sink),
      queue_gauge_(queue_gauge), rtt_(config.adaptive, config.soft_timeout) {}

CommunicationLayer::~CommunicationLayer() {
    for (auto& [digest, open] : open_) {
        sim_.cancel(open.soft_timer);
        sim_.cancel(open.hard_timer);
        if (queue_gauge_)
            queue_gauge_->add(-static_cast<std::int64_t>(request_bytes(open.request)));
    }
}

pbft::Request CommunicationLayer::make_signed_request(BytesView payload,
                                                      std::uint64_t uniquifier) {
    pbft::Request r;
    r.payload = Bytes(payload.begin(), payload.end());
    r.origin = config_.id;
    r.origin_seq = uniquifier;
    r.sig = crypto_.sign(r.signing_bytes());
    return r;
}

void CommunicationLayer::receive(Bytes payload, const crypto::Digest& digest,
                                 std::uint64_t uniquifier, std::uint32_t source) {
    crypto_.charge_hash(payload.size());

    if (logged_.contains(digest)) {
        stats_.filtered_in_log += 1;  // already decided: nothing to do
        trace_event(trace::Phase::kLayerFiltered, digest);
        return;
    }

    const auto existing = open_.find(digest);
    if (existing != open_.end()) {
        // We had it only as a peer broadcast so far; it is now also in R.
        existing->second.from_bus = true;
        return;
    }

    OpenRequest open;
    open.request = make_signed_request(payload, uniquifier);
    open.source = source;
    open.from_bus = true;
    open.opened_at = sim_.now();
    if (queue_gauge_) queue_gauge_->add(static_cast<std::int64_t>(request_bytes(open.request)));
    auto [it, inserted] = open_.emplace(digest, std::move(open));
    stats_.received += 1;
    trace_event(trace::Phase::kLayerEnqueue, digest, source);

    if (config_.id == primary_) {
        propose_open(digest, it->second);  // Alg. 1 ln. 7-9
    } else {
        start_soft_timer(digest);  // Alg. 1 ln. 11
    }
}

void CommunicationLayer::propose_open(const crypto::Digest& payload_digest, OpenRequest& open) {
    stats_.proposed += 1;
    trace_event(trace::Phase::kLayerPropose, payload_digest);
    if (consensus_ != nullptr) consensus_->propose(open.request);
}

void CommunicationLayer::on_peer_request(NodeId from, const pbft::Request& request,
                                         bool forwarded) {
    (void)from;
    if (request.is_null() ||
        !crypto_.verify(request.origin, request.signing_bytes(), request.sig)) {
        return;  // unauthenticated layer traffic is dropped
    }
    const crypto::Digest digest = request.payload_digest();
    crypto_.charge_hash(request.payload.size());

    if (logged_.contains(digest)) return;  // Alg. 1 ln. 26-27

    const bool known = open_.contains(digest);
    if (!known) {
        // Rate limiting (§III-C faulty nodes (iii)): cap open requests a
        // single origin may have outstanding; drop the excess.
        auto& count = open_per_origin_[request.origin];
        if (count >= config_.max_open_per_origin) {
            stats_.rate_limited += 1;
            trace_event(trace::Phase::kLayerRateLimited, digest, request.origin);
            return;
        }
        count += 1;

        OpenRequest open;
        open.request = request;
        open.from_bus = false;
        open.broadcaster = request.origin;
        open.opened_at = sim_.now();
        if (queue_gauge_)
            queue_gauge_->add(static_cast<std::int64_t>(request_bytes(open.request)));
        open_.emplace(digest, std::move(open));
    }

    auto& entry = open_.at(digest);
    if (config_.id == primary_) {
        // Alg. 1 ln. 28-29: propose with the broadcasting node's id, but
        // only if we did not read it from the bus ourselves (r.req not in
        // R) — in that case our own copy is (being) proposed.
        if (!entry.from_bus && entry.request == request) propose_open(digest, entry);
    } else {
        start_hard_timer(digest);  // Alg. 1 ln. 31
        if (!forwarded) {
            stats_.forwards += 1;
            trace_event(trace::Phase::kLayerForward, digest, primary_);
            transport_.forward(primary_, request);  // Alg. 1 ln. 32
        }
    }
}

Duration CommunicationLayer::soft_deadline() const {
    if (!rtt_.enabled()) return config_.soft_timeout;
    return std::max(config_.soft_timeout, rtt_.base());
}

Duration CommunicationLayer::hard_deadline() const {
    if (!rtt_.enabled()) return config_.hard_timeout;
    return std::max(config_.hard_timeout, rtt_.base());
}

void CommunicationLayer::start_soft_timer(const crypto::Digest& digest) {
    auto it = open_.find(digest);
    if (it == open_.end() || it->second.soft_timer != sim::kInvalidEvent) return;
    it->second.soft_timer =
        sim_.schedule(soft_deadline(), [this, digest] { on_soft_timeout(digest); });
}

void CommunicationLayer::start_hard_timer(const crypto::Digest& digest) {
    auto it = open_.find(digest);
    if (it == open_.end() || it->second.hard_timer != sim::kInvalidEvent) return;
    it->second.hard_timer =
        sim_.schedule(hard_deadline(), [this, digest] { on_hard_timeout(digest); });
}

void CommunicationLayer::on_soft_timeout(const crypto::Digest& digest) {
    auto it = open_.find(digest);
    if (it == open_.end()) return;
    it->second.soft_timer = sim::kInvalidEvent;
    stats_.soft_timeouts += 1;
    trace_event(trace::Phase::kSoftTimeout, digest);

    // Alg. 1 ln. 21-24: sign (already signed at receive), broadcast to all
    // nodes, arm the hard timeout to catch a censoring primary.
    stats_.broadcasts += 1;
    trace_event(trace::Phase::kLayerBroadcast, digest);
    transport_.broadcast(it->second.request);
    start_hard_timer(digest);
}

void CommunicationLayer::on_hard_timeout(const crypto::Digest& digest) {
    auto it = open_.find(digest);
    if (it == open_.end()) return;
    it->second.hard_timer = sim::kInvalidEvent;
    stats_.hard_timeouts += 1;
    trace_event(trace::Phase::kHardTimeout, digest);

    // Alg. 1 ln. 33-35: the request is still not logged: suspect.
    if (!logged_.contains(digest)) {
        stats_.suspects += 1;
        trace_event(trace::Phase::kSuspect, digest);
        if (consensus_ != nullptr) consensus_->suspect();
    }
}

void CommunicationLayer::erase_open(const crypto::Digest& digest) {
    const auto it = open_.find(digest);
    if (it == open_.end()) return;
    if (it->second.soft_timer != sim::kInvalidEvent) sim_.cancel(it->second.soft_timer);
    if (it->second.hard_timer != sim::kInvalidEvent) sim_.cancel(it->second.hard_timer);
    if (it->second.broadcaster != kNoNode) {
        auto count = open_per_origin_.find(it->second.broadcaster);
        if (count != open_per_origin_.end() && count->second > 0) count->second -= 1;
    }
    if (queue_gauge_) queue_gauge_->add(-static_cast<std::int64_t>(request_bytes(it->second.request)));
    open_.erase(it);
}

void CommunicationLayer::mark_logged(const crypto::Digest& payload_digest) {
    erase_open(payload_digest);
    if (!logged_.contains(payload_digest)) remember_logged(payload_digest);
}

void CommunicationLayer::remember_logged(const crypto::Digest& digest) {
    logged_.insert(digest);
    logged_order_.push_back(digest);
    while (logged_order_.size() > config_.dedup_window) {
        logged_.erase(logged_order_.front());
        logged_order_.pop_front();
    }
}

void CommunicationLayer::deliver(const pbft::Request& request, SeqNo seq) {
    if (request.is_null()) return;  // view-change gap filler: nothing to log

    const crypto::Digest digest = request.payload_digest();
    crypto_.charge_hash(request.payload.size());

    // Request -> logged round trip for the adaptive suspicion timers.
    if (const auto open = open_.find(digest); open != open_.end()) {
        rtt_.observe(sim_.now() - open->second.opened_at);
    }

    erase_open(digest);  // Alg. 1 ln. 13-16: clears queue entry and timers

    if (logged_.contains(digest)) {
        // Alg. 1 ln. 17-18: the primary submitted a payload duplicate.
        stats_.duplicates_decided += 1;
        stats_.suspects += 1;
        trace_event(trace::Phase::kDuplicateDecided, digest);
        if (consensus_ != nullptr) consensus_->suspect();
        return;
    }

    stats_.logged += 1;
    remember_logged(digest);
    sink_.log(request, digest, request.origin, seq);  // Alg. 1 ln. 20
}

crypto::Digest CommunicationLayer::state_digest(SeqNo) { return crypto::Digest{}; }

void CommunicationLayer::new_primary(View, NodeId primary) {
    primary_ = primary;

    // Alg. 1 ln. 36-43. "Open" excludes requests with a running consensus
    // instance: the new primary's reproposals are already in flight, and
    // re-proposing our own differently-signed copy of the same payload
    // would create a duplicate and a false suspicion.
    std::unordered_set<crypto::Digest, crypto::DigestHash> inflight;
    if (consensus_ != nullptr) {
        for (const pbft::Request& r : consensus_->inflight_requests()) {
            if (!r.is_null()) inflight.insert(r.payload_digest());
        }
    }

    for (auto& [digest, open] : open_) {
        if (open.soft_timer != sim::kInvalidEvent) {
            sim_.cancel(open.soft_timer);
            open.soft_timer = sim::kInvalidEvent;
        }
        if (open.hard_timer != sim::kInvalidEvent) {
            sim_.cancel(open.hard_timer);
            open.hard_timer = sim::kInvalidEvent;
        }
        if (inflight.contains(digest)) continue;  // running instance: wait for DECIDE

        if (config_.id == primary_) {
            propose_open(digest, open);  // ln. 39-41
        } else {
            start_soft_timer(digest);  // ln. 43
        }
    }
}

void CommunicationLayer::stable_checkpoint(SeqNo, const pbft::CheckpointProof&) {}

void CommunicationLayer::preprepared(const pbft::Request& request) {
    if (!config_.cancel_soft_on_preprepare || request.is_null()) return;
    const auto it = open_.find(request.payload_digest());
    if (it == open_.end()) return;
    if (it->second.soft_timer != sim::kInvalidEvent) {
        sim_.cancel(it->second.soft_timer);
        it->second.soft_timer = sim::kInvalidEvent;
    }
}

void CommunicationLayer::sync_state(SeqNo, const crypto::Digest&) {}

}  // namespace zc::zugchain
