#include "pbft/replica.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace zc::pbft {

namespace {
constexpr std::size_t kPhaseMsgBytes = 104;  // prepare/commit wire footprint
}

Replica::Replica(ReplicaConfig config, sim::Simulation& sim, crypto::CryptoContext& crypto,
                 Transport& transport, Application& app, metrics::Gauge* log_gauge)
    : config_(config), sim_(sim), crypto_(crypto), transport_(transport), app_(app),
      log_gauge_(log_gauge),
      view_(config.start_view),
      next_seq_(config.start_seq + 1),
      last_exec_(config.start_seq),
      last_stable_(config.start_seq),
      vc_timeout_(config.adaptive, config.view_change_timeout) {}

Replica::~Replica() {
    cancel_timers();
    if (log_gauge_ != nullptr) {
        for (const auto& [seq, s] : log_)
            log_gauge_->add(-static_cast<std::int64_t>(s.bytes));
    }
}

// ---- public downcalls --------------------------------------------------

bool Replica::propose(const Request& request) {
    stats_.proposals += 1;
#ifdef ZC_BREAK_LIVENESS
    // Negative-testing hook: once a handful of instances have decided,
    // every replica silently swallows new requests — no proposal, no
    // forward, no request timers, so no view change can route around the
    // wedge. CI builds with this ON to prove the LivenessAuditor turns
    // the resulting stall into exit 6. Never ship it.
    if (stats_.decided >= 8) return true;
#endif
    if (in_view_change_) return false;
    if (primary() == config_.id) return assign_and_propose(request);

    // Not the primary: forward and optionally arm the baseline timer.
    transport_.send(primary(), Message{request});
    if (config_.request_timeout > Duration::zero()) {
        const crypto::Digest digest = request.digest();
        if (!request_timers_.contains(digest) && !known_requests_.contains(digest)) {
            arm_request_timer(request);
        }
    }
    return true;
}

void Replica::cancel_timers() {
    if (vc_timer_ != sim::kInvalidEvent) {
        sim_.cancel(vc_timer_);
        vc_timer_ = sim::kInvalidEvent;
    }
    if (batch_timer_ != sim::kInvalidEvent) {
        sim_.cancel(batch_timer_);
        batch_timer_ = sim::kInvalidEvent;
    }
    for (auto& [digest, fwd] : request_timers_) sim_.cancel(fwd.timer);
    request_timers_.clear();
}

sim::EventId Replica::schedule_request_timer(const crypto::Digest& digest) {
    const View armed = view_;
    return sim_.schedule(config_.request_timeout, [this, digest, armed] {
        request_timers_.erase(digest);
        // A timer armed under an earlier view must not indict the new
        // view's primary: the new-view reroute re-arms live entries, so a
        // firing with a stale view is left to its re-armed successor.
        if (view_ != armed) return;
        if (!knows_request(digest)) suspect();
    });
}

void Replica::arm_request_timer(const Request& request) {
    const crypto::Digest digest = request.digest();
    ForwardedRequest fwd;
    fwd.armed_view = view_;
    fwd.request = request;
    fwd.timer = schedule_request_timer(digest);
    request_timers_[digest] = std::move(fwd);
}

void Replica::suspect() {
    if (in_view_change_) return;  // escalation is timer-driven
    start_view_change(view_ + 1);
}

void Replica::on_message(NodeId from, const Message& m) {
    std::visit([this, from](const auto& msg) { handle(from, msg); }, m);
}

const CheckpointProof* Replica::latest_stable_proof() const {
    if (stable_proofs_.empty()) return nullptr;
    return &stable_proofs_.rbegin()->second;
}

const CheckpointProof* Replica::stable_proof(SeqNo seq) const {
    const auto it = stable_proofs_.find(seq);
    return it == stable_proofs_.end() ? nullptr : &it->second;
}

bool Replica::knows_request(const crypto::Digest& digest) const {
    return known_requests_.contains(digest);
}

std::vector<Request> Replica::inflight_requests() const {
    std::vector<Request> out;
    for (const auto& [seq, s] : log_) {
        if (seq <= last_exec_ || s.executed || !s.preprepare) continue;
        for (const Request& r : s.preprepare->requests) {
            if (!r.is_null()) out.push_back(r);
        }
    }
    return out;
}

// ---- ordering ----------------------------------------------------------

bool Replica::in_watermarks(SeqNo seq) const noexcept {
    return seq > last_stable_ && seq <= last_stable_ + config_.watermark_window;
}

Replica::Slot& Replica::slot(SeqNo seq) { return log_[seq]; }

void Replica::account_slot_bytes(Slot& s, std::size_t bytes) {
    s.bytes += bytes;
    if (log_gauge_) log_gauge_->add(static_cast<std::int64_t>(bytes));
}

bool Replica::assign_and_propose(const Request& request) {
    const crypto::Digest digest = request.digest();
    if (config_.dedup_proposals && known_requests_.contains(digest)) {
        stats_.duplicate_proposals_blocked += 1;
        return false;
    }
    if (std::find(open_batch_digests_.begin(), open_batch_digests_.end(), digest) !=
        open_batch_digests_.end()) {
        stats_.duplicate_proposals_blocked += 1;
        return false;
    }

    open_batch_.push_back(request);
    open_batch_digests_.push_back(digest);
    open_batch_bytes_ += request.size_bytes();

    // Flush on a full batch, or immediately when lingering is off (the
    // single-request default takes this path, so no linger events are
    // ever scheduled there). Otherwise hold the batch open until the
    // linger timer armed by its first request expires.
    if (open_batch_.size() >= config_.max_batch_requests ||
        open_batch_bytes_ >= config_.max_batch_bytes ||
        config_.batch_linger == Duration::zero()) {
        flush_batch();
    } else if (batch_timer_ == sim::kInvalidEvent) {
        batch_timer_ = sim_.schedule(config_.batch_linger, [this] {
            batch_timer_ = sim::kInvalidEvent;
            flush_batch();
        });
    }
    return true;
}

void Replica::flush_batch() {
    if (batch_timer_ != sim::kInvalidEvent) {
        sim_.cancel(batch_timer_);
        batch_timer_ = sim::kInvalidEvent;
    }
    if (open_batch_.empty()) return;
    if (!in_watermarks(next_seq_)) {
        // Queued until the window advances (checkpoint progress) or a
        // view change reroutes the queue.
        for (Request& r : open_batch_) queue_pending(std::move(r));
        open_batch_.clear();
        open_batch_digests_.clear();
        open_batch_bytes_ = 0;
        return;
    }

    const SeqNo seq = next_seq_++;
    PrePrepare pp;
    pp.view = view_;
    pp.seq = seq;
    pp.requests = std::move(open_batch_);
    pp.req_digest = PrePrepare::batch_digest(open_batch_digests_);
    pp.primary = config_.id;
    pp.sig = crypto_.sign(pp.signing_bytes());
    for (const crypto::Digest& d : open_batch_digests_) remember_request(d, seq);
    open_batch_.clear();
    open_batch_digests_.clear();
    open_batch_bytes_ = 0;

    Slot& s = slot(seq);
    account_slot_bytes(s, pp.requests_bytes() + 96);
    stats_.preprepares_sent += 1;
    stats_.batches_proposed += 1;
    stats_.batched_requests += pp.requests.size();
    if (config_.max_batch_requests > 1) {
        trace_point(trace::Phase::kBatchProposed, seq, pp.requests.size());
    }
    s.preprepare = std::move(pp);
    transport_.broadcast(Message{*s.preprepare});
}

void Replica::queue_pending(Request request) {
    if (pending_.size() >= config_.max_pending) {
        stats_.pending_dropped += 1;
        return;
    }
    pending_.push_back(std::move(request));
}

void Replica::drain_pending() {
    while (!pending_.empty() && is_primary() && in_watermarks(next_seq_)) {
        Request r = std::move(pending_.front());
        pending_.pop_front();
        assign_and_propose(r);
    }
}

void Replica::handle(NodeId from, const Request& r) {
    if (!r.is_null() && !crypto_.verify(r.origin, r.signing_bytes(), r.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (r.is_null()) return;  // null requests only appear inside new-view

    if (is_primary()) {
        assign_and_propose(r);
        return;
    }

    // Backup: forward to the primary once per view (the new-view reroute
    // re-forwards undelivered requests); optionally time the primary.
    const crypto::Digest digest = r.digest();
    if (known_requests_.contains(digest) || request_timers_.contains(digest)) return;
    (void)from;
    transport_.send(primary(), Message{r});
    if (config_.request_timeout > Duration::zero()) arm_request_timer(r);
}

void Replica::handle(NodeId from, const PrePrepare& pp) {
    if (in_view_change_ || pp.view != view_) return;
    if (pp.primary != primary_of(pp.view) || from != pp.primary) {
        stats_.invalid_messages += 1;
        return;
    }
    if (pp.seq <= last_exec_ || !in_watermarks(pp.seq)) return;

    if (pp.requests.empty()) {
        stats_.invalid_messages += 1;
        return;
    }
    const std::vector<crypto::Digest> digests = request_digests(pp.requests);
    if (pp.req_digest != PrePrepare::batch_digest(digests)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (!crypto_.verify(pp.primary, pp.signing_bytes(), pp.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    for (std::size_t i = 0; i < pp.requests.size(); ++i) {
        const Request& r = pp.requests[i];
        if (r.is_null()) {
            // The view-change gap filler only ever travels alone.
            if (pp.requests.size() > 1) {
                stats_.invalid_messages += 1;
                return;
            }
            continue;
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (digests[j] == digests[i]) {
                stats_.invalid_messages += 1;
                return;
            }
        }
        if (!crypto_.verify(r.origin, r.signing_bytes(), r.sig)) {
            stats_.invalid_messages += 1;
            return;
        }
    }

    accept_preprepare(pp, digests);
}

void Replica::accept_preprepare(const PrePrepare& pp, const std::vector<crypto::Digest>& digests) {
    Slot& s = slot(pp.seq);
    if (s.preprepare) {
        if (s.preprepare->req_digest != pp.req_digest) {
            // Equivocation by the primary: two requests for one seq.
            ZC_WARN("pbft", "replica {} sees equivocating preprepare at seq {}", config_.id,
                    pp.seq);
            suspect();
        }
        return;
    }
    s.preprepare = pp;
    s.preprepare_at = sim_.now();
    account_slot_bytes(s, pp.requests_bytes() + 96);
    for (std::size_t i = 0; i < pp.requests.size(); ++i) {
        const Request& r = pp.requests[i];
        if (!r.is_null()) remember_request(digests[i], pp.seq);
        trace_request(trace::Phase::kPrePrepare, r, pp.seq);
        app_.preprepared(r);
    }

    if (primary_of(view_) != config_.id) {
        Prepare p;
        p.view = pp.view;
        p.seq = pp.seq;
        p.req_digest = pp.req_digest;
        p.replica = config_.id;
        p.sig = crypto_.sign(p.signing_bytes());
        s.prepares[config_.id] = p;
        account_slot_bytes(s, kPhaseMsgBytes);
        stats_.prepares_sent += 1;
        transport_.broadcast(Message{p});
    }
    maybe_prepared(pp.seq);
}

void Replica::handle(NodeId from, const Prepare& p) {
    if (in_view_change_ || p.view != view_) return;
    if (p.replica != from || p.replica == primary_of(p.view)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (p.seq <= last_exec_ || !in_watermarks(p.seq)) return;
    if (!crypto_.verify(p.replica, p.signing_bytes(), p.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    Slot& s = slot(p.seq);
    if (s.prepares.contains(p.replica)) return;
    s.prepares[p.replica] = p;
    account_slot_bytes(s, kPhaseMsgBytes);
    maybe_prepared(p.seq);
}

void Replica::maybe_prepared(SeqNo seq) {
    Slot& s = slot(seq);
    if (!s.preprepare || s.commit_sent) return;
    std::uint32_t matching = 0;
    for (const auto& [id, p] : s.prepares) {
        if (p.req_digest == s.preprepare->req_digest && p.view == s.preprepare->view) ++matching;
    }
    if (matching < 2 * config_.f) return;

    s.commit_sent = true;
    for (const Request& r : s.preprepare->requests) trace_request(trace::Phase::kPrepared, r, seq);
    Commit c;
    c.view = s.preprepare->view;
    c.seq = seq;
    c.req_digest = s.preprepare->req_digest;
    c.replica = config_.id;
    c.sig = crypto_.sign(c.signing_bytes());
    s.commits[config_.id] = c;
    account_slot_bytes(s, kPhaseMsgBytes);
    stats_.commits_sent += 1;
    transport_.broadcast(Message{c});
    maybe_committed(seq);
}

void Replica::handle(NodeId from, const Commit& c) {
    if (in_view_change_ || c.view != view_) return;
    if (c.replica != from) {
        stats_.invalid_messages += 1;
        return;
    }
    if (c.seq <= last_exec_ || !in_watermarks(c.seq)) return;
    if (!crypto_.verify(c.replica, c.signing_bytes(), c.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    Slot& s = slot(c.seq);
    if (s.commits.contains(c.replica)) return;
    s.commits[c.replica] = c;
    account_slot_bytes(s, kPhaseMsgBytes);
    maybe_committed(c.seq);
}

void Replica::maybe_committed(SeqNo seq) {
    Slot& s = slot(seq);
    if (!s.preprepare || !s.commit_sent || s.executed) return;
    std::uint32_t matching = 0;
    for (const auto& [id, c] : s.commits) {
        if (c.req_digest == s.preprepare->req_digest) ++matching;
    }
    if (matching < quorum()) return;
    execute_ready();
}

void Replica::execute_ready() {
    for (;;) {
        const auto it = log_.find(last_exec_ + 1);
        if (it == log_.end()) return;
        Slot& s = it->second;
        if (!s.preprepare || !s.commit_sent || s.executed) return;
        std::uint32_t matching = 0;
        for (const auto& [id, c] : s.commits) {
            if (c.req_digest == s.preprepare->req_digest) ++matching;
        }
        if (matching < quorum()) return;
        s.executed = true;
        // Agreement round trip for the adaptive timer (Karn's rule: only
        // slots ordered entirely within the current view are sampled; a
        // slot carried across a view change has an ambiguous round trip).
        if (s.preprepare->view == view_) {
            vc_timeout_.observe(sim_.now() - s.preprepare_at);
            stats_.rtt_samples += 1;
        }
        execute(it->first, s.preprepare->requests);
    }
}

void Replica::execute(SeqNo seq, const std::vector<Request>& requests) {
    last_exec_ = seq;
    last_progress_ = sim_.now();
    stats_.decided += 1;

    for (const Request& request : requests) {
        trace_request(trace::Phase::kDecide, request, seq);

        // Forward timers exist only in baseline mode (request_timeout > 0);
        // checking for them first keeps ZugChain mode from hashing here.
        if (!request.is_null() && !request_timers_.empty()) {
            const auto timer = request_timers_.find(request.digest());
            if (timer != request_timers_.end()) {
                sim_.cancel(timer->second.timer);
                request_timers_.erase(timer);
            }
        }

        app_.deliver(request, seq);
    }

    if (seq % config_.checkpoint_interval == 0) emit_checkpoint(seq);
}

// ---- checkpoints -------------------------------------------------------

void Replica::emit_checkpoint(SeqNo seq) {
    Checkpoint c;
    c.seq = seq;
    c.state = app_.state_digest(seq);
    c.replica = config_.id;
    c.sig = crypto_.sign(c.signing_bytes());
    own_checkpoint_digest_[seq] = c.state;
    store_checkpoint(c);
    transport_.broadcast(Message{c});
}

void Replica::handle(NodeId from, const Checkpoint& c) {
    if (c.replica != from) {
        stats_.invalid_messages += 1;
        return;
    }
    if (c.seq <= last_stable_) return;
    if (c.seq % config_.checkpoint_interval != 0) {
        // Checkpoints exist only at interval boundaries; an off-interval
        // seq is fabricated and must not seed a (phantom) quorum.
        stats_.invalid_messages += 1;
        return;
    }
    if (!crypto_.verify(c.replica, c.signing_bytes(), c.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    store_checkpoint(c);
}

void Replica::store_checkpoint(const Checkpoint& c) {
    auto& by_replica = checkpoints_[c.seq][c.state];
    by_replica[c.replica] = c;
    if (by_replica.size() >= quorum()) make_stable(c.seq, c.state);
}

void Replica::make_stable(SeqNo seq, const crypto::Digest& state) {
    if (stable_proofs_.contains(seq)) return;

    CheckpointProof proof;
    proof.seq = seq;
    proof.state = state;
    for (const auto& [id, msg] : checkpoints_[seq][state]) proof.messages.push_back(msg);
    stable_proofs_[seq] = std::move(proof);
    while (stable_proofs_.size() > config_.proof_retention) {
        stable_proofs_.erase(stable_proofs_.begin());
    }
    stats_.checkpoints_stable += 1;
    trace_point(trace::Phase::kCheckpointStable, seq, seq);

    if (seq > last_stable_) {
        last_stable_ = seq;

        if (seq > last_exec_) {
            // We are behind the quorum: state-transfer instead of replay.
            app_.sync_state(seq, state);
            for (auto it = log_.begin(); it != log_.end() && it->first <= seq; ++it) {
                it->second.executed = true;
            }
            last_exec_ = seq;
            // A 2f+1 checkpoint beyond our execution point proves the
            // cluster is ordering without us, so any view change we
            // started was lag-induced suspicion, not a faulty primary.
            // Abort it — nobody else will vote for it, and staying in
            // view-change mode blocks every ordering message (a
            // restarted replica would otherwise never rejoin). A real
            // primary fault will re-trigger suspicion after catch-up.
            if (in_view_change_) {
                in_view_change_ = false;
                vc_attempts_ = 0;
                if (vc_timer_ != sim::kInvalidEvent) {
                    sim_.cancel(vc_timer_);
                    vc_timer_ = sim::kInvalidEvent;
                }
            }
            // Successor slots may already hold commit quorums collected
            // while we lagged; no further commit will arrive to trigger
            // them, so drain here.
            execute_ready();
        }
        garbage_collect(seq);
        app_.stable_checkpoint(seq, stable_proofs_[seq]);
        if (primary() == config_.id && next_seq_ <= seq) next_seq_ = seq + 1;
        drain_pending();
    }
}

void Replica::garbage_collect(SeqNo stable_seq) {
    for (auto it = log_.begin(); it != log_.end() && it->first <= stable_seq;) {
        if (log_gauge_) log_gauge_->add(-static_cast<std::int64_t>(it->second.bytes));
        it = log_.erase(it);
    }
    for (auto it = checkpoints_.begin();
         it != checkpoints_.end() && it->first <= stable_seq;) {
        it = checkpoints_.erase(it);
    }
    // Dedup digests: retain one extra watermark window so late client
    // retransmissions of decided requests are still recognized.
    const SeqNo horizon =
        stable_seq > config_.watermark_window ? stable_seq - config_.watermark_window : 0;
    while (known_front_ < known_by_seq_.size() &&
           known_by_seq_[known_front_].first <= horizon) {
        forget_known(known_by_seq_[known_front_++]);
    }
    if (2 * known_front_ >= known_by_seq_.size()) {
        known_by_seq_.erase(known_by_seq_.begin(),
                            known_by_seq_.begin() + static_cast<std::ptrdiff_t>(known_front_));
        known_front_ = 0;
    }
}

void Replica::remember_request(const crypto::Digest& digest, SeqNo seq) {
    known_requests_[digest] = seq;
    if (known_by_seq_.size() == known_front_ || known_by_seq_.back().first <= seq) {
        known_by_seq_.emplace_back(seq, digest);
        return;
    }
    // A pre-prepare that arrived out of order: keep the index sorted.
    const auto at = std::upper_bound(
        known_by_seq_.begin() + static_cast<std::ptrdiff_t>(known_front_), known_by_seq_.end(),
        seq, [](SeqNo s, const auto& entry) { return s < entry.first; });
    known_by_seq_.emplace(at, seq, digest);
}

void Replica::forget_known(const std::pair<SeqNo, crypto::Digest>& entry) {
    const auto known = known_requests_.find(entry.second);
    if (known != known_requests_.end() && known->second == entry.first) {
        known_requests_.erase(known);
    }
}

// ---- view change -------------------------------------------------------

void Replica::start_view_change(View target) {
    if (target <= view_) return;
    // Thrash detection: giving up on a view while ordering progress was
    // observed within one timeout base means the timeout, not the
    // primary, is at fault (the classic fixed-timeout failure mode under
    // a limping-but-correct primary).
    if (last_progress_ > TimePoint{0} && sim_.now() - last_progress_ <= vc_timeout_.base()) {
        stats_.timeout_thrash += 1;
        trace_point(trace::Phase::kTimeoutThrash, target, stats_.timeout_thrash);
    }
    in_view_change_ = true;
    vc_target_ = target;
    stats_.view_changes_started += 1;
    trace_point(trace::Phase::kViewChangeStart, target, target);
    if (vc_timer_ != sim::kInvalidEvent) sim_.cancel(vc_timer_);

    ViewChange vc = build_view_change(target);
    view_changes_[target][config_.id] = vc;
    transport_.broadcast(Message{vc});
    arm_view_change_timer(target);
    maybe_assemble_new_view(target);
}

ViewChange Replica::build_view_change(View target) {
    ViewChange vc;
    vc.new_view = target;
    vc.last_stable = last_stable_;
    if (last_stable_ > 0) {
        const CheckpointProof* proof = stable_proof(last_stable_);
        if (proof != nullptr) vc.stable_proof = *proof;
    }
    for (const auto& [seq, s] : log_) {
        if (seq <= last_stable_ || !s.preprepare) continue;
        std::vector<Prepare> matching;
        for (const auto& [id, p] : s.prepares) {
            if (p.req_digest == s.preprepare->req_digest) matching.push_back(p);
        }
        if (matching.size() < 2 * config_.f) continue;
        matching.resize(2 * config_.f);
        vc.prepared.push_back(PreparedProof{*s.preprepare, std::move(matching)});
    }
    vc.replica = config_.id;
    vc.sig = crypto_.sign(vc.signing_bytes());
    return vc;
}

bool Replica::validate_checkpoint_proof(const CheckpointProof& proof) {
    // Bound the work a forged proof can demand: more signatures than
    // replicas is impossible for an honest proof.
    if (proof.messages.size() > config_.n) return false;
    std::set<NodeId> signers;
    for (const Checkpoint& c : proof.messages) {
        if (c.seq != proof.seq || c.state != proof.state) return false;
        if (!crypto_.verify(c.replica, c.signing_bytes(), c.sig)) return false;
        signers.insert(c.replica);
    }
    return signers.size() >= quorum();
}

bool Replica::validate_prepared_proof(const PreparedProof& proof) {
    if (proof.prepares.size() > config_.n) return false;
    const PrePrepare& pp = proof.preprepare;
    if (pp.primary != primary_of(pp.view)) return false;
    if (pp.requests.empty()) return false;
    if (pp.req_digest != PrePrepare::batch_digest(request_digests(pp.requests))) return false;
    if (!crypto_.verify(pp.primary, pp.signing_bytes(), pp.sig)) return false;

    std::set<NodeId> signers;
    for (const Prepare& p : proof.prepares) {
        if (p.view != pp.view || p.seq != pp.seq || p.req_digest != pp.req_digest) return false;
        if (p.replica == pp.primary) return false;
        if (!crypto_.verify(p.replica, p.signing_bytes(), p.sig)) return false;
        signers.insert(p.replica);
    }
    return signers.size() >= 2 * config_.f;
}

bool Replica::validate_view_change(const ViewChange& vc) {
    if (!crypto_.verify(vc.replica, vc.signing_bytes(), vc.sig)) return false;
    if (vc.last_stable > 0) {
        if (!vc.stable_proof) return false;
        if (vc.stable_proof->seq != vc.last_stable) return false;
        if (!validate_checkpoint_proof(*vc.stable_proof)) return false;
    }
    for (const PreparedProof& proof : vc.prepared) {
        if (proof.preprepare.seq <= vc.last_stable) return false;
        if (proof.preprepare.view >= vc.new_view) return false;
        if (!validate_prepared_proof(proof)) return false;
    }
    return true;
}

void Replica::handle(NodeId from, const ViewChange& vc) {
    if (vc.replica != from || vc.new_view <= view_) return;
    // find(), not operator[]: the lookup must not create a phantom entry
    // for a view we have never validated a message for.
    if (auto it = view_changes_.find(vc.new_view);
        it != view_changes_.end() && it->second.contains(vc.replica)) {
        return;
    }
    if (!validate_view_change(vc)) {
        stats_.invalid_messages += 1;
        return;
    }
    view_changes_[vc.new_view][vc.replica] = vc;

    // Liveness joining: f+1 distinct replicas claiming views above ours.
    const View floor = in_view_change_ ? vc_target_ : view_;
    std::map<View, std::set<NodeId>> senders_above;
    for (const auto& [v, by_replica] : view_changes_) {
        if (v <= floor) continue;
        for (const auto& [id, msg] : by_replica) senders_above[v].insert(id);
    }
    std::set<NodeId> all_senders;
    View smallest_above = 0;
    for (const auto& [v, senders] : senders_above) {
        for (NodeId id : senders) all_senders.insert(id);
        if (smallest_above == 0) smallest_above = v;
    }
    if (all_senders.size() >= config_.f + 1 && smallest_above > floor) {
        start_view_change(smallest_above);
    }

    maybe_assemble_new_view(vc.new_view);
}

std::vector<PrePrepare> Replica::compute_reproposals(View v, const std::vector<ViewChange>& vcs,
                                                     SeqNo& min_s_out, SeqNo& max_s_out,
                                                     bool sign_them) {
    SeqNo min_s = 0, max_s = 0;
    for (const ViewChange& vc : vcs) {
        min_s = std::max(min_s, vc.last_stable);
        for (const PreparedProof& p : vc.prepared) max_s = std::max(max_s, p.preprepare.seq);
    }
    max_s = std::max(max_s, min_s);
    min_s_out = min_s;
    max_s_out = max_s;

    std::vector<PrePrepare> out;
    for (SeqNo seq = min_s + 1; seq <= max_s; ++seq) {
        const PreparedProof* best = nullptr;
        for (const ViewChange& vc : vcs) {
            for (const PreparedProof& p : vc.prepared) {
                if (p.preprepare.seq != seq) continue;
                if (best == nullptr || p.preprepare.view > best->preprepare.view) best = &p;
            }
        }
        PrePrepare pp;
        pp.view = v;
        pp.seq = seq;
        pp.primary = primary_of(v);
        if (best != nullptr) {
            pp.requests = best->preprepare.requests;
            pp.req_digest = best->preprepare.req_digest;
        } else {
            pp.requests = {Request::null()};
            pp.req_digest = Request::null().digest();
        }
        if (sign_them) pp.sig = crypto_.sign(pp.signing_bytes());
        out.push_back(std::move(pp));
    }
    return out;
}

void Replica::maybe_assemble_new_view(View target) {
    if (primary_of(target) != config_.id || view_ >= target) return;
    const auto it = view_changes_.find(target);
    if (it == view_changes_.end() || !it->second.contains(config_.id)) return;
    if (it->second.size() < quorum()) return;

    std::vector<ViewChange> vcs;
    for (const auto& [id, vc] : it->second) vcs.push_back(vc);

    NewView nv;
    nv.view = target;
    nv.view_changes = vcs;
    SeqNo min_s = 0, max_s = 0;
    nv.reproposals = compute_reproposals(target, vcs, min_s, max_s, /*sign_them=*/true);
    nv.primary = config_.id;
    nv.sig = crypto_.sign(nv.signing_bytes());
    transport_.broadcast(Message{nv});

    // Adopt the highest stable checkpoint among the VCs if we are behind.
    if (min_s > last_stable_) {
        for (const ViewChange& vc : vcs) {
            if (vc.last_stable == min_s && vc.stable_proof) {
                stable_proofs_[min_s] = *vc.stable_proof;
                break;
            }
        }
        if (min_s > last_exec_) {
            const auto proof = stable_proofs_.find(min_s);
            if (proof != stable_proofs_.end()) app_.sync_state(min_s, proof->second.state);
            last_exec_ = min_s;
        }
        last_stable_ = min_s;
        garbage_collect(min_s);
    }

    enter_view(target);
    next_seq_ = max_s + 1;
    install_reproposals(nv.reproposals);
    stats_.new_views_installed += 1;
    app_.new_primary(target, config_.id);
    reroute_after_view_change();
}

void Replica::handle(NodeId from, const NewView& nv) {
    if (nv.view < view_ || (nv.view == view_ && !in_view_change_)) return;
    if (nv.primary != primary_of(nv.view) || from != nv.primary) {
        stats_.invalid_messages += 1;
        return;
    }
    if (nv.primary == config_.id) return;
    if (!crypto_.verify(nv.primary, nv.signing_bytes(), nv.sig)) {
        stats_.invalid_messages += 1;
        return;
    }

    std::set<NodeId> vc_senders;
    for (const ViewChange& vc : nv.view_changes) {
        if (vc.new_view != nv.view || !validate_view_change(vc)) {
            stats_.invalid_messages += 1;
            return;
        }
        vc_senders.insert(vc.replica);
    }
    if (vc_senders.size() < quorum()) {
        stats_.invalid_messages += 1;
        return;
    }

    // Recompute O and compare field-wise; verify the primary's signatures.
    SeqNo min_s = 0, max_s = 0;
    const std::vector<PrePrepare> expected =
        compute_reproposals(nv.view, nv.view_changes, min_s, max_s, /*sign_them=*/false);
    if (expected.size() != nv.reproposals.size()) {
        stats_.invalid_messages += 1;
        return;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const PrePrepare& got = nv.reproposals[i];
        const PrePrepare& want = expected[i];
        if (got.view != want.view || got.seq != want.seq || got.req_digest != want.req_digest ||
            got.primary != want.primary) {
            stats_.invalid_messages += 1;
            return;
        }
        if (!crypto_.verify(got.primary, got.signing_bytes(), got.sig)) {
            stats_.invalid_messages += 1;
            return;
        }
    }

    // Adopt a newer stable checkpoint if the quorum is ahead of us.
    if (min_s > last_stable_) {
        for (const ViewChange& vc : nv.view_changes) {
            if (vc.last_stable == min_s && vc.stable_proof) {
                stable_proofs_[min_s] = *vc.stable_proof;
                break;
            }
        }
        if (min_s > last_exec_) {
            const auto proof = stable_proofs_.find(min_s);
            if (proof != stable_proofs_.end()) app_.sync_state(min_s, proof->second.state);
            last_exec_ = min_s;
        }
        last_stable_ = min_s;
        garbage_collect(min_s);
    }

    enter_view(nv.view);
    install_reproposals(nv.reproposals);
    stats_.new_views_installed += 1;
    app_.new_primary(nv.view, nv.primary);
    reroute_after_view_change();
}

void Replica::enter_view(View v) {
    view_ = v;
    in_view_change_ = false;
    vc_target_ = 0;
    vc_attempts_ = 0;
    trace_point(trace::Phase::kNewView, v, primary_of(v));
    if (vc_timer_ != sim::kInvalidEvent) {
        sim_.cancel(vc_timer_);
        vc_timer_ = sim::kInvalidEvent;
    }

    for (auto it = view_changes_.begin(); it != view_changes_.end() && it->first <= v;) {
        it = view_changes_.erase(it);
    }

    // Drop non-executed slots: the new-view reproposals are authoritative
    // for the old window; everything else is re-proposed by the layer.
    for (auto it = log_.begin(); it != log_.end();) {
        if (it->first > last_exec_ && !it->second.executed) {
            if (log_gauge_) log_gauge_->add(-static_cast<std::int64_t>(it->second.bytes));
            it = log_.erase(it);
        } else {
            ++it;
        }
    }
    while (known_by_seq_.size() > known_front_ && known_by_seq_.back().first > last_exec_) {
        forget_known(known_by_seq_.back());
        known_by_seq_.pop_back();
    }
}

void Replica::install_reproposals(const std::vector<PrePrepare>& reproposals) {
    for (const PrePrepare& pp : reproposals) {
        if (pp.seq <= last_exec_) continue;
        accept_preprepare(pp, request_digests(pp.requests));
    }
}

void Replica::reroute_after_view_change() {
    if (primary() == config_.id) {
        // Leadership gained: requests we forwarded to the deposed primary
        // are ours to assign now (unless the new-view reproposals already
        // carry them), along with anything queued behind the watermark.
        std::vector<Request> retained;
        retained.reserve(request_timers_.size());
        for (auto& [digest, fwd] : request_timers_) {
            sim_.cancel(fwd.timer);
            retained.push_back(std::move(fwd.request));
        }
        request_timers_.clear();
        for (Request& r : retained) {
            if (known_requests_.contains(r.digest())) continue;
            assign_and_propose(r);
        }
        drain_pending();
        if (!open_batch_.empty() && batch_timer_ == sim::kInvalidEvent) flush_batch();
        return;
    }

    // Backup: re-forward undelivered requests — a request forwarded to the
    // deposed primary and not carried by the reproposals would otherwise
    // be stranded forever — and give the new primary a fresh grace period
    // on every surviving timer (a timer left armed against the old view
    // would expire immediately and trigger a suspicion storm).
    for (auto& [digest, fwd] : request_timers_) {
        sim_.cancel(fwd.timer);
        if (!known_requests_.contains(digest)) transport_.send(primary(), Message{fwd.request});
        fwd.armed_view = view_;
        fwd.timer = schedule_request_timer(digest);
    }

    // A deposed primary's open batch and blocked queue: in baseline mode
    // the requests are handed to the new primary like any other forward.
    // In ZugChain mode (request_timeout == 0) the communication layer owns
    // retransmission — its new_primary upcall re-proposes every undecided
    // payload, and a replica-level copy racing those re-proposals would be
    // ordered twice and trip the layer's duplicate-decided suspicion — so
    // the stale copies are dropped here.
    std::deque<Request> stranded;
    stranded.swap(pending_);
    for (Request& r : open_batch_) stranded.push_back(std::move(r));
    open_batch_.clear();
    open_batch_digests_.clear();
    open_batch_bytes_ = 0;
    if (batch_timer_ != sim::kInvalidEvent) {
        sim_.cancel(batch_timer_);
        batch_timer_ = sim::kInvalidEvent;
    }
    if (config_.request_timeout <= Duration::zero()) return;
    for (Request& r : stranded) {
        const crypto::Digest digest = r.digest();
        if (known_requests_.contains(digest) || request_timers_.contains(digest)) continue;
        stats_.pending_rerouted += 1;
        transport_.send(primary(), Message{r});
        arm_request_timer(r);
    }
}

void Replica::arm_view_change_timer(View target) {
    // Exponential backoff (as in PBFT): each unsuccessful attempt doubles
    // the wait for the next view, bounding the view-change message load
    // while the network is partitioned or a quorum is unreachable. The
    // base is the adaptive estimate when enabled (capped), the fixed
    // config value otherwise (legacy schedule, uncapped).
    const Duration timeout = vc_timeout_.with_backoff(vc_attempts_);
    vc_attempts_ += 1;
    if (vc_timeout_.enabled()) {
        trace_point(trace::Phase::kTimeoutAdapt, target,
                    static_cast<std::uint64_t>(timeout.count() / 1'000'000));
    }
    vc_timer_ = sim_.schedule(timeout, [this, target] {
        vc_timer_ = sim::kInvalidEvent;
        if (in_view_change_ && vc_target_ == target) {
            stats_.timeout_escalations += 1;
            start_view_change(target + 1);
        }
    });
}

}  // namespace zc::pbft
