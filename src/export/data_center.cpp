#include "export/data_center.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace zc::exporter {

DataCenter::DataCenter(DcConfig config, sim::Simulation& sim, crypto::CryptoContext& crypto,
                       DcTransport& transport, metrics::Gauge* store_gauge)
    : config_(config), sim_(sim), crypto_(crypto), transport_(transport),
      rng_(sim.rng().fork("dc-" + std::to_string(config.id))), store_(store_gauge) {}

void DataCenter::start_export() {
    if (exporting()) return;
    stats_.exports_started += 1;
    attempts_ = 0;
    begin_round();
}

void DataCenter::begin_round() {
    state_ = State::kReading;
    current_ = ExportRecord{};
    current_.started = sim_.now();
    current_.exported_from = store_.head_height();
    replies_.clear();
    best_proof_.reset();
    staged_blocks_.clear();
    acks_.clear();

    // (2) one randomly determined replica sends the full blocks.
    std::vector<NodeId> candidates;
    for (NodeId i = 0; i < config_.n; ++i) {
        if (!excluded_full_.contains(i)) candidates.push_back(i);
    }
    if (candidates.empty()) {
        excluded_full_.clear();
        for (NodeId i = 0; i < config_.n; ++i) candidates.push_back(i);
    }
    full_from_ = candidates[rng_.next_below(candidates.size())];

    ReadRequest req;
    req.dc = config_.id;
    req.last_height = store_.head_height();
    req.full_from = full_from_;
    req.sig = crypto_.sign(req.signing_bytes());
    for (NodeId i = 0; i < config_.n; ++i) transport_.to_replica(i, ExportMessage{req});
    arm_timeout();
}

void DataCenter::arm_timeout() {
    if (timeout_ != sim::kInvalidEvent) sim_.cancel(timeout_);
    timeout_ = sim_.schedule(config_.reply_timeout, [this] {
        timeout_ = sim::kInvalidEvent;
        if (state_ == State::kReading || state_ == State::kFetching) {
            // The chosen replica did not deliver (a faulty node denying to
            // respond, §V-B, or a link outage): retry with another one,
            // after a backoff.
            retry_round();
        } else if (state_ == State::kDeleting) {
            // Acks missing; report what we have.
            finish(true);
        }
    });
}

void DataCenter::retry_round() {
    stats_.retries += 1;
    excluded_full_.insert(full_from_);
    state_ = State::kIdle;
    attempts_ += 1;
    if (attempts_ > config_.max_retries) {
        ZC_WARN("export-dc", "dc {} export abandoned after {} retries", config_.id, attempts_ - 1);
        stats_.exports_failed += 1;
        finish(false);
        return;
    }
    // Exponential backoff: survive a link flap without hammering a dead
    // uplink; the next round starts after the wait. Seeded jitter (up to
    // +25 %) desynchronizes data centers retrying into the same outage —
    // deterministic, since rng_ is a per-DC fork of the sim seed.
    Duration backoff = config_.retry_backoff;
    for (std::uint32_t i = 1; i < attempts_ && backoff < config_.retry_backoff_max; ++i) {
        backoff = backoff * 2;
    }
    backoff = std::min(backoff, config_.retry_backoff_max);
    const std::uint64_t jitter_span = static_cast<std::uint64_t>(backoff.count()) / 4;
    if (jitter_span > 0) {
        backoff += Duration{static_cast<std::int64_t>(rng_.next_below(jitter_span + 1))};
    }
    retry_timer_ = sim_.schedule(backoff, [this] {
        retry_timer_ = sim::kInvalidEvent;
        begin_round();
    });
}

void DataCenter::on_message(const ExportMessage& m) {
    std::visit(
        [this](const auto& msg) {
            using T = std::decay_t<decltype(msg)>;
            if constexpr (std::is_same_v<T, ReadReply> || std::is_same_v<T, BlockFetchReply> ||
                          std::is_same_v<T, DcSync> || std::is_same_v<T, DeleteAck> ||
                          std::is_same_v<T, DcFetch>) {
                handle(msg);
            }
        },
        m);
}

bool DataCenter::validate_proof(const pbft::CheckpointProof& proof) {
    if (proof.messages.size() > config_.n) return false;
    std::set<NodeId> signers;
    for (const pbft::Checkpoint& c : proof.messages) {
        if (c.seq != proof.seq || c.state != proof.state) return false;
        if (!crypto_.verify(c.replica, c.signing_bytes(), c.sig)) return false;
        signers.insert(c.replica);
    }
    return signers.size() >= 2 * config_.f + 1;
}

void DataCenter::handle(const ReadReply& m) {
    if (state_ != State::kReading) return;
    if (!crypto_.verify(m.replica, m.signing_bytes(), m.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (replies_.contains(m.replica)) return;
    if (!validate_proof(m.proof)) {
        stats_.invalid_messages += 1;
        return;
    }
    replies_.emplace(m.replica, m);
    maybe_complete_read();
}

void DataCenter::maybe_complete_read() {
    // Wait for 2f+1 proofs *and* the full blocks from the chosen replica:
    // a single valid checkpoint would be safe but could be outdated,
    // leaving more data on the train than necessary (§III-D step 3).
    if (replies_.size() < 2 * config_.f + 1 || !replies_.contains(full_from_)) return;

    current_.read_time = sim_.now() - current_.started;
    trace_span(trace::Phase::kExportRead, current_.started, current_.read_time,
               stats_.exports_started, replies_.size());

    // The latest stable checkpoint wins.
    for (const auto& [id, reply] : replies_) {
        if (!best_proof_ || reply.proof.seq > best_proof_->seq) best_proof_ = reply.proof;
    }
    target_height_ = best_proof_->seq / config_.checkpoint_interval;
    staged_blocks_ = replies_.at(full_from_).blocks;
    verify_and_continue();
}

Height DataCenter::covered_height(std::vector<chain::Block>& staged) const {
    std::sort(staged.begin(), staged.end(), [](const chain::Block& a, const chain::Block& b) {
        return a.header.height < b.header.height;
    });
    Height top = store_.head_height();
    for (const chain::Block& b : staged) {
        if (b.header.height == top + 1) top += 1;
    }
    return top;
}

bool DataCenter::adopt(std::vector<chain::Block>& staged, Height target,
                       const crypto::Digest& state) {
    // Stage-then-adopt: the whole range must hash-link from our head to
    // the quorum-certified checkpoint digest BEFORE anything is appended
    // to the permanent store. A forged-but-hash-linked range from a
    // compromised replica or peer dies here.
    const bool ok = store_.adopt(staged, target, state,
                                 [this](std::size_t bytes) { crypto_.charge_hash(bytes); });
    if (!ok) stats_.blocks_rejected += staged.size();
    return ok;
}

void DataCenter::verify_and_continue() {
    // (4) Validate the chain up to the block covered by the checkpoint.
    const Duration meter_before = crypto_.meter().pending();

    if (store_.head_height() < target_height_) {
        // Coverage check first: a gap between our head (plus what is
        // staged) and the checkpointed block needs a second fetch round
        // (§III-D step 4). Staged blocks stay staged across rounds.
        const Height top = covered_height(staged_blocks_);
        if (top < target_height_) {
            state_ = State::kFetching;
            BlockFetch fetch;
            fetch.dc = config_.id;
            fetch.from = top + 1;
            fetch.to = target_height_;
            fetch.sig = crypto_.sign(fetch.signing_bytes());
            std::vector<NodeId> candidates;
            for (NodeId i = 0; i < config_.n; ++i) {
                if (i != full_from_) candidates.push_back(i);
            }
            transport_.to_replica(candidates[rng_.next_below(candidates.size())],
                                  ExportMessage{fetch});
            arm_timeout();
            return;
        }
        if (!adopt(staged_blocks_, target_height_, best_proof_->state)) {
            ZC_WARN("export-dc", "dc {} rejected {} staged blocks (checkpoint mismatch)",
                    config_.id, staged_blocks_.size());
            staged_blocks_.clear();
            retry_round();
            return;
        }
    }
    // Already covered by an earlier export/sync, or just adopted: the
    // certified digest must match what we hold.
    staged_blocks_.clear();
    const chain::BlockHeader* head = store_.header(target_height_);
    if (head == nullptr || head->hash() != best_proof_->state) {
        ZC_WARN("export-dc", "dc {} chain/checkpoint mismatch at height {}", config_.id,
                target_height_);
        stats_.exports_failed += 1;
        finish(false);
        return;
    }

    const Duration verify_cost = crypto_.meter().pending() - meter_before;
    current_.verify_cost += verify_cost;
    trace_span(trace::Phase::kExportVerify, sim_.now(), verify_cost, stats_.exports_started,
               target_height_);
    last_proof_ = best_proof_;

    // (3) Synchronize with the other companies' data centers.
    DcSync sync;
    sync.from = config_.id;
    sync.proof = *best_proof_;
    sync.blocks = store_.range(current_.exported_from + 1, target_height_);
    sync.sig = crypto_.sign(sync.signing_bytes());
    for (DataCenterId peer : config_.peers) {
        transport_.to_data_center(peer, ExportMessage{sync});
    }

    // (5) Sign and broadcast the delete.
    issue_delete(target_height_, head->hash());
}

void DataCenter::handle(const BlockFetchReply& m) {
    if (state_ != State::kFetching) return;
    if (!crypto_.verify(m.replica, m.signing_bytes(), m.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    // Accumulate: earlier staged (but not yet validated/adopted) blocks
    // are still pending; the fetch round filled the gap above them.
    staged_blocks_.insert(staged_blocks_.end(), m.blocks.begin(), m.blocks.end());
    state_ = State::kReading;  // re-enter verification
    verify_and_continue();
}

void DataCenter::issue_delete(Height height, const crypto::Digest& block_hash) {
    state_ = State::kDeleting;
    delete_started_ = sim_.now();
    current_.exported_to = height;
    current_.blocks = height - current_.exported_from;

    DeleteCmd del;
    del.dc = config_.id;
    del.height = height;
    del.block_hash = block_hash;
    del.sig = crypto_.sign(del.signing_bytes());
    for (NodeId i = 0; i < config_.n; ++i) transport_.to_replica(i, ExportMessage{del});
    arm_timeout();
}

void DataCenter::handle(const DcSync& m) {
    if (!crypto_.verify(dc_key_id(m.from), m.signing_bytes(), m.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (!validate_proof(m.proof)) {
        stats_.invalid_messages += 1;
        return;
    }
    stats_.syncs_received += 1;

    const Height target = m.proof.seq / config_.checkpoint_interval;
    if (store_.head_height() < target) {
        std::vector<chain::Block> staged = m.blocks;
        if (covered_height(staged) < target) {
            // We missed earlier exports (error (iv)): the replicas may
            // have pruned those blocks, so recover the gap from the peer
            // that has the full history.
            DcFetch fetch;
            fetch.from_dc = config_.id;
            fetch.from = store_.head_height() + 1;
            fetch.to = target;
            fetch.sig = crypto_.sign(fetch.signing_bytes());
            transport_.to_data_center(m.from, ExportMessage{fetch});
            return;
        }
        if (!adopt(staged, target, m.proof.state)) {
            ZC_WARN("export-dc", "dc {} rejected {} sync blocks from dc {}", config_.id,
                    staged.size(), m.from);
            stats_.invalid_messages += 1;
            return;
        }
    }
    const chain::BlockHeader* head = store_.header(target);
    if (head == nullptr || head->hash() != m.proof.state) return;
    last_proof_ = m.proof;

    // All data centers sign deletes (§III-D step 5); replicas act once a
    // quorum of them agrees.
    DeleteCmd del;
    del.dc = config_.id;
    del.height = target;
    del.block_hash = head->hash();
    del.sig = crypto_.sign(del.signing_bytes());
    for (NodeId i = 0; i < config_.n; ++i) transport_.to_replica(i, ExportMessage{del});
}

void DataCenter::handle(const DcFetch& m) {
    if (!crypto_.verify(dc_key_id(m.from_dc), m.signing_bytes(), m.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (!last_proof_) return;  // nothing certified to serve yet
    DcSync sync;
    sync.from = config_.id;
    sync.proof = *last_proof_;
    const Height to = std::min(m.to, store_.head_height());
    if (m.from <= to) sync.blocks = store_.range(m.from, to);
    sync.sig = crypto_.sign(sync.signing_bytes());
    transport_.to_data_center(m.from_dc, ExportMessage{sync});
}

void DataCenter::handle(const DeleteAck& m) {
    if (state_ != State::kDeleting) return;
    if (!crypto_.verify(m.replica, m.signing_bytes(), m.sig)) {
        stats_.invalid_messages += 1;
        return;
    }
    if (!m.executed || m.height != current_.exported_to) return;
    acks_.insert(m.replica);
    // (7) Wait for every replica able to answer (n - f suffices: f faulty
    // replicas may never ack; their missed delete is caught by the
    // header-trim fallback, error (v)).
    if (acks_.size() >= config_.n - config_.f) {
        current_.delete_time = sim_.now() - delete_started_;
        trace_span(trace::Phase::kExportDelete, delete_started_, current_.delete_time,
                   current_.exported_to, acks_.size());
        finish(true);
    }
}

void DataCenter::finish(bool success) {
    if (timeout_ != sim::kInvalidEvent) {
        sim_.cancel(timeout_);
        timeout_ = sim::kInvalidEvent;
    }
    current_.success = success;
    if (success) stats_.exports_completed += 1;
    history_.push_back(current_);
    state_ = State::kIdle;
    if (on_complete_) on_complete_(current_);
}

}  // namespace zc::exporter
