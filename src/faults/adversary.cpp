#include "faults/adversary.hpp"

#include <algorithm>
#include <variant>

namespace zc::faults {
namespace {

/// Corrupts a digest in a way that is certain to change it.
void flip(crypto::Digest& d) noexcept { d[0] ^= 0x01; }

}  // namespace

Adversary::Adversary(AdversaryConfig config, NodeId id, std::uint32_t n, sim::Simulation& sim,
                     crypto::CryptoContext& crypto)
    : config_(config), id_(id), n_(n), sim_(sim), crypto_(crypto),
      rng_(sim.rng().fork("adv-" + std::to_string(id))) {}

void Adversary::pbft_send(NodeId to, const pbft::Message& m) {
    if (!emit_) return;
    if (config_.mute) {
        stats_.muted += 1;
        return;
    }
    if (std::holds_alternative<pbft::PrePrepare>(m)) {
        if (config_.drop_preprepares) {
            stats_.preprepares_dropped += 1;
            return;
        }
        if (config_.preprepare_delay > Duration::zero()) {
            stats_.preprepares_delayed += 1;
            // The delayed copy re-enters the pipeline when the timer fires,
            // so delay composes with the other mutations instead of
            // bypassing them; crash() cancels everything still pending.
            std::erase_if(pending_, [this](sim::EventId e) { return !sim_.pending(e); });
            pending_.push_back(sim_.schedule(config_.preprepare_delay,
                                             [this, to, m] { run_pipeline(to, m); }));
            return;
        }
    }
    run_pipeline(to, m);
}

void Adversary::run_pipeline(NodeId to, pbft::Message m) {
    // Record genuine own checkpoints before any tampering (stale
    // re-announcement must replay authentic, verifiable messages).
    if (const auto* c = std::get_if<pbft::Checkpoint>(&m)) {
        if (past_checkpoints_.empty() || past_checkpoints_.back().seq < c->seq) {
            if (past_checkpoints_.size() < 8) past_checkpoints_.push_back(*c);
        }
        if (config_.stale_checkpoint && !past_checkpoints_.empty() &&
            past_checkpoints_.front().seq < c->seq) {
            stats_.stale_checkpoints += 1;
            m = pbft::Message{past_checkpoints_.front()};
        }
    }

    // Equivocation: one designated victim gets a forged batch for the slot.
    if (const auto* pp = std::get_if<pbft::PrePrepare>(&m);
        pp != nullptr && config_.equivocate_rate > 0.0 && n_ > 1 && to == (id_ + 1) % n_) {
        if (const pbft::PrePrepare* variant = equivocation_variant(*pp)) {
            m = pbft::Message{*variant};
        }
    }

    // A backup equivocator splits its Prepare votes instead: the victim
    // sees this replica vouch for a different digest than everyone else.
    if (auto* pr = std::get_if<pbft::Prepare>(&m);
        pr != nullptr && config_.equivocate_rate > 0.0 && n_ > 1 && to == (id_ + 1) % n_ &&
        rng_.chance(config_.equivocate_rate)) {
        flip(pr->req_digest);
        pr->sig = crypto_.sign(pr->signing_bytes());
        stats_.equivocations += 1;
    }

    // Field tampering: corrupt the request digest but keep the signature
    // valid (re-sign), so receivers must reject on semantic validation.
    if (config_.digest_flip_rate > 0.0 && rng_.chance(config_.digest_flip_rate)) {
        if (auto* pp = std::get_if<pbft::PrePrepare>(&m)) {
            flip(pp->req_digest);
            pp->sig = crypto_.sign(pp->signing_bytes());
            stats_.digests_flipped += 1;
        } else if (auto* p = std::get_if<pbft::Prepare>(&m)) {
            flip(p->req_digest);
            p->sig = crypto_.sign(p->signing_bytes());
            stats_.digests_flipped += 1;
        } else if (auto* c = std::get_if<pbft::Commit>(&m)) {
            flip(c->req_digest);
            c->sig = crypto_.sign(c->signing_bytes());
            stats_.digests_flipped += 1;
        }
    }

    // Lying view change: hide everything this replica prepared and its
    // stable checkpoint (tries to roll correct nodes back).
    if (config_.lie_view_change) {
        if (auto* vc = std::get_if<pbft::ViewChange>(&m)) {
            vc->prepared.clear();
            vc->last_stable = 0;
            vc->stable_proof.reset();
            vc->sig = crypto_.sign(vc->signing_bytes());
            stats_.lied_view_changes += 1;
        }
    }

    // Signature stripping (the cheapest forgery).
    if (config_.sig_strip_rate > 0.0 && rng_.chance(config_.sig_strip_rate)) {
        std::visit([](auto& msg) { msg.sig = crypto::Signature{}; }, m);
        stats_.sigs_stripped += 1;
    }

    emit_with_replay(to, std::move(m));
}

void Adversary::emit_with_replay(NodeId to, pbft::Message m) {
    emit_(to, m);
    if (config_.replay_rate > 0.0 && !history_.empty() && rng_.chance(config_.replay_rate)) {
        stats_.replays += 1;
        emit_(to, history_[rng_.next_below(history_.size())].second);
    }
    history_.emplace_back(to, std::move(m));
    if (history_.size() > 32) history_.pop_front();
}

const pbft::PrePrepare* Adversary::equivocation_variant(const pbft::PrePrepare& pp) {
    const auto key = std::make_pair(pp.view, pp.seq);
    auto it = variants_.find(key);
    if (it == variants_.end()) {
        std::optional<pbft::PrePrepare> variant;
        if (rng_.chance(config_.equivocate_rate)) {
            pbft::PrePrepare forged = pp;
            forged.requests = {forge_request()};
            forged.req_digest =
                pbft::PrePrepare::batch_digest(pbft::request_digests(forged.requests));
            forged.sig = crypto_.sign(forged.signing_bytes());
            stats_.equivocations += 1;
            variant = std::move(forged);
        }
        if (variants_.size() >= 512) variants_.erase(variants_.begin());
        it = variants_.emplace(key, std::move(variant)).first;
    }
    return it->second ? &*it->second : nullptr;
}

pbft::Request Adversary::forge_request() {
    pbft::Request r;
    r.payload = rng_.bytes(48);
    r.origin = id_;
    // High bits keep forged origin_seqs clear of real bus cycles.
    r.origin_seq = (std::uint64_t{1} << 44) + forge_counter_++;
    r.sig = crypto_.sign(r.signing_bytes());
    return r;
}

bool Adversary::mutate_layer(pbft::Request& r) {
    if (config_.mute) {
        stats_.muted += 1;
        return false;
    }
    if (config_.sig_strip_rate > 0.0 && rng_.chance(config_.sig_strip_rate)) {
        r.sig = crypto::Signature{};
        stats_.sigs_stripped += 1;
    }
    return true;
}

bool Adversary::replay_layer() {
    if (config_.replay_rate > 0.0 && rng_.chance(config_.replay_rate)) {
        stats_.replays += 1;
        return true;
    }
    return false;
}

bool Adversary::mutate_export(exporter::ExportMessage& m) {
    if (config_.mute) {
        stats_.muted += 1;
        return false;
    }
    if (auto* rr = std::get_if<exporter::ReadReply>(&m)) {
        if (config_.under_quorum_proofs && rr->proof.messages.size() > 1) {
            // 2f+1 copies of a single replica's checkpoint: right count,
            // one distinct signer. Distinct-signer counting must reject it.
            const pbft::Checkpoint one = rr->proof.messages.front();
            for (auto& c : rr->proof.messages) c = one;
            rr->sig = crypto_.sign(rr->signing_bytes());
            stats_.under_quorum_proofs += 1;
        }
        if (config_.forge_export_blocks && !rr->blocks.empty()) {
            const Height from = rr->blocks.front().header.height;
            const Height to = rr->blocks.back().header.height;
            rr->blocks = forged_range(rr->blocks.front().header.parent_hash, from, to);
            rr->sig = crypto_.sign(rr->signing_bytes());
        }
    } else if (auto* fr = std::get_if<exporter::BlockFetchReply>(&m)) {
        if (config_.forge_export_blocks && !fr->blocks.empty()) {
            const Height from = fr->blocks.front().header.height;
            const Height to = fr->blocks.back().header.height;
            fr->blocks = forged_range(fr->blocks.front().header.parent_hash, from, to);
            fr->sig = crypto_.sign(fr->signing_bytes());
        }
    }
    return true;
}

std::vector<chain::Block> Adversary::forged_range(const crypto::Digest& parent, Height from,
                                                  Height to) {
    std::vector<chain::Block> out;
    crypto::Digest prev = parent;
    for (Height h = from; h <= to; ++h) {
        pbft::Request fake = forge_request();
        chain::LoggedRequest lr;
        lr.payload = std::move(fake.payload);
        lr.origin = id_;
        lr.seq = h;
        lr.origin_seq = fake.origin_seq;
        lr.sig = fake.sig;
        std::vector<chain::LoggedRequest> reqs;
        reqs.push_back(std::move(lr));
        chain::Block b =
            chain::Block::build(h, prev, static_cast<std::int64_t>(h), std::move(reqs));
        prev = b.hash();
        out.push_back(std::move(b));
        stats_.forged_blocks += 1;
    }
    return out;
}

void Adversary::cancel_pending() {
    for (const sim::EventId e : pending_) sim_.cancel(e);
    pending_.clear();
}

}  // namespace zc::faults
