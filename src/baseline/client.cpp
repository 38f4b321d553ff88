#include "baseline/client.hpp"

namespace zc::baseline {

BaselineClient::BaselineClient(NodeId id, sim::Simulation& sim, crypto::CryptoContext& crypto,
                               ClientSender& sender)
    : id_(id), sim_(sim), crypto_(crypto), sender_(sender) {}

BaselineClient::~BaselineClient() {
    for (auto& [digest, p] : pending_) sim_.cancel(p.timer);
}

void BaselineClient::receive(Bytes payload, std::uint64_t uniquifier) {
    pbft::Request r;
    r.payload = std::move(payload);
    r.origin = id_;
    r.origin_seq = uniquifier;
    r.sig = crypto_.sign(r.signing_bytes());

    const crypto::Digest digest = r.digest();
    sender_.to_primary(r);
    stats_.submitted += 1;
    pending_.emplace(digest, Pending{std::move(r)});
    arm_timer(digest);
}

void BaselineClient::arm_timer(const crypto::Digest& digest) {
    auto it = pending_.find(digest);
    if (it == pending_.end()) return;
    if (it->second.timer != sim::kInvalidEvent) sim_.cancel(it->second.timer);
    it->second.timer = sim_.schedule(kRetransmitTimeout, [this, digest] { on_timeout(digest); });
}

void BaselineClient::on_timeout(const crypto::Digest& digest) {
    const auto it = pending_.find(digest);
    if (it == pending_.end()) return;
    it->second.timer = sim::kInvalidEvent;
    if (it->second.retransmits >= kMaxRetransmits) {
        stats_.abandoned += 1;
        pending_.erase(it);
        return;
    }
    it->second.retransmits += 1;
    stats_.retransmitted += 1;
    sender_.to_all(it->second.request);  // classic PBFT client retransmission
    arm_timer(digest);
}

void BaselineClient::on_decided(const pbft::Request& request) {
    const auto it = pending_.find(request.digest());
    if (it == pending_.end()) return;
    if (it->second.timer != sim::kInvalidEvent) sim_.cancel(it->second.timer);
    pending_.erase(it);
    stats_.decided += 1;
}

void BaselineClient::on_new_primary(NodeId) {
    // The primary moved: re-send all pending requests to the new one.
    for (auto& [digest, entry] : pending_) {
        sender_.to_primary(entry.request);
        arm_timer(digest);
    }
}

}  // namespace zc::baseline
