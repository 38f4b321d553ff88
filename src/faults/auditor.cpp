#include "faults/auditor.hpp"

#include <algorithm>
#include <sstream>

#include "common/hex.hpp"
#include "common/log.hpp"

namespace zc::faults {
namespace {

/// Stable JSON key for a violation kind.
const char* kKindNames[] = {
    "chain_fork",           "broken_hash_link",     "bad_origin_signature", "lost_input",
    "exported_beyond_proof", "export_proof_invalid", "export_mismatch",
};

}  // namespace

const char* violation_name(ViolationKind kind) noexcept {
    return kKindNames[static_cast<unsigned>(kind)];
}

void SafetyAuditor::configure(std::uint32_t f, SeqNo checkpoint_interval, Verifier verifier) {
    f_ = f;
    interval_ = checkpoint_interval == 0 ? 1 : checkpoint_interval;
    verifier_ = std::move(verifier);
}

void SafetyAuditor::note_received(NodeId node, const crypto::Digest& payload_digest) {
    // The logged set is kept so a late bus duplicate of a logged payload
    // is not mistaken for an open input.
    if (const auto logged = logged_.find(node);
        logged != logged_.end() && logged->second.contains(payload_digest)) {
        return;
    }
    received_[node].insert(payload_digest);
}

void SafetyAuditor::note_logged(NodeId node, const crypto::Digest& payload_digest) {
    logged_[node].insert(payload_digest);
    if (const auto received = received_.find(node); received != received_.end()) {
        received->second.erase(payload_digest);
    }
}

void SafetyAuditor::note_crashed(NodeId node) {
    // A crash legitimately loses volatile inputs: Alg. 1's guarantee only
    // covers payloads a *correct, running* node accepted. The logged set
    // is kept — the durable chain survives the crash.
    received_[node].clear();
    // The store is reloaded at restart and may come back below (or beside)
    // either cursor.
    sig_verified_to_.erase(node);
    validated_.erase(node);
}

void SafetyAuditor::violate(ViolationKind kind, NodeId where, Height height,
                            std::string detail) {
    if (!seen_.emplace(static_cast<int>(kind), where, height).second) return;
    ZC_ERROR("audit", "safety violation {} at {} height {}: {}", violation_name(kind), where,
             height, detail);
    trace_.event(trace::Phase::kAuditViolation,
                 (static_cast<std::uint64_t>(where) << 40) ^ height,
                 static_cast<std::uint64_t>(kind));
    report_.violations.push_back(Violation{kind, where, height, std::move(detail)});
}

void SafetyAuditor::check_store(NodeId where, const chain::BlockStore& store) {
    report_.checks += 1;
    const Height base = store.base_height();
    const Height head = store.head_height();
    // Blocks up to a still-valid cursor were validated by an earlier pass
    // and a store never rewrites a retained block in place, so only the
    // suffix above the cursor and its link to the cursor hash need
    // checking. Anything else (no cursor, pruned or rebased past it, a
    // different block at its height) validates from the base.
    bool valid = false;
    const auto cursor = validated_.find(where);
    const chain::BlockHeader* at_cursor =
        cursor != validated_.end() && cursor->second.height >= base &&
                cursor->second.height <= head
            ? store.header(cursor->second.height)
            : nullptr;
    if (at_cursor != nullptr && at_cursor->hash() == cursor->second.hash) {
        const Height from = cursor->second.height + 1;
        const chain::BlockHeader* next = from <= head ? store.header(from) : nullptr;
        valid = from > head || (next != nullptr && next->parent_hash == cursor->second.hash &&
                                store.validate(from, head));
    } else {
        valid = store.validate(base, head);
    }
    if (!valid) {
        validated_.erase(where);
        violate(ViolationKind::kBrokenHashLink, where, head,
                "store fails hash-link/payload-root validation");
        return;
    }
    validated_[where] = StoreCursor{head, store.head_hash()};
}

void SafetyAuditor::check_origin_signatures(const ReplicaView& r) {
    if (!verifier_) return;
    Height& cursor = sig_verified_to_[r.id];
    cursor = std::max(cursor, r.store->base_height());
    const Height head = r.store->head_height();
    for (Height h = cursor + 1; h <= head; ++h) {
        const chain::Block* b = r.store->get(h);
        if (b == nullptr) continue;  // pruned or body-trimmed: headers only
        for (const chain::LoggedRequest& lr : b->requests) {
            if (lr.origin == kNoNode) continue;  // null filler slot
            report_.checks += 1;
            const Bytes sb = pbft::request_signing_bytes(lr.payload, lr.origin, lr.origin_seq);
            if (!verifier_(lr.origin, sb, lr.sig)) {
                violate(ViolationKind::kBadOriginSignature, r.id, h,
                        format("request from origin {} seq {} has an invalid signature",
                               lr.origin, lr.seq));
            }
        }
    }
    cursor = head;
}

void SafetyAuditor::check_prefix(const ReplicaView& r, const ReplicaView& ref) {
    report_.checks += 1;
    const Height hi = std::min(r.store->head_height(), ref.store->head_height());
    const Height lo = std::max(r.store->base_height(), ref.store->base_height());
    if (hi < lo) return;  // no overlap retained (aggressive pruning)
    const chain::BlockHeader* a = r.store->header(hi);
    const chain::BlockHeader* b = ref.store->header(hi);
    if (a == nullptr || b == nullptr) return;
    if (a->hash() != b->hash()) {
        violate(ViolationKind::kChainFork, r.id, hi,
                format("chain disagrees with replica {} at shared height", ref.id));
    }
}

void SafetyAuditor::check_lost_inputs(const ReplicaView& r) {
    if (r.layer == nullptr) return;  // baseline mode: no open-request tracking
    const auto received = received_.find(r.id);
    if (received == received_.end()) return;
    for (const crypto::Digest& d : received->second) {  // received, not logged
        report_.checks += 1;
        if (r.layer->is_open(d)) continue;
        violate(ViolationKind::kLostInput, r.id, 0,
                format("payload {} received but neither logged nor open",
                       to_hex(BytesView{d.data(), 8})));
    }
}

void SafetyAuditor::check_data_center(const DataCenterView& dc, const ReplicaView* ref) {
    const NodeId where = kDcEndpointBase + dc.id;  // report namespace for data centers
    check_store(where, *dc.store);
    if (dc.proof != nullptr) {
        const Height covered = dc.proof->seq / interval_;
        report_.checks += 1;
        if (dc.store->head_height() > covered) {
            violate(ViolationKind::kExportedBeyondProof, where, dc.store->head_height(),
                    format("holds blocks above proof-covered height {}", covered));
        }
        const auto verified = verified_proof_.find(where);
        if (verifier_ && (verified == verified_proof_.end() || verified->second != *dc.proof)) {
            report_.checks += 1;
            std::set<NodeId> signers;
            for (const pbft::Checkpoint& c : dc.proof->messages) {
                if (c.seq != dc.proof->seq || c.state != dc.proof->state) continue;
                const Bytes sb = c.signing_bytes();
                if (!verifier_(c.replica, sb, c.sig)) continue;
                signers.insert(c.replica);
            }
            if (signers.size() < 2 * f_ + 1) {
                violate(ViolationKind::kExportProofInvalid, where, covered,
                        format("proof carries {} distinct valid signers, need {}",
                               signers.size(), 2 * f_ + 1));
            } else {
                verified_proof_[where] = *dc.proof;
            }
        }
    }
    if (ref != nullptr) {
        report_.checks += 1;
        const Height hi = std::min(dc.store->head_height(), ref->store->head_height());
        const Height lo = std::max(dc.store->base_height(), ref->store->base_height());
        if (hi >= lo) {
            const chain::BlockHeader* a = dc.store->header(hi);
            const chain::BlockHeader* b = ref->store->header(hi);
            if (a != nullptr && b != nullptr && a->hash() != b->hash()) {
                violate(ViolationKind::kExportMismatch, where, hi,
                        format("exported block differs from replica {}'s chain", ref->id));
            }
        }
    }
}

void SafetyAuditor::audit(const std::vector<ReplicaView>& replicas,
                          const std::vector<DataCenterView>& dcs) {
    report_.audits += 1;
    const ReplicaView* ref = nullptr;
    for (const ReplicaView& r : replicas) {
        if (r.compromised || !r.alive || r.store == nullptr) continue;
        check_store(r.id, *r.store);
        check_origin_signatures(r);
        check_lost_inputs(r);
        if (ref == nullptr) {
            ref = &r;
        } else {
            check_prefix(r, *ref);
        }
    }
    for (const DataCenterView& dc : dcs) {
        if (dc.store == nullptr) continue;
        check_data_center(dc, ref);
    }
}

std::string AuditReport::json() const {
    std::ostringstream out;
    out << "{\"audits\":" << audits << ",\"checks\":" << checks << ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        const Violation& v = violations[i];
        if (i != 0) out << ',';
        out << "{\"kind\":\"" << violation_name(v.kind) << "\",\"where\":" << v.where
            << ",\"height\":" << v.height << ",\"detail\":\"" << v.detail << "\"}";
    }
    out << "]}";
    return out.str();
}

}  // namespace zc::faults
