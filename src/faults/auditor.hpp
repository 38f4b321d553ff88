// End-of-run (and periodic) safety auditor.
//
// The adversary harness is only useful with an oracle that can tell
// whether an attack actually violated the paper's guarantees. The
// SafetyAuditor is that oracle: an omniscient observer outside the
// protocol that inspects the ground-truth state of every correct node and
// data center and checks the invariants the paper claims:
//
//   * chain-prefix agreement across correct replicas (no fork),
//   * durable-store hash linkage (BlockStore::validate),
//   * per-block origin-signature validity (juridical evidence, §III-B),
//   * Alg. 1's no-lost-input guarantee: every bus payload received by a
//     correct node is logged on its chain or still tracked as open,
//   * each DataCenter's exported chain is a proof-covered prefix of a
//     correct replica's chain, under a distinct-signer quorum proof.
//
// Violations are deduplicated, logged via ZC_ERROR (so the flight
// recorder captures them), emitted as kAuditViolation trace events and
// summarized in a typed report that `zugchain_sim --audit` turns into
// exit code 4.
//
// Every check is incremental, so a pass costs O(new blocks + open
// inputs), not O(retained chain + every input ever received):
//   * each audited store keeps a cursor {height, header hash} of the last
//     head that validated clean; a pass validates only the suffix above
//     it plus its link to the cursor hash. The cursor is dropped on a
//     crash (the store is reloaded at restart) and on a failed
//     validation, and is ignored when it has left [base, head] (a prune
//     or rebase past it) or no longer matches the store's header there,
//     so those passes validate from the base again;
//   * origin signatures are verified once per block, above a per-replica
//     height cursor;
//   * the lost-input taps drain at log time, so a pass examines only
//     received-but-unlogged digests;
//   * a data center's checkpoint proof is verified once per distinct
//     proof.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/block_store.hpp"
#include "common/ids.hpp"
#include "crypto/digest.hpp"
#include "pbft/messages.hpp"
#include "trace/trace.hpp"
#include "zugchain/layer.hpp"

namespace zc::faults {

enum class ViolationKind : std::uint8_t {
    kChainFork,            ///< two correct replicas disagree on a shared height
    kBrokenHashLink,       ///< a store fails its own link/root validation
    kBadOriginSignature,   ///< a logged request's origin signature does not verify
    kLostInput,            ///< received by a correct node, neither logged nor open
    kExportedBeyondProof,  ///< DC holds blocks above its proof-covered height
    kExportProofInvalid,   ///< DC's proof lacks a distinct-signer quorum
    kExportMismatch,       ///< DC block differs from the correct replicas' chain
};

const char* violation_name(ViolationKind kind) noexcept;

struct Violation {
    ViolationKind kind;
    NodeId where = kNoNode;  ///< replica id, or kDcEndpointBase + dc id for data centers
    Height height = 0;       ///< offending height (0 when not applicable)
    std::string detail;
};

struct AuditReport {
    std::uint64_t audits = 0;  ///< audit passes performed
    /// Invariant checks evaluated, counting work actually done: per pass
    /// one per store, per replica or DC compared with the reference and
    /// per DC proof coverage, plus one per origin signature verified, per
    /// open input examined and per DC proof verified (an unchanged proof
    /// is not verified again).
    std::uint64_t checks = 0;
    std::vector<Violation> violations;

    bool clean() const noexcept { return violations.empty(); }
    /// Deterministic single-line JSON (CI compares it across runs).
    std::string json() const;
};

/// Ground-truth handle on one replica for an audit pass.
struct ReplicaView {
    NodeId id = 0;
    bool alive = true;
    bool compromised = false;
    const chain::BlockStore* store = nullptr;
    const zugchain::CommunicationLayer* layer = nullptr;  ///< null in baseline mode
};

/// Ground-truth handle on one data center.
struct DataCenterView {
    DataCenterId id = 0;
    const chain::BlockStore* store = nullptr;
    const pbft::CheckpointProof* proof = nullptr;  ///< latest accepted proof, may be null
};

class SafetyAuditor {
public:
    /// Signature verifier (typically a CryptoContext with the deployment's
    /// key directory, owned by the scenario outside any node).
    using Verifier =
        std::function<bool(std::uint32_t signer, BytesView message, const crypto::Signature&)>;

    void configure(std::uint32_t f, SeqNo checkpoint_interval, Verifier verifier);
    void set_trace(trace::TraceContext ctx) noexcept { trace_ = ctx; }
    void set_compromised(NodeId id) { compromised_.insert(id); }
    bool is_compromised(NodeId id) const { return compromised_.contains(id); }

    // -- runtime taps (wired by the scenario / node) --
    /// A node received a bus payload (Alg. 1 input). Ignored when the node
    /// already logged it (a late bus duplicate).
    void note_received(NodeId node, const crypto::Digest& payload_digest);
    /// A node logged a payload on its chain (execution or state transfer);
    /// the payload leaves the node's received-but-unlogged set.
    void note_logged(NodeId node, const crypto::Digest& payload_digest);
    /// A node crashed: its volatile inputs are legitimately lost, and its
    /// store is reloaded at restart, so its store cursors are dropped.
    void note_crashed(NodeId node);

    /// One audit pass over the ground truth. Incremental (see the file
    /// comment), so it is cheap enough to run periodically.
    void audit(const std::vector<ReplicaView>& replicas,
               const std::vector<DataCenterView>& dcs);

    const AuditReport& report() const noexcept { return report_; }

private:
    void violate(ViolationKind kind, NodeId where, Height height, std::string detail);
    void check_store(NodeId where, const chain::BlockStore& store);
    void check_origin_signatures(const ReplicaView& r);
    void check_prefix(const ReplicaView& r, const ReplicaView& ref);
    void check_lost_inputs(const ReplicaView& r);
    void check_data_center(const DataCenterView& dc, const ReplicaView* ref);

    std::uint32_t f_ = 1;
    SeqNo interval_ = 10;
    Verifier verifier_;
    trace::TraceContext trace_;
    AuditReport report_;
    std::set<NodeId> compromised_;
    std::set<std::tuple<int, NodeId, Height>> seen_;  ///< violation dedup
    /// Per node: received, not yet logged (the open-or-lost candidates).
    std::map<NodeId, std::unordered_set<crypto::Digest, crypto::DigestHash>> received_;
    std::map<NodeId, std::unordered_set<crypto::Digest, crypto::DigestHash>> logged_;
    std::map<NodeId, Height> sig_verified_to_;  ///< per-replica incremental cursor

    /// Last head of a store that validated clean.
    struct StoreCursor {
        Height height = 0;
        crypto::Digest hash{};
    };
    std::map<NodeId, StoreCursor> validated_;  ///< by replica id, kDcEndpointBase + dc for DCs
    std::map<NodeId, pbft::CheckpointProof> verified_proof_;  ///< by kDcEndpointBase + dc
};

}  // namespace zc::faults
