// Adversarial and edge-case tests for the view-change subprotocol.
#include <gtest/gtest.h>

#include "pbft/harness.hpp"

namespace zc::pbft {
namespace {

using testing::Cluster;

// Helper: a view change signed by `signer` claiming `new_view`.
ViewChange make_vc(Cluster& c, NodeId signer, View new_view) {
    ViewChange vc;
    vc.new_view = new_view;
    vc.last_stable = 0;
    vc.replica = signer;
    vc.sig = c.crypto_of(signer).sign(vc.signing_bytes());
    return vc;
}

TEST(ViewChangeValidation, ForgedViewChangeSignatureRejected) {
    Cluster c;
    ViewChange vc = make_vc(c, 2, 1);
    vc.sig = c.crypto_of(3).sign(vc.signing_bytes());  // wrong signer
    c.replica(1).on_message(2, Message{vc});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).view(), 0u);
}

TEST(ViewChangeValidation, BogusPreparedProofRejected) {
    Cluster c;
    // A Byzantine replica claims request X prepared at seq 1 but cannot
    // produce 2f valid prepares.
    const Request r = c.make_request(3, 1, to_bytes("never-prepared"));
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 1;
    pp.requests = {r};
    pp.req_digest = r.digest();
    pp.primary = 0;
    pp.sig = c.crypto_of(3).sign(pp.signing_bytes());  // forged: not primary's key

    ViewChange vc;
    vc.new_view = 1;
    vc.last_stable = 0;
    vc.prepared.push_back(PreparedProof{pp, {}});
    vc.replica = 3;
    vc.sig = c.crypto_of(3).sign(vc.signing_bytes());

    c.replica(1).on_message(3, Message{vc});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
}

TEST(ViewChangeValidation, ForgedNewViewRejected) {
    Cluster c;
    // Node 3 (not the view-1 primary) forges a NewView for view 1.
    NewView nv;
    nv.view = 1;
    nv.view_changes = {make_vc(c, 1, 1), make_vc(c, 2, 1), make_vc(c, 3, 1)};
    nv.primary = 1;
    nv.sig = c.crypto_of(3).sign(nv.signing_bytes());  // wrong key
    c.replica(2).on_message(1, Message{nv});
    EXPECT_GE(c.replica(2).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(2).view(), 0u);
}

TEST(ViewChangeValidation, NewViewWithInsufficientVcsRejected) {
    Cluster c;
    // Drop everything so replica 2 sees only the forged NewView.
    c.drop_filter = [](NodeId, NodeId, const Message&) { return true; };
    c.replica(2).suspect();  // moves it into view change for view 1

    NewView nv;
    nv.view = 1;
    nv.view_changes = {make_vc(c, 1, 1), make_vc(c, 3, 1)};  // only 2 < 2f+1
    nv.primary = 1;
    nv.sig = c.crypto_of(1).sign(nv.signing_bytes());
    c.replica(2).on_message(1, Message{nv});
    EXPECT_GE(c.replica(2).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(2).view(), 0u);  // never installed
}

TEST(ViewChangeValidation, NewViewWithWrongReproposalsRejected) {
    Cluster c;
    // A NewView whose O set does not match what the carried view changes
    // justify (here: an extra null slot the VCs never prepared) must be
    // rejected by the recomputation check.
    NewView bad;
    bad.view = 1;
    bad.view_changes = {make_vc(c, 1, 1), make_vc(c, 2, 1), make_vc(c, 3, 1)};
    PrePrepare extra;
    extra.view = 1;
    extra.seq = 1;
    extra.requests = {Request::null()};
    extra.req_digest = Request::null().digest();
    extra.primary = 1;
    extra.sig = c.crypto_of(1).sign(extra.signing_bytes());
    bad.reproposals.push_back(extra);  // O claims a slot the VCs don't justify
    bad.primary = 1;
    bad.sig = c.crypto_of(1).sign(bad.signing_bytes());

    c.replica(2).suspect();  // replica 2 is awaiting a NewView for view 1
    c.replica(2).on_message(1, Message{bad});
    EXPECT_GE(c.replica(2).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(2).view(), 0u);
}

TEST(ViewChangeBackoff, RepeatedTimeoutsEscalateViews) {
    ReplicaConfig cfg;
    cfg.view_change_timeout = milliseconds(200);
    Cluster c(4, cfg);
    c.crash(0);
    c.crash(1);
    c.replica(2).suspect();
    c.replica(3).suspect();
    c.sim.run_until(seconds(10));
    // With 2 crashed there is never a quorum; targets keep escalating but
    // backoff keeps the attempt count sub-linear in time.
    const auto attempts = c.replica(2).stats().view_changes_started;
    EXPECT_GE(attempts, 3u);
    EXPECT_LT(attempts, 40u);  // without backoff: ~50 in 10 s at 200 ms
}

TEST(ViewChangeRecovery, MultipleConsecutiveFailovers) {
    ReplicaConfig cfg;
    cfg.view_change_timeout = milliseconds(400);
    Cluster c(7, cfg);  // f = 2: survives two failed primaries
    // Primary 0 dies; later the new primary 1 dies too.
    c.crash(0);
    for (NodeId i = 1; i < 7; ++i) c.replica(i).suspect();
    c.sim.run();
    EXPECT_EQ(c.replica(2).primary(), 1u);

    c.crash(1);
    for (NodeId i = 2; i < 7; ++i) c.replica(i).suspect();
    c.sim.run();
    EXPECT_EQ(c.replica(2).primary(), 2u);

    // Ordering works under the third primary.
    c.replica(2).propose(c.make_request(2, 1, to_bytes("third-era")));
    c.sim.run();
    for (NodeId i = 2; i < 7; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 1u) << "replica " << i;
    }
}

// Helper: a checkpoint message for (seq, state) signed by `signer`.
Checkpoint make_ckpt(Cluster& c, NodeId signer, SeqNo seq, const crypto::Digest& state) {
    Checkpoint m;
    m.seq = seq;
    m.state = state;
    m.replica = signer;
    m.sig = c.crypto_of(signer).sign(m.signing_bytes());
    return m;
}

TEST(ProofHardening, DuplicateSignerCheckpointProofRejected) {
    Cluster c;
    const crypto::Digest state{};
    // 2f+1 checkpoint copies but one distinct signer: an equivocating
    // replica must not vouch for a stable checkpoint on its own.
    CheckpointProof proof;
    proof.seq = 10;
    proof.state = state;
    for (int i = 0; i < 3; ++i) proof.messages.push_back(make_ckpt(c, 2, 10, state));

    ViewChange vc;
    vc.new_view = 1;
    vc.last_stable = 10;
    vc.stable_proof = proof;
    vc.replica = 2;
    vc.sig = c.crypto_of(2).sign(vc.signing_bytes());
    c.replica(1).on_message(2, Message{vc});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).view(), 0u);
}

TEST(ProofHardening, OversizeCheckpointProofRejected) {
    Cluster c;
    const crypto::Digest state{};
    // Every signature is valid and 4 distinct signers exceed the quorum,
    // but 5 messages for 4 replicas is impossible for an honest proof.
    CheckpointProof proof;
    proof.seq = 10;
    proof.state = state;
    for (NodeId signer : {0u, 1u, 2u, 3u, 0u}) {
        proof.messages.push_back(make_ckpt(c, signer, 10, state));
    }

    ViewChange vc;
    vc.new_view = 1;
    vc.last_stable = 10;
    vc.stable_proof = proof;
    vc.replica = 2;
    vc.sig = c.crypto_of(2).sign(vc.signing_bytes());
    c.replica(1).on_message(2, Message{vc});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).view(), 0u);
}

TEST(ProofHardening, DuplicateSignerPreparedProofRejected) {
    Cluster c;
    const Request r = c.make_request(3, 1, to_bytes("under-quorum"));
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 1;
    pp.requests = {r};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());

    // 2f prepares, both from the same backup: one distinct signer.
    PreparedProof proof;
    proof.preprepare = pp;
    for (int i = 0; i < 2; ++i) {
        Prepare p;
        p.view = 0;
        p.seq = 1;
        p.req_digest = pp.req_digest;
        p.replica = 2;
        p.sig = c.crypto_of(2).sign(p.signing_bytes());
        proof.prepares.push_back(p);
    }

    ViewChange vc;
    vc.new_view = 1;
    vc.last_stable = 0;
    vc.prepared.push_back(proof);
    vc.replica = 2;
    vc.sig = c.crypto_of(2).sign(vc.signing_bytes());
    c.replica(1).on_message(2, Message{vc});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).view(), 0u);
}

TEST(ProofHardening, MisalignedCheckpointRejected) {
    Cluster c;
    // Checkpoints only exist at multiples of the interval (10 here); a
    // validly signed one at seq 7 is fabricated by construction.
    c.replica(1).on_message(2, Message{make_ckpt(c, 2, 7, crypto::Digest{})});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
}

TEST(ProofHardening, InvalidViewChangeDoesNotPoisonDedup) {
    Cluster c;
    // A rejected view change must not occupy the sender's dedup slot:
    // the genuine retry still counts toward the join rule and the
    // view-1 primary still assembles its NewView.
    ViewChange bad = make_vc(c, 2, 1);
    bad.sig = c.crypto_of(3).sign(bad.signing_bytes());  // invalid signature
    c.replica(1).on_message(2, Message{bad});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);

    c.replica(1).on_message(2, Message{make_vc(c, 2, 1)});
    c.replica(1).on_message(3, Message{make_vc(c, 3, 1)});
    c.sim.run_until(seconds(1));
    EXPECT_EQ(c.replica(1).view(), 1u);
}

}  // namespace
}  // namespace zc::pbft
