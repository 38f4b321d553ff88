// Checkpoint/watermark edge cases and Byzantine checkpoint behaviour.
#include <gtest/gtest.h>

#include <map>

#include "pbft/harness.hpp"

namespace zc::pbft {
namespace {

using testing::Cluster;

TEST(PbftWatermarks, PrePrepareOutsideWindowIgnored) {
    ReplicaConfig cfg;
    cfg.watermark_window = 20;
    Cluster c(4, cfg);

    const Request r = c.make_request(0, 1, to_bytes("too-far"));
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 21;  // beyond low + window... (low = 0, window = 20) -> 21 out
    pp.requests = {r};
    pp.req_digest = r.digest();
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());
    c.replica(1).on_message(0, Message{pp});
    c.sim.run();
    EXPECT_TRUE(c.app(1).delivered.empty());
    EXPECT_EQ(c.replica(1).stats().prepares_sent, 0u);
}

TEST(PbftWatermarks, SeqZeroAndReplayIgnored) {
    Cluster c;
    const Request r = c.make_request(0, 1, to_bytes("x"));
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 0;  // below low watermark
    pp.requests = {r};
    pp.req_digest = r.digest();
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());
    c.replica(1).on_message(0, Message{pp});
    c.sim.run();
    EXPECT_TRUE(c.app(1).delivered.empty());
}

TEST(PbftCheckpoint, DedupMembershipAcrossGcAndViewChange) {
    // Reference semantics of the dedup set: a digest is known at the seq
    // it was last recorded at; checkpoint GC forgets seqs <= stable -
    // window, and entering a view forgets seqs above the last executed.
    // The view-0 primary is scripted by the test (crashed as a receiver),
    // so it can put one request at two seqs, in either order.
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 5;
    cfg.watermark_window = 10;
    Cluster c(4, cfg);
    c.crash(0);

    std::map<crypto::Digest, SeqNo> model;
    std::vector<Request> reqs;
    for (std::uint64_t i = 0; i < 40; ++i) {
        reqs.push_back(c.make_request(0, i, to_bytes("req-" + std::to_string(i))));
    }
    const auto preprepare = [&](SeqNo seq, const Request& r) {
        PrePrepare pp;
        pp.view = 0;
        pp.seq = seq;
        pp.requests = {r};
        pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
        pp.primary = 0;
        pp.sig = c.crypto_of(0).sign(pp.signing_bytes());
        for (NodeId i = 1; i < 4; ++i) c.replica(i).on_message(0, Message{pp});
        model[r.digest()] = seq;
    };
    const auto gc = [&](SeqNo stable) {
        const SeqNo horizon = stable > cfg.watermark_window ? stable - cfg.watermark_window : 0;
        std::erase_if(model, [horizon](const auto& kv) { return kv.second <= horizon; });
    };
    const auto expect_model = [&](const char* phase) {
        for (NodeId i = 1; i < 4; ++i) {
            for (const Request& r : reqs) {
                EXPECT_EQ(c.replica(i).knows_request(r.digest()), model.contains(r.digest()))
                    << phase << ": replica " << i << " request " << r.origin_seq;
            }
        }
    };

    // Seqs 1-10. reqs[3] moves forward (3 -> 7); reqs[20] is recorded at
    // 6 first and then at 5 (out of order), so its stale entry lies above it.
    for (SeqNo s = 1; s <= 10; ++s) {
        if (s == 7) {
            preprepare(s, reqs[3]);
        } else if (s == 5) {
            preprepare(6, reqs[20]);
            preprepare(5, reqs[20]);
        } else if (s != 6) {
            preprepare(s, reqs[s]);
        }
    }
    c.sim.run();
    ASSERT_EQ(c.replica(1).last_stable(), 10u);
    gc(10);
    expect_model("stable 10");

    // Seqs 11-15: the horizon (5) falls between reqs[3]'s two seqs and
    // between reqs[20]'s.
    for (SeqNo s = 11; s <= 15; ++s) preprepare(s, reqs[s]);
    c.sim.run();
    ASSERT_EQ(c.replica(1).last_stable(), 15u);
    gc(15);
    ASSERT_TRUE(model.contains(reqs[3].digest()));
    expect_model("stable 15");

    // Seqs 16-18 are pre-prepared but never prepared, then the view
    // changes: all three are forgotten, reqs[3] (re-recorded at 18) too.
    c.drop_filter = [](NodeId, NodeId, const Message& m) {
        return std::holds_alternative<Prepare>(m);
    };
    preprepare(16, reqs[22]);
    preprepare(17, reqs[23]);
    preprepare(18, reqs[3]);
    c.sim.run();
    expect_model("pre-prepared 16-18");
    c.drop_filter = nullptr;
    for (NodeId i = 1; i < 4; ++i) c.replica(i).suspect();
    c.sim.run();
    ASSERT_EQ(c.replica(1).view(), 1u);
    ASSERT_EQ(c.replica(1).last_executed(), 15u);
    std::erase_if(model, [](const auto& kv) { return kv.second > 15; });
    expect_model("view 1");

    // The new primary orders fresh requests and reqs[22] again; GC runs
    // past the old entries of reqs[3] and reqs[20].
    for (std::uint64_t i = 24; i < 40; ++i) c.replica(1).propose(reqs[i]);
    c.replica(1).propose(reqs[22]);
    c.sim.run();
    for (const auto& [r, seq] : c.app(1).delivered) {
        if (seq > 15 && !r.is_null()) model[r.digest()] = seq;
    }
    const SeqNo stable = c.replica(1).last_stable();
    ASSERT_GE(stable, 25u);
    gc(stable);
    expect_model("view 1 after gc");
}

TEST(PbftCheckpoint, ByzantineDigestCannotStabilizeAlone) {
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 5;
    Cluster c(4, cfg);
    for (int i = 0; i < 5; ++i) {
        c.replica(0).propose(c.make_request(0, static_cast<std::uint64_t>(i), to_bytes("x")));
    }
    c.sim.run();
    ASSERT_EQ(c.replica(1).last_stable(), 5u);
    const crypto::Digest honest = c.replica(1).latest_stable_proof()->state;

    // Node 3 broadcasts a *different* digest for the next checkpoint; it
    // can never reach 2f+1 on its own, so the lie goes nowhere.
    for (int i = 5; i < 10; ++i) {
        c.replica(0).propose(c.make_request(0, static_cast<std::uint64_t>(i), to_bytes("y")));
    }
    Checkpoint lie;
    lie.seq = 10;
    lie.state.fill(0x66);
    lie.replica = 3;
    lie.sig = c.crypto_of(3).sign(lie.signing_bytes());
    c.replica(1).on_message(3, Message{lie});
    c.sim.run();

    EXPECT_EQ(c.replica(1).last_stable(), 10u);
    EXPECT_NE(c.replica(1).latest_stable_proof()->state, lie.state);
    EXPECT_NE(honest, lie.state);
}

TEST(PbftCheckpoint, ProofRetentionBounded) {
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 2;
    Cluster c(4, cfg);
    const SeqNo last = 2 * (kProofRetention + 3);
    for (SeqNo i = 0; i < last; ++i) {
        c.replica(0).propose(c.make_request(0, i, to_bytes("x")));
    }
    c.sim.run();
    EXPECT_EQ(c.replica(1).last_stable(), last);
    // Old proofs evicted; only the most recent kProofRetention remain.
    EXPECT_EQ(c.replica(1).stable_proof(2), nullptr);
    EXPECT_EQ(c.replica(1).stable_proof(last - 2 * kProofRetention), nullptr);
    EXPECT_NE(c.replica(1).stable_proof(last - 2 * (kProofRetention - 1)), nullptr);
    EXPECT_NE(c.replica(1).stable_proof(last), nullptr);
}

TEST(PbftCheckpoint, StableProofQueryableBySeq) {
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 5;
    Cluster c(4, cfg);
    for (int i = 0; i < 10; ++i) {
        c.replica(0).propose(c.make_request(0, static_cast<std::uint64_t>(i), to_bytes("x")));
    }
    c.sim.run();
    const CheckpointProof* p5 = c.replica(2).stable_proof(5);
    const CheckpointProof* p10 = c.replica(2).stable_proof(10);
    ASSERT_NE(p5, nullptr);
    ASSERT_NE(p10, nullptr);
    EXPECT_EQ(p5->seq, 5u);
    EXPECT_EQ(p10->seq, 10u);
    EXPECT_NE(p5->state, p10->state);
}

TEST(PbftCheckpoint, DigestsDivergeIfAppsDiverge) {
    // Sanity for the whole safety story: if (hypothetically) a replica's
    // application state diverged, its checkpoint digest differs and the
    // divergent node cannot contribute to the honest stable checkpoint.
    Cluster c;
    // Make node 3's app diverge by feeding it a fake deliver directly.
    c.app(3).deliver(c.make_request(2, 999, to_bytes("divergence")), 0);
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 10;
    for (int i = 0; i < 10; ++i) {
        c.replica(0).propose(c.make_request(0, static_cast<std::uint64_t>(i), to_bytes("x")));
    }
    c.sim.run();
    EXPECT_NE(c.app(3).state_digest(10), c.app(0).state_digest(10));
    // The honest majority still stabilized without node 3's digest.
    EXPECT_EQ(c.replica(0).last_stable(), 10u);
}

}  // namespace
}  // namespace zc::pbft
