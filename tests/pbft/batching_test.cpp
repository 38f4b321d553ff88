// Batch-ordering edges and the bugfix sweep that rode along with it:
// flush policies (size, bytes, linger), checkpoint interaction, malformed
// batches, view changes with half-open batches, stale-primary
// re-forwarding, the bounded pending queue, and request-timer teardown.
#include <gtest/gtest.h>

#include "pbft/harness.hpp"

namespace zc::pbft {
namespace {

using testing::Cluster;

ReplicaConfig batching(std::uint32_t batch, Duration linger) {
    ReplicaConfig cfg;
    cfg.max_batch_requests = batch;
    cfg.batch_linger = linger;
    return cfg;
}

// ---- wire format -------------------------------------------------------

TEST(BatchWire, SingleRequestKeepsLegacyTagAndDigest) {
    Cluster c;
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 1;
    pp.requests = {c.make_request(0, 1, to_bytes("solo"))};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());

    // A batch of one commits to the request's own digest (proof-compatible
    // with the pre-batching format) and frames with the legacy tag.
    EXPECT_EQ(pp.req_digest, pp.requests[0].digest());
    const Bytes wire = encode_message(Message{pp});
    EXPECT_EQ(wire[0], 2);
    const auto m = decode_message(wire);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<PrePrepare>(*m), pp);
}

TEST(BatchWire, MultiRequestRoundTripsUnderBatchedTag) {
    Cluster c;
    PrePrepare pp;
    pp.view = 2;
    pp.seq = 9;
    pp.requests = {c.make_request(0, 1, to_bytes("a")), c.make_request(1, 1, to_bytes("b")),
                   c.make_request(2, 1, to_bytes("c"))};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 2;
    pp.sig = c.crypto_of(2).sign(pp.signing_bytes());

    const Bytes wire = encode_message(Message{pp});
    EXPECT_EQ(wire[0], 8);
    const auto m = decode_message(wire);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<PrePrepare>(*m), pp);

    // The batch digest binds order: swapping two requests changes it.
    const std::vector<Request> swapped = {pp.requests[1], pp.requests[0], pp.requests[2]};
    EXPECT_NE(PrePrepare::batch_digest(request_digests(swapped)), pp.req_digest);
}

TEST(BatchWire, EmptyBatchRejectedOnDecode) {
    codec::Writer w(128);
    w.u8(8);  // batched preprepare transport tag
    w.u64(0);
    w.u64(1);
    w.raw(crypto::Digest{});
    w.varint(0);  // zero requests: invalid
    w.u32(0);
    w.raw(crypto::Signature{}.v);
    EXPECT_FALSE(decode_message(w.take()).has_value());
}

// ---- flush policy ------------------------------------------------------

TEST(BatchFlush, SizeCutoffFlushesImmediately) {
    Cluster c(4, batching(3, milliseconds(100)));
    for (std::uint64_t i = 0; i < 3; ++i) {
        c.replica(0).propose(c.make_request(0, i, to_bytes("r" + std::to_string(i))));
    }
    // The third request hit the size cutoff: flushed synchronously, no
    // linger wait.
    EXPECT_EQ(c.replica(0).open_batch_size(), 0u);
    c.sim.run();

    EXPECT_EQ(c.replica(0).stats().batches_proposed, 1u);
    EXPECT_EQ(c.replica(0).stats().batched_requests, 3u);
    for (NodeId i = 0; i < 4; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 3u) << "replica " << i;
        // One instance: every request delivered under the same seq.
        for (const auto& [req, seq] : c.app(i).delivered) EXPECT_EQ(seq, 1u);
    }
    EXPECT_EQ(c.replica(1).last_executed(), 1u);
}

TEST(BatchFlush, LingerTimerFlushesPartialBatch) {
    Cluster c(4, batching(8, milliseconds(5)));
    c.replica(0).propose(c.make_request(0, 1, to_bytes("first")));
    c.replica(0).propose(c.make_request(0, 2, to_bytes("second")));
    EXPECT_EQ(c.replica(0).open_batch_size(), 2u);  // below the cutoff: held open

    c.sim.run();  // linger expires, the partial batch of two flushes

    EXPECT_EQ(c.replica(0).stats().batches_proposed, 1u);
    EXPECT_EQ(c.replica(0).stats().batched_requests, 2u);
    for (NodeId i = 0; i < 4; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 2u) << "replica " << i;
        EXPECT_EQ(c.app(i).delivered[0].second, 1u);
        EXPECT_EQ(c.app(i).delivered[1].second, 1u);
    }
}

TEST(BatchFlush, ByteCutoffOverridesRequestCount) {
    ReplicaConfig cfg = batching(100, milliseconds(100));
    cfg.max_batch_bytes = 256;  // two ~180-byte requests trip it
    Cluster c(4, cfg);
    c.replica(0).propose(c.make_request(0, 1, Bytes(100, 0xaa)));
    EXPECT_EQ(c.replica(0).open_batch_size(), 1u);
    c.replica(0).propose(c.make_request(0, 2, Bytes(100, 0xbb)));
    EXPECT_EQ(c.replica(0).open_batch_size(), 0u);  // flushed on bytes
    c.sim.run();
    EXPECT_EQ(c.replica(0).stats().batches_proposed, 1u);
    EXPECT_EQ(c.replica(0).stats().batched_requests, 2u);
}

TEST(BatchFlush, DuplicateWithinOpenBatchBlocked) {
    Cluster c(4, batching(8, milliseconds(5)));
    const Request r = c.make_request(0, 1, to_bytes("once"));
    EXPECT_TRUE(c.replica(0).propose(r));
    EXPECT_FALSE(c.replica(0).propose(r));  // still sitting in the open batch
    EXPECT_EQ(c.replica(0).stats().duplicate_proposals_blocked, 1u);
    c.sim.run();
    EXPECT_EQ(c.app(1).delivered.size(), 1u);
}

// ---- checkpoint interaction --------------------------------------------

TEST(BatchCheckpoint, BatchedSequencesStillCheckpointPerInterval) {
    ReplicaConfig cfg = batching(3, milliseconds(2));
    cfg.checkpoint_interval = 2;
    Cluster c(4, cfg);
    // Two full batches of three -> seqs 1 and 2; seq 2 closes a block.
    for (std::uint64_t i = 0; i < 6; ++i) {
        c.replica(0).propose(c.make_request(0, i, to_bytes("t" + std::to_string(i))));
    }
    c.sim.run();

    for (NodeId i = 0; i < 4; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 6u) << "replica " << i;
        EXPECT_GE(c.replica(i).stats().checkpoints_stable, 1u);
        EXPECT_EQ(c.replica(i).last_stable(), 2u);
        // Checkpoint digests agree: every node folded the same requests in
        // the same order.
        EXPECT_EQ(c.app(i).state_digest(2), c.app(0).state_digest(2));
    }
}

// ---- malformed batches -------------------------------------------------

TEST(BatchValidation, DuplicateRequestInsideProposedBatchRejected) {
    Cluster c;
    const Request r = c.make_request(0, 1, to_bytes("twice"));
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 1;
    pp.requests = {r, r};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());

    c.replica(1).on_message(0, Message{pp});
    c.sim.run();
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).stats().prepares_sent, 0u);
    EXPECT_TRUE(c.app(1).delivered.empty());
}

// The backup checks req_digest against digests it computes once and then
// reuses for the duplicate check and its known-request index; a digest
// that does not bind the requests must still be caught first.
TEST(BatchValidation, MismatchedBatchDigestRejected) {
    for (const std::uint64_t size : {1u, 3u}) {
        Cluster c;
        PrePrepare pp;
        pp.view = 0;
        pp.seq = 1;
        for (std::uint64_t i = 1; i <= size; ++i) {
            pp.requests.push_back(c.make_request(0, i, to_bytes("req-" + std::to_string(i))));
        }
        // The primary signs a digest of a batch whose last request differs.
        std::vector<Request> committed = pp.requests;
        committed.back().origin_seq += 100;
        pp.req_digest = PrePrepare::batch_digest(request_digests(committed));
        pp.primary = 0;
        pp.sig = c.crypto_of(0).sign(pp.signing_bytes());

        const std::uint64_t invalid_before = c.replica(1).stats().invalid_messages;
        c.replica(1).on_message(0, Message{pp});
        c.sim.run();
        EXPECT_EQ(c.replica(1).stats().invalid_messages, invalid_before + 1) << "size " << size;
        EXPECT_EQ(c.app(1).preprepared_count, 0) << "size " << size;
        EXPECT_EQ(c.replica(1).stats().prepares_sent, 0u) << "size " << size;
        for (const Request& r : pp.requests) {
            EXPECT_FALSE(c.replica(1).knows_request(r.digest())) << "size " << size;
        }
        EXPECT_TRUE(c.app(1).delivered.empty()) << "size " << size;
    }
}

TEST(BatchValidation, NullFillerMayNotTravelInsideMultiRequestBatch) {
    Cluster c;
    PrePrepare pp;
    pp.view = 0;
    pp.seq = 1;
    pp.requests = {c.make_request(0, 1, to_bytes("real")), Request::null()};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 0;
    pp.sig = c.crypto_of(0).sign(pp.signing_bytes());

    c.replica(1).on_message(0, Message{pp});
    EXPECT_GE(c.replica(1).stats().invalid_messages, 1u);
    EXPECT_EQ(c.replica(1).stats().prepares_sent, 0u);
}

// ---- view change with a half-open batch --------------------------------

TEST(BatchViewChange, HalfOpenBatchReroutedToNewPrimary) {
    // Linger beyond the depose point (10 ms) so primary 0's batch is still
    // open when the view changes, but short enough that the new primary
    // flushes the rerouted requests within the test window.
    ReplicaConfig cfg = batching(8, milliseconds(50));
    cfg.request_timeout = milliseconds(500);
    Cluster c(4, cfg);

    c.replica(0).propose(c.make_request(0, 1, to_bytes("open-1")));
    c.replica(0).propose(c.make_request(0, 2, to_bytes("open-2")));
    EXPECT_EQ(c.replica(0).open_batch_size(), 2u);

    // The cluster deposes primary 0 before its batch flushes.
    c.sim.run_for(milliseconds(10));
    c.replica(1).suspect();
    c.replica(2).suspect();
    c.replica(3).suspect();
    c.sim.run_for(milliseconds(300));

    EXPECT_EQ(c.replica(0).view(), 1u);
    EXPECT_EQ(c.replica(0).open_batch_size(), 0u);
    EXPECT_EQ(c.replica(0).stats().pending_rerouted, 2u);
    // The rerouted requests were ordered under the new primary everywhere.
    for (NodeId i = 0; i < 4; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 2u) << "replica " << i;
    }
}

// ---- bugfix regressions ------------------------------------------------

// A backup forwarded a request to the primary exactly once; after a view
// change the request was stranded with the deposed primary forever. The
// new-view reroute must re-forward it.
TEST(BugfixStaleForward, BackupReforwardsToNewPrimaryAfterViewChange) {
    ReplicaConfig cfg;
    cfg.request_timeout = milliseconds(500);
    Cluster c(4, cfg);
    c.crash(0);  // primary silently gone: the forward below is swallowed

    const Request r = c.make_request(2, 1, to_bytes("stranded"));
    c.replica(2).propose(r);  // forwards to dead primary 0, arms the timer
    c.sim.run_for(milliseconds(10));
    EXPECT_TRUE(c.app(2).delivered.empty());

    c.replica(1).suspect();
    c.replica(2).suspect();
    c.replica(3).suspect();
    c.sim.run_for(milliseconds(300));

    // View 1 installed and the re-forwarded request decided by the
    // surviving quorum.
    EXPECT_EQ(c.replica(2).view(), 1u);
    for (NodeId i = 1; i < 4; ++i) {
        ASSERT_EQ(c.app(i).delivered.size(), 1u) << "replica " << i;
        EXPECT_EQ(c.app(i).delivered[0].first, r);
    }
}

// The primary's watermark-blocked queue was unbounded and died with the
// primary's term. It must cap (with a drop counter) and hand surviving
// entries to the next primary.
TEST(BugfixPendingQueue, BoundedAndHandedToNextPrimary) {
    ReplicaConfig cfg;
    cfg.checkpoint_interval = 2;
    cfg.watermark_window = 4;
    cfg.max_pending = 3;
    cfg.request_timeout = milliseconds(500);
    Cluster c(4, cfg);
    // Stall checkpoints: watermarks never advance past seq 4.
    c.drop_filter = [](NodeId, NodeId, const Message& m) {
        return std::holds_alternative<Checkpoint>(m);
    };

    for (std::uint64_t i = 0; i < 10; ++i) {
        c.replica(0).propose(c.make_request(0, i, to_bytes("q" + std::to_string(i))));
    }
    // Seqs 1..4 were assigned; of the six blocked proposals only
    // max_pending survive, the rest are dropped and counted.
    EXPECT_EQ(c.replica(0).pending_size(), 3u);
    EXPECT_EQ(c.replica(0).stats().pending_dropped, 3u);
    c.sim.run();

    c.replica(1).suspect();
    c.replica(2).suspect();
    c.replica(3).suspect();
    c.sim.run_for(milliseconds(300));

    // The deposed primary handed its queue to the new one, which parks the
    // requests behind its own (still stalled) watermarks.
    EXPECT_EQ(c.replica(0).view(), 1u);
    EXPECT_EQ(c.replica(0).pending_size(), 0u);
    EXPECT_EQ(c.replica(0).stats().pending_rerouted, 3u);
    EXPECT_EQ(c.replica(1).pending_size(), 3u);
}

// Request timers survived a node crash: the zombie timer fired during the
// outage and suspected a primary that was never slow. Node::crash() now
// tears them down via cancel_timers().
TEST(BugfixTimerTeardown, CanceledTimersDoNotSuspectAfterCrash) {
    ReplicaConfig cfg;
    cfg.request_timeout = milliseconds(500);

    // Control: without the teardown the orphaned timer fires and suspects.
    {
        Cluster c(4, cfg);
        c.crash(0);
        c.replica(2).propose(c.make_request(2, 1, to_bytes("orphan")));
        c.sim.run_for(seconds(2));
        EXPECT_GE(c.replica(2).stats().view_changes_started, 1u);
    }

    // With the crash teardown (what Node::crash() invokes) the timer is
    // gone and no spurious suspicion is raised.
    {
        Cluster c(4, cfg);
        c.crash(0);
        c.replica(2).propose(c.make_request(2, 1, to_bytes("orphan")));
        c.sim.run_for(milliseconds(100));
        c.crash(2);
        c.replica(2).cancel_timers();
        c.sim.run_for(seconds(2));
        EXPECT_EQ(c.replica(2).stats().view_changes_started, 0u);
    }
}

// ---- determinism -------------------------------------------------------

TEST(BatchDeterminism, SameSeedSameDeliveryWithBatchingOn) {
    const auto run = [](std::uint64_t seed) {
        Cluster c(4, batching(4, milliseconds(2)), seed);
        for (std::uint64_t i = 0; i < 20; ++i) {
            c.replica(i % 2).propose(
                c.make_request(static_cast<NodeId>(i % 2), i, to_bytes("d" + std::to_string(i))));
        }
        c.sim.run();
        std::vector<std::pair<crypto::Digest, SeqNo>> out;
        for (const auto& [req, seq] : c.app(3).delivered) out.emplace_back(req.digest(), seq);
        return out;
    };
    const auto a = run(7);
    const auto b = run(7);
    ASSERT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace zc::pbft
