// Unit tests of the adversary mutation pipeline: profile lookup, forged
// ranges, equivocation consistency, tampering, replay, delayed-send
// cancellation and determinism.
#include <gtest/gtest.h>

#include "chain/block_store.hpp"
#include "crypto/sha256.hpp"
#include "faults/adversary.hpp"
#include "faults/profiles.hpp"
#include "pbft/messages.hpp"

namespace zc::faults {
namespace {

struct AdvFixture : ::testing::Test {
    AdvFixture() : sim(11) {
        Rng keyrng(5);
        for (std::uint32_t i = 0; i < 4; ++i) {
            keys.push_back(provider.generate(keyrng));
            directory.register_key(i, keys.back().pub);
        }
        crypto = std::make_unique<crypto::CryptoContext>(provider, directory, keys[0], costs,
                                                         meter);
    }

    std::unique_ptr<Adversary> make(const AdversaryConfig& cfg, NodeId id = 0) {
        auto adv = std::make_unique<Adversary>(cfg, id, 4, sim, *crypto);
        adv->set_pbft_emit([this](NodeId to, const pbft::Message& m) {
            emitted.emplace_back(to, m);
        });
        return adv;
    }

    pbft::PrePrepare make_preprepare(View view, SeqNo seq) {
        pbft::PrePrepare pp;
        pp.view = view;
        pp.seq = seq;
        pp.primary = 0;
        pbft::Request r;
        r.payload = to_bytes("telegram");
        r.origin = 2;
        r.origin_seq = seq;
        crypto::WorkMeter m;
        crypto::CryptoContext origin_ctx(provider, directory, keys[2], costs, m);
        r.sig = origin_ctx.sign(r.signing_bytes());
        pp.requests = {r};
        pp.req_digest = pbft::PrePrepare::batch_digest(pbft::request_digests(pp.requests));
        pp.sig = crypto->sign(pp.signing_bytes());
        return pp;
    }

    pbft::Checkpoint make_checkpoint(SeqNo seq) {
        pbft::Checkpoint c;
        c.seq = seq;
        c.state = crypto::sha256(to_bytes("state" + std::to_string(seq)));
        c.replica = 0;
        c.sig = crypto->sign(c.signing_bytes());
        return c;
    }

    sim::Simulation sim;
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    std::vector<crypto::KeyPair> keys;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> crypto;
    std::vector<std::pair<NodeId, pbft::Message>> emitted;
};

TEST(AdversaryProfiles, AllNamesResolveAndAreActive) {
    const auto names = profile_names();
    EXPECT_GE(names.size(), 10u);
    for (const std::string& name : names) {
        const auto cfg = profile_config(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_TRUE(cfg->any()) << name << " profile sets no knobs";
    }
    EXPECT_FALSE(profile_config("no-such-profile").has_value());
    EXPECT_FALSE(AdversaryConfig{}.any());
}

TEST_F(AdvFixture, ForgedRangeIsHashLinkedAndPayloadValid) {
    AdversaryConfig cfg;
    cfg.poison_state_transfer = true;
    auto adv = make(cfg);

    const crypto::Digest parent = crypto::sha256(to_bytes("parent"));
    const auto blocks = adv->forged_range(parent, 3, 7);
    ASSERT_EQ(blocks.size(), 5u);
    crypto::Digest prev = parent;
    Height h = 3;
    for (const chain::Block& b : blocks) {
        EXPECT_EQ(b.header.height, h);
        EXPECT_EQ(b.header.parent_hash, prev);
        EXPECT_TRUE(b.payload_valid());
        prev = b.hash();
        h += 1;
    }
    EXPECT_EQ(adv->stats().forged_blocks, 5u);
}

TEST_F(AdvFixture, EquivocationTargetsVictimConsistently) {
    AdversaryConfig cfg;
    cfg.equivocate_rate = 1.0;
    auto adv = make(cfg, /*id=*/0);  // victim = node 1

    const pbft::PrePrepare pp = make_preprepare(0, 1);
    adv->pbft_send(1, pbft::Message{pp});
    adv->pbft_send(2, pbft::Message{pp});
    adv->pbft_send(1, pbft::Message{pp});  // resend of the same slot
    ASSERT_EQ(emitted.size(), 3u);

    const auto& forged1 = std::get<pbft::PrePrepare>(emitted[0].second);
    const auto& honest = std::get<pbft::PrePrepare>(emitted[1].second);
    const auto& forged2 = std::get<pbft::PrePrepare>(emitted[2].second);

    EXPECT_NE(forged1.req_digest, pp.req_digest);       // victim sees a fork
    EXPECT_EQ(honest.req_digest, pp.req_digest);        // everyone else: original
    EXPECT_EQ(forged1.req_digest, forged2.req_digest);  // resends stay consistent

    // The forged variant is internally valid: outer and inner signatures
    // verify, and the digest matches its own batch.
    EXPECT_EQ(forged1.req_digest,
              pbft::PrePrepare::batch_digest(pbft::request_digests(forged1.requests)));
    EXPECT_TRUE(crypto->verify(0, forged1.signing_bytes(), forged1.sig));
    ASSERT_EQ(forged1.requests.size(), 1u);
    const Bytes inner = forged1.requests[0].signing_bytes();
    EXPECT_TRUE(crypto->verify(forged1.requests[0].origin, inner, forged1.requests[0].sig));
    EXPECT_EQ(adv->stats().equivocations, 1u);
}

TEST_F(AdvFixture, BackupEquivocatorSplitsPrepareVotes) {
    AdversaryConfig cfg;
    cfg.equivocate_rate = 1.0;
    auto adv = make(cfg, /*id=*/0);  // victim = node 1

    pbft::Prepare p;
    p.view = 0;
    p.seq = 1;
    p.req_digest = crypto::sha256(to_bytes("batch"));
    p.replica = 0;
    p.sig = crypto->sign(p.signing_bytes());
    adv->pbft_send(1, pbft::Message{p});
    adv->pbft_send(2, pbft::Message{p});
    ASSERT_EQ(emitted.size(), 2u);

    const auto& split = std::get<pbft::Prepare>(emitted[0].second);
    const auto& honest = std::get<pbft::Prepare>(emitted[1].second);
    EXPECT_NE(split.req_digest, p.req_digest);  // the victim's copy diverges
    EXPECT_EQ(honest.req_digest, p.req_digest);
    EXPECT_TRUE(crypto->verify(0, split.signing_bytes(), split.sig));  // re-signed
    EXPECT_EQ(adv->stats().equivocations, 1u);
}

TEST_F(AdvFixture, DigestFlipKeepsSignatureValid) {
    AdversaryConfig cfg;
    cfg.digest_flip_rate = 1.0;
    auto adv = make(cfg);

    adv->pbft_send(1, pbft::Message{make_preprepare(0, 1)});
    ASSERT_EQ(emitted.size(), 1u);
    const auto& pp = std::get<pbft::PrePrepare>(emitted[0].second);
    EXPECT_NE(pp.req_digest, pbft::PrePrepare::batch_digest(pbft::request_digests(pp.requests)));
    EXPECT_TRUE(crypto->verify(0, pp.signing_bytes(), pp.sig));
    EXPECT_EQ(adv->stats().digests_flipped, 1u);
}

TEST_F(AdvFixture, SigStripZeroesSignature) {
    AdversaryConfig cfg;
    cfg.sig_strip_rate = 1.0;
    auto adv = make(cfg);

    adv->pbft_send(1, pbft::Message{make_preprepare(0, 1)});
    ASSERT_EQ(emitted.size(), 1u);
    const auto& pp = std::get<pbft::PrePrepare>(emitted[0].second);
    EXPECT_EQ(pp.sig, crypto::Signature{});
    EXPECT_EQ(adv->stats().sigs_stripped, 1u);
}

TEST_F(AdvFixture, LyingViewChangeHidesPreparedAndStableProof) {
    AdversaryConfig cfg;
    cfg.lie_view_change = true;
    auto adv = make(cfg);

    pbft::ViewChange vc;
    vc.new_view = 1;
    vc.replica = 0;
    vc.last_stable = 10;
    pbft::CheckpointProof proof;
    proof.seq = 10;
    vc.stable_proof = proof;
    vc.prepared.push_back(pbft::PreparedProof{make_preprepare(0, 11), {}});
    vc.sig = crypto->sign(vc.signing_bytes());

    adv->pbft_send(1, pbft::Message{vc});
    ASSERT_EQ(emitted.size(), 1u);
    const auto& lied = std::get<pbft::ViewChange>(emitted[0].second);
    EXPECT_TRUE(lied.prepared.empty());
    EXPECT_EQ(lied.last_stable, 0u);
    EXPECT_FALSE(lied.stable_proof.has_value());
    EXPECT_TRUE(crypto->verify(0, lied.signing_bytes(), lied.sig));
    EXPECT_EQ(adv->stats().lied_view_changes, 1u);
}

TEST_F(AdvFixture, StaleCheckpointReAnnouncesOldest) {
    AdversaryConfig cfg;
    cfg.stale_checkpoint = true;
    auto adv = make(cfg);

    adv->pbft_send(1, pbft::Message{make_checkpoint(10)});
    adv->pbft_send(1, pbft::Message{make_checkpoint(20)});
    ASSERT_EQ(emitted.size(), 2u);
    EXPECT_EQ(std::get<pbft::Checkpoint>(emitted[0].second).seq, 10u);
    EXPECT_EQ(std::get<pbft::Checkpoint>(emitted[1].second).seq, 10u);  // stale swap
    EXPECT_EQ(adv->stats().stale_checkpoints, 1u);
}

TEST_F(AdvFixture, ReplayEmitsMessageFromHistory) {
    AdversaryConfig cfg;
    cfg.replay_rate = 1.0;
    auto adv = make(cfg);

    adv->pbft_send(1, pbft::Message{make_checkpoint(10)});
    adv->pbft_send(1, pbft::Message{make_checkpoint(20)});
    // First send has no history; the second replays the first.
    EXPECT_EQ(emitted.size(), 3u);
    EXPECT_EQ(adv->stats().replays, 1u);
}

TEST_F(AdvFixture, DelayedSendsReEnterPipelineAndCancelOnCrash) {
    AdversaryConfig cfg;
    cfg.preprepare_delay = milliseconds(50);
    cfg.digest_flip_rate = 1.0;  // composes: the delayed copy is tampered too
    auto adv = make(cfg);

    adv->pbft_send(1, pbft::Message{make_preprepare(0, 1)});
    EXPECT_TRUE(emitted.empty());
    sim.run_until(milliseconds(60));
    ASSERT_EQ(emitted.size(), 1u);
    const auto& pp = std::get<pbft::PrePrepare>(emitted[0].second);
    EXPECT_NE(pp.req_digest, pbft::PrePrepare::batch_digest(pbft::request_digests(pp.requests)));
    EXPECT_EQ(adv->stats().preprepares_delayed, 1u);

    // A send whose timer is still pending dies with the node.
    adv->pbft_send(1, pbft::Message{make_preprepare(0, 2)});
    adv->cancel_pending();
    sim.run_until(milliseconds(200));
    EXPECT_EQ(emitted.size(), 1u);
}

TEST_F(AdvFixture, UnderQuorumProofCollapsesToOneSigner) {
    AdversaryConfig cfg;
    cfg.under_quorum_proofs = true;
    auto adv = make(cfg);

    exporter::ReadReply reply;
    reply.replica = 0;
    for (NodeId i = 0; i < 3; ++i) {
        pbft::Checkpoint c;
        c.seq = 10;
        c.replica = i;
        reply.proof.messages.push_back(c);
    }
    reply.proof.seq = 10;
    exporter::ExportMessage m{reply};
    ASSERT_TRUE(adv->mutate_export(m));
    const auto& out = std::get<exporter::ReadReply>(m);
    ASSERT_EQ(out.proof.messages.size(), 3u);  // right count...
    for (const auto& c : out.proof.messages) {
        EXPECT_EQ(c.replica, out.proof.messages.front().replica);  // ...one signer
    }
    EXPECT_EQ(adv->stats().under_quorum_proofs, 1u);
}

TEST_F(AdvFixture, ForgeExportBlocksReplacesRange) {
    AdversaryConfig cfg;
    cfg.forge_export_blocks = true;
    auto adv = make(cfg);

    exporter::BlockFetchReply reply;
    reply.replica = 0;
    chain::BlockStore real;
    for (Height h = 1; h <= 4; ++h) {
        std::vector<chain::LoggedRequest> reqs(1);
        reqs[0].payload = to_bytes("real" + std::to_string(h));
        real.append(chain::Block::build(h, real.head_hash(), static_cast<std::int64_t>(h),
                                        std::move(reqs)));
    }
    reply.blocks = real.range(2, 4);
    exporter::ExportMessage m{reply};
    ASSERT_TRUE(adv->mutate_export(m));
    const auto& out = std::get<exporter::BlockFetchReply>(m);
    ASSERT_EQ(out.blocks.size(), 3u);
    EXPECT_EQ(out.blocks.front().header.height, 2u);
    EXPECT_EQ(out.blocks.front().header.parent_hash, real.header(1)->hash());
    EXPECT_NE(out.blocks.back().hash(), real.header(4)->hash());  // forged content
    EXPECT_TRUE(out.blocks.front().payload_valid());
    EXPECT_EQ(adv->stats().forged_blocks, 3u);
}

TEST_F(AdvFixture, SameSeedSameDecisions) {
    AdversaryConfig cfg;
    cfg.digest_flip_rate = 0.5;
    cfg.replay_rate = 0.3;

    auto run = [&](std::vector<std::pair<NodeId, pbft::Message>>& sink) {
        sim::Simulation local(99);
        crypto::WorkMeter m;
        crypto::CryptoContext ctx(provider, directory, keys[0], costs, m);
        Adversary adv(cfg, 0, 4, local, ctx);
        adv.set_pbft_emit(
            [&sink](NodeId to, const pbft::Message& msg) { sink.emplace_back(to, msg); });
        for (SeqNo s = 1; s <= 20; ++s) adv.pbft_send(1 + s % 3, pbft::Message{make_preprepare(0, s)});
    };
    std::vector<std::pair<NodeId, pbft::Message>> a, b;
    run(a);
    run(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(pbft::encode_message(a[i].second), pbft::encode_message(b[i].second));
    }
}

TEST_F(AdvFixture, MuteSuppressesEverything) {
    AdversaryConfig cfg;
    cfg.mute = true;
    auto adv = make(cfg);
    adv->pbft_send(1, pbft::Message{make_preprepare(0, 1)});
    pbft::Request r;
    r.payload = to_bytes("x");
    EXPECT_FALSE(adv->mutate_layer(r));
    EXPECT_TRUE(emitted.empty());
    EXPECT_EQ(adv->stats().muted, 2u);
    EXPECT_GE(adv->stats().attempts(), 2u);
}

}  // namespace
}  // namespace zc::faults
