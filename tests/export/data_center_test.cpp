// Unit tests of the data-center export state machine against a scripted
// transport (no network): happy path, retries against unresponsive or
// lying replicas, and gap handling.
#include <gtest/gtest.h>

#include "export/data_center.hpp"
#include "export/server.hpp"

namespace zc::exporter {
namespace {

struct ScriptedTransport final : DcTransport {
    void to_replica(NodeId replica, const ExportMessage& m) override {
        to_replicas.emplace_back(replica, m);
    }
    void to_data_center(DataCenterId dc, const ExportMessage& m) override {
        to_dcs.emplace_back(dc, m);
    }
    template <typename T>
    std::vector<std::pair<NodeId, T>> replica_msgs() const {
        std::vector<std::pair<NodeId, T>> out;
        for (const auto& [to, m] : to_replicas) {
            if (const T* typed = std::get_if<T>(&m)) out.emplace_back(to, *typed);
        }
        return out;
    }
    std::vector<std::pair<NodeId, ExportMessage>> to_replicas;
    std::vector<std::pair<DataCenterId, ExportMessage>> to_dcs;
};

struct DcFixture : ::testing::Test {
    DcFixture() : sim(17) {
        Rng keyrng(21);
        for (std::uint32_t i = 0; i < 4; ++i) {
            replica_keys.push_back(provider.generate(keyrng));
            directory.register_key(i, replica_keys.back().pub);
        }
        for (std::uint32_t d = 0; d < 2; ++d) {
            dc_keys.push_back(provider.generate(keyrng));
            directory.register_key(dc_key_id(d), dc_keys.back().pub);
        }
        crypto = std::make_unique<crypto::CryptoContext>(provider, directory, dc_keys[0], costs,
                                                         meter);
        DcConfig cfg;
        cfg.id = 0;
        cfg.n = 4;
        cfg.f = 1;
        cfg.checkpoint_interval = 10;
        cfg.peers = {1};
        cfg.reply_timeout = seconds(5);
        dc = std::make_unique<DataCenter>(cfg, sim, *crypto, transport);

        // A reference chain held by "the replicas".
        for (int i = 0; i < 8; ++i) {
            const Height h = train_chain.head_height() + 1;
            std::vector<chain::LoggedRequest> reqs(3);
            for (auto& r : reqs) {
                r.payload = to_bytes("blk" + std::to_string(h));
                r.seq = h * 10;
            }
            train_chain.append(chain::Block::build(h, train_chain.head_hash(),
                                                   static_cast<std::int64_t>(h),
                                                   std::move(reqs)));
        }
    }

    pbft::CheckpointProof proof_at(Height height) {
        pbft::CheckpointProof p;
        p.seq = height * 10;
        p.state = train_chain.header(height)->hash();
        for (NodeId i = 0; i < 3; ++i) {
            pbft::Checkpoint c;
            c.seq = p.seq;
            c.state = p.state;
            c.replica = i;
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, replica_keys[i], costs, m);
            c.sig = ctx.sign(c.signing_bytes());
            p.messages.push_back(c);
        }
        return p;
    }

    ReadReply reply_from(NodeId replica, Height proof_height, bool with_blocks,
                         Height from = 1) {
        ReadReply r;
        r.replica = replica;
        r.proof = proof_at(proof_height);
        if (with_blocks) r.blocks = train_chain.range(from, proof_height);
        crypto::WorkMeter m;
        crypto::CryptoContext ctx(provider, directory, replica_keys[replica], costs, m);
        r.sig = ctx.sign(r.signing_bytes());
        return r;
    }

    NodeId chosen_full() {
        const auto reads = transport.replica_msgs<ReadRequest>();
        return reads.empty() ? 0 : reads.back().second.full_from;
    }

    sim::Simulation sim;
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    std::vector<crypto::KeyPair> replica_keys;
    std::vector<crypto::KeyPair> dc_keys;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> crypto;
    ScriptedTransport transport;
    std::unique_ptr<DataCenter> dc;
    chain::BlockStore train_chain;
};

TEST_F(DcFixture, HappyPathIssuesSyncAndDeletes) {
    dc->start_export();
    ASSERT_EQ(transport.replica_msgs<ReadRequest>().size(), 4u);
    const NodeId full = chosen_full();

    for (NodeId i = 0; i < 4; ++i) {
        dc->on_message(ExportMessage{reply_from(i, 8, i == full)});
    }

    // Blocks verified and stored.
    EXPECT_EQ(dc->store().head_height(), 8u);
    EXPECT_TRUE(dc->store().validate(0, 8));

    // Sync to the peer DC and a delete to each replica.
    EXPECT_EQ(transport.to_dcs.size(), 1u);
    const auto deletes = transport.replica_msgs<DeleteCmd>();
    ASSERT_EQ(deletes.size(), 4u);
    EXPECT_EQ(deletes[0].second.height, 8u);
    EXPECT_EQ(deletes[0].second.block_hash, train_chain.header(8)->hash());

    // Acks complete the round (n - f = 3 required).
    for (NodeId i = 0; i < 3; ++i) {
        DeleteAck ack;
        ack.replica = i;
        ack.height = 8;
        ack.executed = true;
        crypto::WorkMeter m;
        crypto::CryptoContext ctx(provider, directory, replica_keys[i], costs, m);
        ack.sig = ctx.sign(ack.signing_bytes());
        dc->on_message(ExportMessage{ack});
    }
    ASSERT_EQ(dc->history().size(), 1u);
    EXPECT_TRUE(dc->history().back().success);
    EXPECT_EQ(dc->history().back().blocks, 8u);
    EXPECT_GT(dc->history().back().verify_cost, Duration::zero());
}

TEST_F(DcFixture, WaitsForQuorumAndChosenReplica) {
    dc->start_export();
    const NodeId full = chosen_full();
    const NodeId not_full = (full + 1) % 4;
    // Two replies, neither decisive (no blocks yet).
    dc->on_message(ExportMessage{reply_from(not_full, 8, false)});
    dc->on_message(ExportMessage{reply_from((full + 2) % 4, 8, false)});
    EXPECT_TRUE(transport.replica_msgs<DeleteCmd>().empty());
    EXPECT_TRUE(dc->exporting());

    // The chosen replica's blocks arrive: the round proceeds.
    dc->on_message(ExportMessage{reply_from(full, 8, true)});
    EXPECT_FALSE(transport.replica_msgs<DeleteCmd>().empty());
}

TEST_F(DcFixture, PicksLatestCheckpointAmongReplies) {
    dc->start_export();
    const NodeId full = chosen_full();
    // Two laggards at height 6, the chosen replica at 8.
    dc->on_message(ExportMessage{reply_from((full + 1) % 4, 6, false)});
    dc->on_message(ExportMessage{reply_from((full + 2) % 4, 6, false)});
    dc->on_message(ExportMessage{reply_from(full, 8, true)});
    const auto deletes = transport.replica_msgs<DeleteCmd>();
    ASSERT_FALSE(deletes.empty());
    EXPECT_EQ(deletes[0].second.height, 8u);  // newest checkpoint wins
}

TEST_F(DcFixture, InvalidProofIgnored) {
    dc->start_export();
    ReadReply bad = reply_from(1, 8, false);
    bad.proof.messages.pop_back();  // below quorum
    // Re-sign so the outer signature matches the altered body.
    crypto::WorkMeter m;
    crypto::CryptoContext ctx(provider, directory, replica_keys[1], costs, m);
    bad.sig = ctx.sign(bad.signing_bytes());
    dc->on_message(ExportMessage{bad});
    EXPECT_GE(dc->stats().invalid_messages, 1u);
}

TEST_F(DcFixture, TimeoutRetriesWithDifferentFullReplica) {
    dc->start_export();
    const NodeId first = chosen_full();
    // Nobody answers. The timeout must restart with another chosen one
    // (after the retry backoff: timeout at 5 s + 2 s backoff = 7 s).
    sim.run_until(seconds(8));
    EXPECT_GE(dc->stats().retries, 1u);
    const auto reads = transport.replica_msgs<ReadRequest>();
    ASSERT_GE(reads.size(), 8u);  // two broadcast rounds
    EXPECT_NE(reads.back().second.full_from, first);
}

TEST_F(DcFixture, SecondRoundFetchOnMissingBlocks) {
    dc->start_export();
    const NodeId full = chosen_full();
    // The chosen replica only has blocks up to 5 but the proof covers 8.
    ReadReply partial = reply_from(full, 8, false);
    partial.blocks = train_chain.range(1, 5);
    crypto::WorkMeter m;
    crypto::CryptoContext ctx(provider, directory, replica_keys[full], costs, m);
    partial.sig = ctx.sign(partial.signing_bytes());

    dc->on_message(ExportMessage{partial});
    dc->on_message(ExportMessage{reply_from((full + 1) % 4, 8, false)});
    dc->on_message(ExportMessage{reply_from((full + 2) % 4, 8, false)});

    // A BlockFetch for 6..8 goes out to some other replica.
    const auto fetches = transport.replica_msgs<BlockFetch>();
    ASSERT_EQ(fetches.size(), 1u);
    EXPECT_EQ(fetches[0].second.from, 6u);
    EXPECT_EQ(fetches[0].second.to, 8u);
    EXPECT_NE(fetches[0].first, full);

    // Answer it; the export completes.
    BlockFetchReply fill;
    fill.replica = fetches[0].first;
    fill.blocks = train_chain.range(6, 8);
    crypto::WorkMeter m2;
    crypto::CryptoContext ctx2(provider, directory, replica_keys[fetches[0].first], costs, m2);
    fill.sig = ctx2.sign(fill.signing_bytes());
    dc->on_message(ExportMessage{fill});

    EXPECT_EQ(dc->store().head_height(), 8u);
    EXPECT_FALSE(transport.replica_msgs<DeleteCmd>().empty());
}

TEST_F(DcFixture, CorruptBlocksFromChosenReplicaCauseRetry) {
    dc->start_export();
    const NodeId full = chosen_full();
    ReadReply lying = reply_from(full, 8, true);
    lying.blocks[3].requests[0].payload[0] ^= 1;  // breaks the payload root
    crypto::WorkMeter m;
    crypto::CryptoContext ctx(provider, directory, replica_keys[full], costs, m);
    lying.sig = ctx.sign(lying.signing_bytes());

    dc->on_message(ExportMessage{lying});
    dc->on_message(ExportMessage{reply_from((full + 1) % 4, 8, false)});
    dc->on_message(ExportMessage{reply_from((full + 2) % 4, 8, false)});

    // The export restarts excluding the liar, once the backoff elapses.
    EXPECT_GE(dc->stats().retries, 1u);
    sim.run_until(seconds(3));
    EXPECT_NE(chosen_full(), full);
}

TEST_F(DcFixture, UnderQuorumProofReplyRejected) {
    dc->start_export();
    const NodeId full = chosen_full();
    // 2f+1 checkpoint copies, all from one signer: the distinct-signer
    // quorum must reject the proof and the read never completes.
    auto degenerate = [&](NodeId replica) {
        ReadReply r;
        r.replica = replica;
        r.proof = proof_at(8);
        const pbft::Checkpoint only = r.proof.messages[0];
        r.proof.messages = {only, only, only};
        if (replica == full) r.blocks = train_chain.range(1, 8);
        crypto::WorkMeter m;
        crypto::CryptoContext ctx(provider, directory, replica_keys[replica], costs, m);
        r.sig = ctx.sign(r.signing_bytes());
        return r;
    };
    for (NodeId i = 0; i < 4; ++i) dc->on_message(ExportMessage{degenerate(i)});

    EXPECT_GE(dc->stats().invalid_messages, 4u);
    EXPECT_EQ(dc->store().head_height(), 0u);
    EXPECT_TRUE(transport.replica_msgs<DeleteCmd>().empty());
}

TEST_F(DcFixture, ForgedBlockRangeRejectedBeforeStore) {
    // Forged-but-hash-linked blocks under a genuine proof only fail the
    // final checkpoint-digest comparison — which must run before any
    // block reaches the permanent store (stage-then-adopt).
    chain::BlockStore forged;
    for (int i = 0; i < 8; ++i) {
        const Height h = forged.head_height() + 1;
        std::vector<chain::LoggedRequest> reqs(1);
        reqs[0].payload = to_bytes("forged" + std::to_string(h));
        forged.append(chain::Block::build(h, forged.head_hash(), static_cast<std::int64_t>(h),
                                          std::move(reqs)));
    }

    dc->start_export();
    const NodeId full = chosen_full();
    for (NodeId i = 0; i < 4; ++i) {
        ReadReply r = reply_from(i, 8, /*with_blocks=*/false);
        if (i == full) {
            r.blocks = forged.range(1, 8);
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, replica_keys[i], costs, m);
            r.sig = ctx.sign(r.signing_bytes());
        }
        dc->on_message(ExportMessage{r});
    }

    EXPECT_GE(dc->stats().blocks_rejected, 8u);
    EXPECT_EQ(dc->store().head_height(), 0u);
    EXPECT_TRUE(transport.replica_msgs<DeleteCmd>().empty());
    // The round retries against a different full replica.
    EXPECT_GE(dc->stats().retries, 1u);
    sim.run_until(seconds(3));
    EXPECT_NE(chosen_full(), full);
}

TEST_F(DcFixture, ForgedSyncRangeRejectedBeforeStore) {
    // A genuine sync brings us to height 4 (and issues its deletes).
    DcSync genuine;
    genuine.from = 1;
    genuine.proof = proof_at(4);
    genuine.blocks = train_chain.range(1, 4);
    crypto::WorkMeter m;
    crypto::CryptoContext peer_dc(provider, directory, dc_keys[1], costs, m);
    genuine.sig = peer_dc.sign(genuine.signing_bytes());
    dc->on_message(ExportMessage{genuine});
    ASSERT_EQ(dc->store().head_height(), 4u);
    transport.to_replicas.clear();

    // The peer DC then serves blocks 5..8 that hash-link from our head
    // but are not the certified chain: only the proof digest catches them.
    chain::BlockStore forged;
    for (Height h = 1; h <= 4; ++h) forged.append(*train_chain.get(h));
    for (Height h = 5; h <= 8; ++h) {
        std::vector<chain::LoggedRequest> reqs(1);
        reqs[0].payload = to_bytes("forged" + std::to_string(h));
        forged.append(chain::Block::build(h, forged.head_hash(), static_cast<std::int64_t>(h),
                                          std::move(reqs)));
    }
    DcSync sync;
    sync.from = 1;
    sync.proof = proof_at(8);
    sync.blocks = forged.range(5, 8);
    sync.sig = peer_dc.sign(sync.signing_bytes());
    const std::uint64_t invalid_before = dc->stats().invalid_messages;
    dc->on_message(ExportMessage{sync});

    EXPECT_EQ(dc->stats().blocks_rejected, 4u);
    EXPECT_EQ(dc->stats().invalid_messages, invalid_before + 1);
    EXPECT_EQ(dc->store().head_height(), 4u);
    EXPECT_EQ(dc->store().head_hash(), train_chain.header(4)->hash());
    EXPECT_TRUE(transport.replica_msgs<DeleteCmd>().empty());
}

}  // namespace
}  // namespace zc::exporter
