// Unit tests of the safety auditor against hand-built ground truth:
// forks, broken links, bad origin signatures, lost inputs, and export
// proof-coverage checks, plus the equivalence of incremental passes with
// a fresh auditor's full pass.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <tuple>

#include "crypto/sha256.hpp"
#include "faults/auditor.hpp"

namespace zc::faults {
namespace {

struct NullTransport final : zugchain::LayerTransport {
    void broadcast(const pbft::Request&) override {}
    void forward(NodeId, const pbft::Request&) override {}
};

struct NullSink final : zugchain::LogSink {
    void log(const pbft::Request&, const crypto::Digest&, NodeId, SeqNo) override {}
};

struct AuditorFixture : ::testing::Test {
    AuditorFixture() : sim(3) {
        Rng keyrng(7);
        for (std::uint32_t i = 0; i < 4; ++i) {
            keys.push_back(provider.generate(keyrng));
            directory.register_key(i, keys.back().pub);
        }
        verifier_ctx = std::make_unique<crypto::CryptoContext>(provider, directory, keys[0],
                                                               costs, meter);
        configure(auditor);
    }

    /// Appends one block whose single request is validly signed by its
    /// origin (or garbage-signed with valid_sig = false).
    void append_block(chain::BlockStore& store, const std::string& text, NodeId origin,
                      bool valid_sig = true) {
        store.append(make_block(store.head_height() + 1, store.head_hash(), text, origin,
                                valid_sig));
    }

    chain::Block make_block(Height h, const crypto::Digest& parent, const std::string& text,
                            NodeId origin, bool valid_sig = true) {
        pbft::Request probe;
        probe.payload = to_bytes(text);
        probe.origin = origin;
        probe.origin_seq = h;
        chain::LoggedRequest lr;
        lr.payload = probe.payload;
        lr.origin = origin;
        lr.seq = h * 10;
        lr.origin_seq = h;
        if (valid_sig) {
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, keys[origin], costs, m);
            lr.sig = ctx.sign(probe.signing_bytes());
        }
        std::vector<chain::LoggedRequest> reqs{lr};
        return chain::Block::build(h, parent, static_cast<std::int64_t>(h), std::move(reqs));
    }

    void configure(SafetyAuditor& a) {
        a.configure(1, 10, [this](std::uint32_t signer, BytesView msg,
                                  const crypto::Signature& sig) {
            return verifier_ctx->verify(signer, msg, sig);
        });
    }

    pbft::CheckpointProof proof_for(const chain::BlockStore& store, Height height,
                                    std::uint32_t distinct_signers = 3) {
        pbft::CheckpointProof p;
        p.seq = height * 10;
        p.state = store.header(height)->hash();
        for (std::uint32_t i = 0; i < 3; ++i) {
            const NodeId signer = i < distinct_signers ? i : 0;
            pbft::Checkpoint c;
            c.seq = p.seq;
            c.state = p.state;
            c.replica = signer;
            crypto::WorkMeter m;
            crypto::CryptoContext ctx(provider, directory, keys[signer], costs, m);
            c.sig = ctx.sign(c.signing_bytes());
            p.messages.push_back(c);
        }
        return p;
    }

    static ReplicaView view_of(NodeId id, const chain::BlockStore& store,
                               const zugchain::CommunicationLayer* layer = nullptr) {
        ReplicaView v;
        v.id = id;
        v.store = &store;
        v.layer = layer;
        return v;
    }

    sim::Simulation sim;
    crypto::FastProvider provider;
    crypto::KeyDirectory directory;
    std::vector<crypto::KeyPair> keys;
    metrics::CostModel costs;
    crypto::WorkMeter meter;
    std::unique_ptr<crypto::CryptoContext> verifier_ctx;
    SafetyAuditor auditor;
};

TEST_F(AuditorFixture, CleanOnAgreeingReplicas) {
    chain::BlockStore a, b;
    for (int i = 0; i < 3; ++i) {
        append_block(a, "blk" + std::to_string(i), 1);
        append_block(b, "blk" + std::to_string(i), 1);
    }
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    EXPECT_TRUE(auditor.report().clean());
    EXPECT_EQ(auditor.report().audits, 1u);
    EXPECT_GT(auditor.report().checks, 0u);
}

TEST_F(AuditorFixture, ForkDetectedAndDeduplicated) {
    chain::BlockStore a, b;
    append_block(a, "same", 1);
    append_block(b, "same", 1);
    append_block(a, "ours", 1);
    append_block(b, "theirs", 1);
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    auditor.audit({view_of(0, a), view_of(1, b)}, {});  // re-audit: no duplicate entry
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kChainFork);
    EXPECT_EQ(auditor.report().violations[0].height, 2u);
}

TEST_F(AuditorFixture, CompromisedReplicaExemptFromChecks) {
    chain::BlockStore a, b;
    append_block(a, "same", 1);
    append_block(b, "different", 1);
    auditor.set_compromised(1);
    EXPECT_TRUE(auditor.is_compromised(1));
    ReplicaView bad = view_of(1, b);
    bad.compromised = true;
    auditor.audit({view_of(0, a), bad}, {});
    EXPECT_TRUE(auditor.report().clean());
}

TEST_F(AuditorFixture, BadOriginSignatureFlagged) {
    chain::BlockStore a;
    append_block(a, "good", 1);
    append_block(a, "bad", 2, /*valid_sig=*/false);
    auditor.audit({view_of(0, a)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kBadOriginSignature);
    EXPECT_EQ(auditor.report().violations[0].height, 2u);
}

TEST_F(AuditorFixture, LostInputFlaggedAndCrashForgives) {
    zugchain::LayerConfig lcfg;
    NullTransport transport;
    NullSink sink;
    zugchain::CommunicationLayer layer(lcfg, sim, *verifier_ctx, transport, sink);

    chain::BlockStore a;
    append_block(a, "logged-one", 1);
    const Bytes lost = to_bytes("never-logged");
    auditor.note_received(0, crypto::sha256(lost));

    auditor.audit({view_of(0, a, &layer)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kLostInput);

    // After a crash the volatile inputs are legitimately lost: the same
    // digest must not re-fire on a fresh auditor.
    SafetyAuditor second;
    configure(second);
    second.note_received(0, crypto::sha256(lost));
    second.note_crashed(0);
    second.audit({view_of(0, a, &layer)}, {});
    EXPECT_TRUE(second.report().clean());
}

TEST_F(AuditorFixture, LoggedInputIsNotLost) {
    zugchain::LayerConfig lcfg;
    NullTransport transport;
    NullSink sink;
    zugchain::CommunicationLayer layer(lcfg, sim, *verifier_ctx, transport, sink);

    chain::BlockStore a;
    append_block(a, "payload", 1);
    const crypto::Digest d = crypto::sha256(to_bytes("payload"));
    auditor.note_received(0, d);
    auditor.note_logged(0, d);
    // Logged first, then received: a late bus duplicate of a logged payload.
    const crypto::Digest late = crypto::sha256(to_bytes("late-duplicate"));
    auditor.note_logged(0, late);
    auditor.note_received(0, late);
    // Logged inputs leave the candidate set, so a pass examines none of
    // them: one store check and one origin signature, nothing per input.
    for (int i = 0; i < 100; ++i) {
        const crypto::Digest di = crypto::sha256(to_bytes("bulk" + std::to_string(i)));
        auditor.note_received(0, di);
        auditor.note_logged(0, di);
    }
    auditor.audit({view_of(0, a, &layer)}, {});
    EXPECT_TRUE(auditor.report().clean());
    EXPECT_EQ(auditor.report().checks, 2u);
}

TEST_F(AuditorFixture, RebaseOntoCorruptBlockAfterCleanPassFlagged) {
    chain::BlockStore a;
    for (int i = 0; i < 3; ++i) append_block(a, "blk" + std::to_string(i), 1);
    auditor.audit({view_of(0, a)}, {});
    ASSERT_TRUE(auditor.report().clean());

    // rebase() does not validate payloads: a base block whose body does not
    // match its payload root enters the store, above the clean cursor.
    chain::Block bad = make_block(5, crypto::sha256(to_bytes("peer-parent")), "orig", 1);
    bad.requests[0].payload = to_bytes("tampered");
    a.rebase(std::move(bad), {});
    auditor.audit({view_of(0, a)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kBrokenHashLink);
    EXPECT_EQ(auditor.report().violations[0].height, 5u);

    // A failed validation leaves no cursor: a clean block on top does not
    // hide the corrupt base from the next pass.
    append_block(a, "on-top", 1);
    auditor.audit({view_of(0, a)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 2u);
    EXPECT_EQ(auditor.report().violations[1].kind, ViolationKind::kBrokenHashLink);
    EXPECT_EQ(auditor.report().violations[1].height, 6u);
}

TEST_F(AuditorFixture, StoreCursorDoesNotOutliveItsStore) {
    // A crashed replica reloads its store: the reloaded chain may carry the
    // same headers over a body that no longer matches its payload root.
    chain::BlockStore a;
    for (int i = 0; i < 3; ++i) append_block(a, "blk" + std::to_string(i), 1);
    auditor.audit({view_of(0, a)}, {});
    ASSERT_TRUE(auditor.report().clean());
    auditor.note_crashed(0);
    chain::Block corrupt = *a.get(1);
    corrupt.requests[0].payload = to_bytes("bit-rot");
    chain::BlockStore reloaded;
    reloaded.rebase(std::move(corrupt), {});
    reloaded.append(*a.get(2));
    reloaded.append(*a.get(3));
    ASSERT_EQ(reloaded.head_hash(), a.head_hash());
    auditor.audit({view_of(0, reloaded)}, {});
    ASSERT_EQ(auditor.report().violations.size(), 1u);
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kBrokenHashLink);
    EXPECT_EQ(auditor.report().violations[0].where, 0u);

    // A store whose header at the cursor height differs is not the store
    // the cursor was taken on, even when nothing lies above the cursor.
    DataCenterView dc;
    dc.id = 0;
    dc.store = &a;
    auditor.audit({}, {dc});
    chain::BlockStore other;
    chain::Block bad = make_block(2, crypto::sha256(to_bytes("elsewhere")), "other", 1);
    bad.requests[0].payload = to_bytes("tampered");
    other.rebase(std::move(bad), {});
    append_block(other, "other-3", 1);
    ASSERT_EQ(other.head_height(), a.head_height());
    dc.store = &other;
    auditor.audit({}, {dc});
    ASSERT_EQ(auditor.report().violations.size(), 2u);
    EXPECT_EQ(auditor.report().violations[1].kind, ViolationKind::kBrokenHashLink);
    EXPECT_EQ(auditor.report().violations[1].where, 100u);
}

TEST_F(AuditorFixture, IncrementalPassesMatchAFreshAuditorsFullPass) {
    // A seeded script of store mutations, crashes and input taps. After
    // every step the incremental auditor's new violations must be exactly
    // what a fresh auditor (same tap history, one full pass) finds and the
    // incremental one had not reported yet.
    zugchain::LayerConfig lcfg;
    NullTransport transport;
    NullSink sink;
    zugchain::CommunicationLayer layer(lcfg, sim, *verifier_ctx, transport, sink);

    Rng rng(2024);
    chain::BlockStore stores[2];
    // Taps reach the incremental auditor as they happen and are replayed
    // into each fresh one.
    std::vector<std::function<void(SafetyAuditor&)>> history;
    const auto tap = [&](std::function<void(SafetyAuditor&)> t) {
        t(auditor);
        history.push_back(std::move(t));
    };
    pbft::CheckpointProof proof;
    bool have_proof = false;
    int rebases = 0;
    int crashes = 0;

    using Key = std::tuple<int, NodeId, Height>;
    const auto key = [](const Violation& v) {
        return Key{static_cast<int>(v.kind), v.where, v.height};
    };
    const auto pick = [&rng](Height lo, Height hi) {
        return lo + static_cast<Height>(rng.next_below(hi - lo + 1));
    };

    for (int step = 0; step < 400; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const NodeId node = static_cast<NodeId>(rng.next_below(2));
        chain::BlockStore& st = stores[node];
        const std::string text = "s" + std::to_string(step);
        switch (rng.next_below(10)) {
            case 0:
            case 1:
            case 2:
                append_block(st, text, static_cast<NodeId>(1 + rng.next_below(3)),
                             /*valid_sig=*/rng.chance(0.9));
                break;
            case 3:
                st.prune_to(pick(st.base_height(), st.head_height()), {});
                break;
            case 4:
                st.trim_bodies_to(pick(st.base_height(), st.head_height()));
                break;
            case 5: {
                chain::Block base = make_block(st.head_height() + 1 + rng.next_below(3),
                                               crypto::sha256(to_bytes(text)), text, 1);
                if (rng.chance(0.5)) base.requests[0].payload = to_bytes("tampered");
                st.rebase(std::move(base), {});
                rebases += 1;
                break;
            }
            case 6:
                tap([node](SafetyAuditor& a) { a.note_crashed(node); });
                if (rng.chance(0.3)) st = chain::BlockStore();  // restart from genesis
                crashes += 1;
                break;
            case 7:
            case 8: {
                const crypto::Digest d =
                    crypto::sha256(to_bytes("in" + std::to_string(rng.next_below(12))));
                if (rng.chance(0.5)) {
                    tap([node, d](SafetyAuditor& a) { a.note_received(node, d); });
                } else {
                    tap([node, d](SafetyAuditor& a) { a.note_logged(node, d); });
                }
                break;
            }
            default:
                proof = proof_for(stores[1], pick(stores[1].base_height(), stores[1].head_height()),
                                  rng.chance(0.7) ? 3 : 1);
                have_proof = true;
                break;
        }

        std::vector<ReplicaView> replicas{view_of(0, stores[0], &layer),
                                          view_of(1, stores[1], &layer)};
        DataCenterView dc;
        dc.id = 0;
        dc.store = &stores[1];
        dc.proof = have_proof ? &proof : nullptr;
        const std::size_t before = auditor.report().violations.size();
        auditor.audit(replicas, {dc});

        SafetyAuditor fresh;
        configure(fresh);
        for (const auto& t : history) t(fresh);
        fresh.audit(replicas, {dc});

        std::set<Key> fresh_keys;
        for (const Violation& v : fresh.report().violations) fresh_keys.insert(key(v));
        std::set<Key> reported;
        for (const Violation& v : auditor.report().violations) reported.insert(key(v));
        for (std::size_t i = before; i < auditor.report().violations.size(); ++i) {
            EXPECT_TRUE(fresh_keys.contains(key(auditor.report().violations[i])))
                << violation_name(auditor.report().violations[i].kind);
        }
        for (const Key& k : fresh_keys) {
            EXPECT_TRUE(reported.contains(k))
                << violation_name(static_cast<ViolationKind>(std::get<0>(k))) << " at "
                << std::get<1>(k) << " height " << std::get<2>(k);
        }
    }

    // The script must have reached every path it is meant to cover.
    EXPECT_GT(rebases, 0);
    EXPECT_GT(crashes, 0);
    std::set<ViolationKind> kinds;
    for (const Violation& v : auditor.report().violations) kinds.insert(v.kind);
    for (ViolationKind k : {ViolationKind::kBrokenHashLink, ViolationKind::kBadOriginSignature,
                            ViolationKind::kLostInput, ViolationKind::kExportedBeyondProof,
                            ViolationKind::kExportProofInvalid}) {
        EXPECT_TRUE(kinds.contains(k)) << violation_name(k);
    }
}

TEST_F(AuditorFixture, DcBeyondProofCoverageFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 5; ++i) {
        append_block(replica, "blk" + std::to_string(i), 1);
        append_block(dc, "blk" + std::to_string(i), 1);
    }
    const pbft::CheckpointProof proof = proof_for(replica, 3);  // covers height 3 only
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kExportedBeyondProof);
    EXPECT_EQ(auditor.report().violations[0].where, 100u);
}

TEST_F(AuditorFixture, DcUnderQuorumProofFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 3; ++i) {
        append_block(replica, "blk" + std::to_string(i), 1);
        append_block(dc, "blk" + std::to_string(i), 1);
    }
    // 2f+1 checkpoint copies but a single distinct signer.
    const pbft::CheckpointProof proof = proof_for(replica, 3, /*distinct_signers=*/1);
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    EXPECT_EQ(auditor.report().violations[0].kind, ViolationKind::kExportProofInvalid);
}

TEST_F(AuditorFixture, DcDivergingFromReplicasFlagged) {
    chain::BlockStore replica, dc;
    for (int i = 0; i < 3; ++i) append_block(replica, "blk" + std::to_string(i), 1);
    for (int i = 0; i < 3; ++i) append_block(dc, "forged" + std::to_string(i), 1);
    const pbft::CheckpointProof proof = proof_for(dc, 3);  // proof matches the DC's own chain
    DataCenterView v;
    v.id = 0;
    v.store = &dc;
    v.proof = &proof;
    auditor.audit({view_of(0, replica)}, {v});
    ASSERT_FALSE(auditor.report().clean());
    bool mismatch_found = false;
    for (const Violation& viol : auditor.report().violations) {
        mismatch_found |= viol.kind == ViolationKind::kExportMismatch;
    }
    EXPECT_TRUE(mismatch_found);
}

TEST_F(AuditorFixture, ReportJsonIsDeterministic) {
    chain::BlockStore a, b;
    append_block(a, "x", 1);
    append_block(b, "y", 1);
    auditor.audit({view_of(0, a), view_of(1, b)}, {});
    const std::string j1 = auditor.report().json();
    const std::string j2 = auditor.report().json();
    EXPECT_EQ(j1, j2);
    EXPECT_NE(j1.find("\"violations\":["), std::string::npos);
    EXPECT_NE(j1.find("chain_fork"), std::string::npos);
}

}  // namespace
}  // namespace zc::faults
