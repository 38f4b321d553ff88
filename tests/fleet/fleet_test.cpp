#include <gtest/gtest.h>

#include "faults/profiles.hpp"
#include "fleet/fleet.hpp"

namespace zc::fleet {
namespace {

FleetConfig base_config(std::uint32_t trains) {
    FleetConfig cfg;
    cfg.trains = trains;
    cfg.seed = 7;
    cfg.dc_count = 2;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(12);
    cfg.export_period = seconds(4);
    cfg.train.payload_size = 256;
    cfg.train.default_tap_faults = {};  // clean bus for crisp assertions
    return cfg;
}

/// All live nodes of one shard must hold identical chains up to the
/// shortest live head (per-shard safety, fleet edition).
void expect_shard_consistent(runtime::TrainShard& shard) {
    Height min_head = ~0ull;
    for (std::size_t i = 0; i < shard.node_count(); ++i) {
        if (!shard.node(i).alive()) continue;
        min_head = std::min(min_head, shard.node(i).store().head_height());
    }
    ASSERT_NE(min_head, ~0ull);
    runtime::Node* reference = nullptr;
    for (std::size_t i = 0; i < shard.node_count(); ++i) {
        runtime::Node& node = shard.node(i);
        if (!node.alive()) continue;
        if (reference == nullptr) {
            reference = &node;
            continue;
        }
        for (Height h = std::max(node.store().base_height(),
                                 reference->store().base_height());
             h <= min_head; ++h) {
            const auto* a = reference->store().header(h);
            const auto* b = node.store().header(h);
            if (a == nullptr || b == nullptr) continue;
            EXPECT_EQ(a->hash(), b->hash()) << "shard divergence at height " << h;
        }
    }
}

TEST(Fleet, SmallFleetRecordsAndExportsOnEveryShard) {
    Fleet fleet(base_config(3));
    fleet.run();
    const FleetReport report = fleet.report();
    ASSERT_EQ(report.per_train.size(), 3u);
    for (const TrainReport& t : report.per_train) {
        EXPECT_EQ(t.nodes_alive, 4u) << "train " << t.train;
        EXPECT_GT(t.head, 10u) << "train " << t.train << " recorded too little";
        EXPECT_GT(t.exports_completed, 0u) << "train " << t.train << " never exported";
        EXPECT_GT(t.exported_head, 0u) << "train " << t.train << " not in the index";
    }
    EXPECT_EQ(report.cross_shard_collisions, 0u);
    EXPECT_GT(report.exported_duplicates, 0u) << "DC-to-DC sync should replicate blocks";
    EXPECT_GT(report.logged_sum, 0u);
    for (TrainId t = 0; t < 3; ++t) expect_shard_consistent(fleet.shard(t));
}

TEST(Fleet, ShardsProduceDistinctChains) {
    // Distinct per-shard rng streams: two shards with identical configs
    // must still record different payloads (decorrelated ATP generators).
    Fleet fleet(base_config(2));
    fleet.run();
    const auto& s0 = fleet.shard(0).node(0).store();
    const auto& s1 = fleet.shard(1).node(0).store();
    const Height h = std::min(s0.head_height(), s1.head_height());
    ASSERT_GT(h, 0u);
    EXPECT_NE(s0.header(h)->hash(), s1.header(h)->hash());
}

TEST(Fleet, SameSeedRunsAreByteIdentical) {
    std::string report_a, rollup_a, index_a;
    {
        Fleet fleet(base_config(3));
        fleet.run();
        report_a = fleet.report().json();
        rollup_a = fleet.rollup().csv();
        index_a = fleet.index().json();
    }
    Fleet fleet(base_config(3));
    fleet.run();
    EXPECT_EQ(fleet.report().json(), report_a);
    EXPECT_EQ(fleet.rollup().csv(), rollup_a);
    EXPECT_EQ(fleet.index().json(), index_a);
}

TEST(Fleet, DifferentSeedsDiverge) {
    // Counters can coincide across seeds on a clean bus; block content
    // cannot (different ATP signal streams), so compare chain hashes.
    FleetConfig cfg = base_config(2);
    Fleet a(cfg);
    cfg.seed = 8;
    Fleet b(cfg);
    a.run();
    b.run();
    const auto& sa = a.shard(0).node(0).store();
    const auto& sb = b.shard(0).node(0).store();
    const Height h = std::min(sa.head_height(), sb.head_height());
    ASSERT_GT(h, 0u);
    EXPECT_NE(sa.header(h)->hash(), sb.header(h)->hash());
}

TEST(Fleet, HealthyRunLeavesNoActiveAlarms) {
    Fleet fleet(base_config(3));
    fleet.run();
    const FleetReport report = fleet.report();
    EXPECT_EQ(report.alarms.total_never_cleared, 0u)
        << "healthy fleet must end rollup-clean";
    EXPECT_EQ(report.audit_violations, 0u);
}

TEST(Fleet, TampererShardNeverContaminatesSiblingsOrIndex) {
    FleetConfig cfg = base_config(3);
    cfg.audit = true;
    cfg.byzantine[1][2] = *faults::profile_config("tamperer");
    Fleet fleet(cfg);
    fleet.run();

    // The tamperer's own shard absorbs the attack (f=1), its auditor sees
    // the node as compromised; the sibling shards and the shared archive
    // stay pristine.
    EXPECT_EQ(fleet.index().cross_shard_collisions(), 0u);
    for (TrainId t = 0; t < 3; ++t) {
        expect_shard_consistent(fleet.shard(t));
        const faults::SafetyAuditor* auditor = fleet.auditor(t);
        ASSERT_NE(auditor, nullptr);
        EXPECT_TRUE(auditor->report().clean())
            << "train " << t << ": " << auditor->report().json();
    }

    // Sibling shards' archived chains match their own replicas' chains.
    for (TrainId t = 0; t < 3; ++t) {
        if (t == 1) continue;
        const auto entry = fleet.index().trains().find(t);
        if (entry == fleet.index().trains().end()) continue;
        const chain::BlockStore& replica = fleet.shard(t).node(0).store();
        const Height h = entry->second.head;
        ASSERT_NE(replica.header(h), nullptr);
        EXPECT_EQ(replica.header(h)->hash(), entry->second.head_hash);
    }
}

TEST(Fleet, DcFailoverLosesNoExportedBlocks) {
    FleetConfig cfg = base_config(3);
    cfg.duration = seconds(16);
    // Permanent: DC 0 never returns.
    cfg.faults.dc_outages.push_back({0, seconds(7), Duration::zero()});
    Fleet fleet(cfg);
    fleet.run();

    // Juridical safety across the outage: replicas only prune with a
    // delete quorum of DC signatures, and a DC signs only after adopting
    // the blocks — so every height any replica pruned must live on the
    // surviving DC 1.
    std::uint64_t pruned_total = 0;
    for (TrainId t = 0; t < fleet.train_count(); ++t) {
        Height pruned_floor = ~0ull;
        for (std::size_t i = 0; i < fleet.shard(t).node_count(); ++i) {
            pruned_floor =
                std::min(pruned_floor, fleet.shard(t).node(i).store().base_height());
        }
        const chain::BlockStore& survivor = fleet.data_center(1).core(t).store();
        for (Height h = 1; h < pruned_floor; ++h) {
            ASSERT_NE(survivor.header(h), nullptr)
                << "train " << t << " block " << h << " pruned but not on surviving DC";
            ++pruned_total;
        }
    }
    EXPECT_GT(pruned_total, 0u) << "test needs at least one pre-outage prune to bite";

    // And the fleet kept exporting after the failover: exports completed
    // against DC 1 alone once DC 0 went dark.
    EXPECT_GT(fleet.data_center(1).totals().exports_completed, 0u);
}

TEST(Fleet, TinyIngestQueueDropsButStaysSafe) {
    // One single-core frontend with a one-deep queue, hammered by four
    // shards exporting every 1.5 s: proof verification occupies the core
    // for tens of virtual ms, so concurrent rounds must shed messages.
    FleetConfig cfg = base_config(4);
    cfg.train.payload_size = 1024;
    cfg.export_period = milliseconds(1500);
    cfg.dc_ingest_queue = 1;  // absurdly small shared frontend
    cfg.dc_ingest_cores = 1;
    Fleet fleet(cfg);
    fleet.run();
    const FleetReport report = fleet.report();
    EXPECT_GT(report.ingest_dropped, 0u) << "bounded queue should shed load";
    EXPECT_EQ(report.cross_shard_collisions, 0u);
    for (TrainId t = 0; t < 3; ++t) expect_shard_consistent(fleet.shard(t));
}

TEST(Fleet, DisklessRestartAfterPruneRebasesOntoAnchor) {
    // Without a store_root a restarted node wipes its in-memory chain. By
    // the time it rejoins, its peers have export-pruned the prefix it
    // needs, so classic state transfer cannot serve it — the node must
    // adopt a peer's prune anchor (delete-quorum evidence) and rebase.
    FleetConfig cfg = base_config(2);
    cfg.duration = seconds(16);
    cfg.export_period = seconds(3);
    cfg.audit = true;
    cfg.faults.trains[0].crash_schedule.emplace_back(seconds(9), 1, seconds(2));
    Fleet fleet(cfg);
    fleet.run();

    EXPECT_EQ(fleet.report().audit_violations, 0u);
    expect_shard_consistent(fleet.shard(0));
    const chain::BlockStore& store = fleet.shard(0).node(1).store();
    EXPECT_GT(store.base_height(), 0u) << "rejoiner never adopted a pruned base";
    ASSERT_TRUE(store.anchor().has_value());
    EXPECT_EQ(store.anchor()->base_height, store.base_height());
    EXPECT_GT(fleet.shard(0).state_transfer_fetches(), 0u);
    // And it kept recording with the others afterwards.
    EXPECT_GT(store.head_height(), store.base_height());
}

TEST(Fleet, StaggeredChaosDrillSurvivesWithCleanAudit) {
    FleetConfig cfg = base_config(4);
    cfg.duration = seconds(20);
    cfg.audit = true;
    cfg.faults = staggered_drill(4, 2, cfg.warmup + cfg.duration);
    Fleet fleet(cfg);
    fleet.run();
    const FleetReport report = fleet.report();
    EXPECT_EQ(report.audit_violations, 0u);
    EXPECT_EQ(report.cross_shard_collisions, 0u);
    for (TrainId t = 0; t < 4; ++t) expect_shard_consistent(fleet.shard(t));
    // Crashed nodes restarted and rejoined.
    ASSERT_EQ(report.per_train.size(), 4u);
    for (const TrainReport& t : report.per_train) {
        EXPECT_EQ(t.nodes_alive, 4u) << "train " << t.train << " did not fully rejoin";
    }
}

}  // namespace
}  // namespace zc::fleet
