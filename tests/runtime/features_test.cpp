#include <gtest/gtest.h>

#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

ScenarioConfig quiet_config() {
    ScenarioConfig cfg;
    cfg.warmup = seconds(2);
    cfg.duration = seconds(20);
    cfg.payload_size = 256;
    cfg.default_tap_faults = {};
    return cfg;
}

TEST(EmergencyTrim, AgreementTrimsBodiesOnAllNodes) {
    Scenario s(quiet_config());
    s.run();

    const Height head = s.node(0).store().head_height();
    ASSERT_GT(head, 10u);
    const Height trim_to = head / 2;

    // Any node may propose the agreement; it is ordered like any request.
    s.node(2).request_emergency_trim(trim_to);
    s.run_for(seconds(5));

    for (std::size_t i = 0; i < 4; ++i) {
        auto& store = s.node(i).store();
        EXPECT_GE(s.node(i).chain_app().trims_executed(), 1u) << "node " << i;
        // Bodies below the mark are gone, headers remain, chain verifies.
        EXPECT_EQ(store.get(trim_to), nullptr) << "node " << i;
        EXPECT_NE(store.header(trim_to), nullptr) << "node " << i;
        EXPECT_NE(store.get(store.head_height()), nullptr);
        EXPECT_TRUE(store.validate(store.base_height(), store.head_height()));
    }

    // The agreement itself is on the blockchain (evidence that the trim
    // was not Byzantine data destruction).
    bool found_agreement = false;
    auto& store = s.node(0).store();
    for (Height h = store.base_height(); h <= store.head_height(); ++h) {
        const chain::Block* b = store.get(h);
        if (b == nullptr) continue;
        for (const auto& req : b->requests) {
            found_agreement |= zugchain::ChainApp::parse_trim_request(req.payload).has_value();
        }
    }
    EXPECT_TRUE(found_agreement);
}

TEST(EmergencyTrim, DuplicateProposalsOrderedOnce) {
    Scenario s(quiet_config());
    s.run();
    const Height trim_to = s.node(0).store().head_height() / 2;
    // All nodes propose the same agreement (identical payload): the layer
    // dedups it to a single ordered request.
    for (std::size_t i = 0; i < 4; ++i) s.node(i).request_emergency_trim(trim_to);
    s.run_for(seconds(5));
    EXPECT_EQ(s.node(1).chain_app().trims_executed(), 1u);
    EXPECT_EQ(s.node(1).layer()->stats().duplicates_decided, 0u);
}

TEST(MultiBus, SecondSourceIsLoggedAlongsidePrimary) {
    ScenarioConfig cfg = quiet_config();
    ScenarioConfig::ExtraBus profinet;
    profinet.cycle = milliseconds(128);
    profinet.payload_size = 128;
    cfg.extra_buses.push_back(profinet);

    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();

    // ~22 s * (15.6 + 7.8) records — clearly more than one bus alone.
    const std::uint64_t one_bus_max =
        static_cast<std::uint64_t>(to_seconds(cfg.warmup + cfg.duration) /
                                   to_seconds(cfg.bus_cycle)) + 2;
    EXPECT_GT(r.logged_unique, one_bus_max);

    // No duplicates and identical chains.
    EXPECT_EQ(r.duplicates_decided, 0u);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(s.node(i).store().head_hash(), s.node(0).store().head_hash());
    }
}

TEST(MultiBus, SourcesSurviveIndependentFaults) {
    ScenarioConfig cfg = quiet_config();
    cfg.extra_buses.push_back({milliseconds(96), 96});
    // Primary bus is unreliable for node 1.
    bus::TapFaults lossy;
    lossy.drop = 0.4;
    cfg.tap_faults[1] = lossy;
    Scenario s(cfg);
    s.run();
    EXPECT_GT(s.report().logged_unique, 200u);
    EXPECT_EQ(s.node(1).store().head_hash(), s.node(0).store().head_hash());
}

struct ClusterSizeTest : ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(ClusterSizeTest, NormalOperation) {
    const auto [n, f] = GetParam();
    ScenarioConfig cfg = quiet_config();
    cfg.n = n;
    cfg.f = f;
    Scenario s(cfg);
    s.run();
    const ScenarioReport r = s.report();
    EXPECT_GT(r.logged_unique, 250u);
    EXPECT_EQ(r.duplicates_decided, 0u);
    for (std::uint32_t i = 1; i < n; ++i) {
        EXPECT_EQ(s.node(i).store().head_hash(), s.node(0).store().head_hash()) << "node " << i;
    }
}

TEST_P(ClusterSizeTest, ToleratesFCrashes) {
    const auto [n, f] = GetParam();
    ScenarioConfig cfg = quiet_config();
    cfg.n = n;
    cfg.f = f;
    // Crash f backups mid-run.
    for (std::uint32_t k = 0; k < f; ++k) {
        cfg.crash_schedule.emplace_back(seconds(8), n - 1 - k);
    }
    Scenario s(cfg);
    s.run();
    EXPECT_GT(s.report().logged_unique, 250u);
    EXPECT_EQ(s.node(1).store().head_hash(), s.node(0).store().head_hash());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizeTest,
                         ::testing::Values(std::make_pair(4u, 1u), std::make_pair(7u, 2u),
                                           std::make_pair(10u, 3u)));

TEST(Persistence, NodesRecoverChainsFromDisk) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("zc_scenario_store_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);

    crypto::Digest head_hash;
    Height head_height = 0;
    {
        ScenarioConfig cfg = quiet_config();
        cfg.duration = seconds(15);
        Scenario s(cfg);
        // Persist node 2's chain (simulating its flash storage).
        // Store directories are per node (store_root/node-<id>); here we
        // copy the in-memory chain to disk through a persistent store.
        s.run();
        chain::BlockStore persistent(nullptr, dir);
        auto& src = s.node(2).store();
        for (Height h = 1; h <= src.head_height(); ++h) {
            persistent.append(*src.get(h));
        }
        head_hash = src.head_hash();
        head_height = src.head_height();
    }

    // "Power loss": reload from disk and verify.
    chain::BlockStore restored = chain::BlockStore::load(dir);
    EXPECT_EQ(restored.head_height(), head_height);
    EXPECT_EQ(restored.head_hash(), head_hash);
    EXPECT_TRUE(restored.validate(0, head_height));
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zc::runtime
