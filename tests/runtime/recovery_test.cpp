// Crash-recovery integration: a node crashed mid-run and restarted must
// reload its durable chain, rejoin consensus in the current view, refill
// the gap via state transfer, and end with the same chain as the nodes
// that never went down. Exports must survive an LTE outage via retries,
// and the whole chaos surface must stay deterministic per seed.
#include <gtest/gtest.h>

#include <filesystem>

#include "health/flight_recorder.hpp"
#include "health/monitor.hpp"
#include "health/timeseries.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
protected:
    void SetUp() override {
        store_root_ = fs::temp_directory_path() /
                      ("zc_recovery_test_" + std::to_string(::getpid()));
        fs::remove_all(store_root_);
    }
    void TearDown() override { fs::remove_all(store_root_); }
    fs::path store_root_;
};

ScenarioConfig chaos_config() {
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = 11;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(20);
    return cfg;
}

TEST_F(RecoveryTest, CrashedNodeRejoinsAndConvergesViaStateTransfer) {
    ScenarioConfig cfg = chaos_config();
    cfg.store_root = store_root_;
    // Crash node 2 at 6 s, restart it 4 s later: it must reload its
    // persisted chain and catch up through the checkpoint fetch path.
    cfg.crash_schedule = {{seconds(6), 2, seconds(4)}};

    health::HealthMonitor monitor;
    cfg.health_monitor = &monitor;

    Scenario s(cfg);
    s.run();

    Node& victim = s.node(2);
    Node& witness = s.node(0);
    EXPECT_TRUE(victim.alive());
    EXPECT_EQ(victim.restarts(), 1u);
    EXPECT_GT(victim.telegrams_missed(), 0u);  // bus kept talking while down

    // The gap between the durable head and the cluster was refilled by at
    // least one state-transfer fetch.
    EXPECT_GE(s.state_transfer_fetches(), 1u);
    EXPECT_GE(s.state_transfer_blocks(), 1u);

    // Chains converged: the victim's whole chain must be a valid prefix
    // of (or equal to) the witness's — identical headers hash-link both.
    const Height head2 = victim.store().head_height();
    const Height head0 = witness.store().head_height();
    ASSERT_GT(head2, 0u);
    EXPECT_TRUE(victim.store().validate(victim.store().base_height(), head2));
    const Height common = std::min(head2, head0);
    ASSERT_NE(witness.store().header(common), nullptr);
    ASSERT_NE(victim.store().header(common), nullptr);
    EXPECT_EQ(victim.store().header(common)->hash(), witness.store().header(common)->hash());
    // And it genuinely caught up, not just stayed consistent while stale.
    EXPECT_LE(head0 - common, 2u);

    // The watchdog flagged the outage and retired the alarm on rejoin.
    bool down_cleared = false;
    for (const auto& a : monitor.alarms()) {
        if (a.kind == health::AlarmKind::kNodeDown && a.node == 2 && a.cleared) {
            down_cleared = true;
        }
    }
    EXPECT_TRUE(down_cleared) << monitor.json();
    EXPECT_FALSE(monitor.any_active()) << monitor.json();

    // The durable store reloads cleanly after the run (no torn tail).
    chain::RecoveryReport report;
    chain::BlockStore reloaded =
        chain::BlockStore::load(store_root_ / "node-2", nullptr, &report);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(reloaded.head_height(), head2);
}

TEST_F(RecoveryTest, FailStopCrashKeepsNodeDownAlarmActive) {
    ScenarioConfig cfg = chaos_config();
    cfg.duration = seconds(10);
    cfg.crash_schedule = {{seconds(4), 3}};  // no restart_after: stays down

    health::HealthMonitor monitor;
    cfg.health_monitor = &monitor;
    Scenario s(cfg);
    s.run();

    EXPECT_FALSE(s.node(3).alive());
    bool down_active = false;
    for (const auto& a : monitor.alarms()) {
        if (a.kind == health::AlarmKind::kNodeDown && a.node == 3 && !a.cleared) {
            down_active = true;
        }
    }
    EXPECT_TRUE(down_active) << monitor.json();
    EXPECT_TRUE(monitor.any_active());
}

TEST_F(RecoveryTest, ExportCompletesAcrossLteOutageWithRetries) {
    ScenarioConfig cfg = chaos_config();
    cfg.duration = seconds(30);
    cfg.dc_count = 1;
    cfg.export_timeout = seconds(5);
    // The uplink dies just before the export starts and stays dark for
    // 15 s: every read round inside the outage times out.
    ScenarioConfig::LinkFlap flap;
    flap.at = seconds(10);
    flap.duration = seconds(15);
    cfg.link_flaps = {flap};

    Scenario s(cfg);
    s.sim().schedule_at(seconds(12), [&s] { s.data_center(0).start_export(); });
    s.run();
    s.run_for(seconds(60));  // let the post-outage rounds finish

    const auto& stats = s.data_center(0).stats();
    EXPECT_EQ(stats.exports_started, 1u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(stats.exports_failed, 0u);
    EXPECT_EQ(stats.exports_completed, 1u) << "retries=" << stats.retries;
    EXPECT_GT(s.data_center(0).store().head_height(), 0u);
}

TEST_F(RecoveryTest, SameSeedChaosRunsAreByteIdentical) {
    const auto run = [this] {
        ScenarioConfig cfg = chaos_config();
        cfg.duration = seconds(14);
        cfg.crash_schedule = {{seconds(4), 1, seconds(3)}};
        ScenarioConfig::LinkFlap flap;
        flap.at = seconds(8);
        flap.duration = seconds(2);
        flap.link = ScenarioConfig::LinkFlap::Link::kNode;
        flap.node = 3;
        cfg.link_flaps = {flap};

        health::FlightRecorder recorder;
        health::HealthMonitor monitor;
        monitor.set_flight_recorder(&recorder);
        health::TimeSeries timeseries;
        cfg.trace_sink = &recorder;
        cfg.health_monitor = &monitor;
        cfg.health_timeseries = &timeseries;
        Scenario s(cfg);
        recorder.set_clock(s.sim().now_handle());
        s.run();
        return monitor.json() + "\n" + recorder.json() + "\n" + timeseries.csv();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace zc::runtime
