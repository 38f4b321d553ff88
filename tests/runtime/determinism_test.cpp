// Same-seed determinism: a second run with the same seed must produce
// byte-identical virtual outputs for a single consist, a fleet, an
// adversarial run (tampered signatures rejected in event-loop order), and
// a soak/journey segment. The second run starts with the process-global
// verify cache warm from the first, so these also prove the cache is
// output-invisible — as are the recheck knob and a disabled cache.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "crypto/context.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/profiles.hpp"
#include "fleet/fleet.hpp"
#include "journey/soak.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

TEST(Determinism, SingleConsistIdenticalOnRerun) {
    auto run_once = [] {
        ScenarioConfig cfg;
        cfg.warmup = seconds(1);
        cfg.duration = seconds(8);
        cfg.payload_size = 256;
        cfg.seed = 4242;
        cfg.default_tap_faults = {};
        Scenario s(cfg);
        s.run();
        const ScenarioReport r = s.report();
        return std::make_tuple(s.node(0).store().head_hash(), r.total_bytes, r.logged_unique,
                               r.blocks, r.duplicates_decided);
    };
    const auto baseline = run_once();
    EXPECT_GT(std::get<2>(baseline), 0u);
    EXPECT_EQ(run_once(), baseline) << "second same-seed run";

    // The recheck knob re-runs the provider on every memo/cache hit and
    // asserts the stored verdict — outputs must still be identical.
    crypto::CryptoContext::set_host_recheck(true);
    EXPECT_EQ(run_once(), baseline) << "recheck on";
    crypto::CryptoContext::set_host_recheck(false);

    // And a disabled host cache (every node re-verifies on its own) must
    // be equally invisible in the virtual outputs.
    crypto::global_verify_cache().set_enabled(false);
    EXPECT_EQ(run_once(), baseline) << "verify cache off";
    crypto::global_verify_cache().set_enabled(true);
}

TEST(Determinism, FleetReportAndRollupIdenticalOnRerun) {
    auto run_once = [] {
        fleet::FleetConfig cfg;
        cfg.trains = 3;
        cfg.seed = 7;
        cfg.dc_count = 2;
        cfg.warmup = seconds(1);
        cfg.duration = seconds(10);
        cfg.export_period = seconds(4);
        cfg.train.payload_size = 256;
        cfg.train.default_tap_faults = {};
        fleet::Fleet f(cfg);
        f.run();
        return f.report().json() + "\n" + f.rollup().csv() + "\n" + f.index().json();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, AdversaryRunIdenticalOnRerun) {
    auto run_once = [] {
        faults::SafetyAuditor auditor;
        ScenarioConfig cfg;
        cfg.warmup = seconds(1);
        cfg.duration = seconds(10);
        cfg.payload_size = 256;
        cfg.seed = 77;
        cfg.default_tap_faults = {};
        cfg.auditor = &auditor;
        cfg.audit_period = seconds(4);
        cfg.byzantine[0] = *faults::profile_config("tamperer");
        cfg.crash_schedule.emplace_back(seconds(5), 2, seconds(3));
        Scenario s(cfg);
        s.run();
        s.run_audit();
        std::vector<Height> heads;
        for (std::size_t i = 0; i < s.node_count(); ++i)
            heads.push_back(s.node(i).store().head_height());
        return std::make_tuple(heads, s.node(0).adversary()->stats().attempts(),
                               s.state_transfer_rejected(), auditor.report().json());
    };
    const auto baseline = run_once();
    // The attack ran: tampered signatures were produced and rejected —
    // and rejected identically on the rerun.
    EXPECT_GT(std::get<1>(baseline), 0u);
    EXPECT_EQ(run_once(), baseline);
}

TEST(Determinism, SoakJourneySegmentIdenticalOnRerun) {
    auto run_once = [] {
        journey::SoakOptions so;
        so.base.seed = 1;
        so.base.bus_cycle = milliseconds(512);
        so.base.payload_size = 256;
        so.dc_count = 2;
        so.journey_seed = 7;
        so.recipes = 2;
        so.journey.day_length = seconds(600);
        so.journey.service_length = seconds(450);
        so.horizon = seconds(1200);
        so.segment = seconds(600);
        so.export_period = seconds(90);
        return journey::run_soak(so).json();
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace zc::runtime
