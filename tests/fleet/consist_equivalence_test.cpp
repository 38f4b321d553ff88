// A consist is a fleet of one: a runtime::Scenario is a one-train Fleet,
// and train 0 of any fleet without data centers records exactly the
// chains the single consist of the same template and seed records.
#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "runtime/scenario.hpp"

namespace zc::fleet {
namespace {

runtime::ScenarioConfig consist_template() {
    runtime::ScenarioConfig cfg;
    cfg.seed = 5;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(6);
    cfg.payload_size = 256;
    return cfg;
}

TEST(ConsistEquivalence, TrainZeroOfAFleetIsTheConsist) {
    runtime::Scenario consist(consist_template());
    consist.run();

    FleetConfig fc;
    fc.trains = 3;
    fc.seed = consist_template().seed;
    fc.dc_count = 0;
    fc.warmup = consist_template().warmup;
    fc.duration = consist_template().duration;
    fc.train = consist_template();
    Fleet fleet(std::move(fc));
    fleet.run();

    runtime::TrainShard& train0 = fleet.shard(0);
    ASSERT_EQ(train0.node_count(), consist.node_count());
    for (std::size_t i = 0; i < consist.node_count(); ++i) {
        const chain::BlockStore& want = consist.node(i).store();
        const chain::BlockStore& got = train0.node(i).store();
        ASSERT_GT(want.head_height(), 0u) << "node " << i << " recorded nothing";
        EXPECT_EQ(got.head_height(), want.head_height()) << "node " << i;
        EXPECT_EQ(got.head_hash(), want.head_hash()) << "node " << i;
    }
    // The sibling trains draw their own streams.
    EXPECT_NE(fleet.shard(1).node(0).store().head_hash(), consist.node(0).store().head_hash());
}

TEST(ConsistEquivalence, ScenarioFacadeExposesItsOneTrain) {
    runtime::ScenarioConfig cfg = consist_template();
    cfg.dc_count = 1;
    cfg.crash_schedule.emplace_back(seconds(2), NodeId{3}, seconds(1));
    runtime::Scenario consist(std::move(cfg));
    // config() is the train's own copy: the fault plan is still there.
    ASSERT_EQ(consist.config().crash_schedule.size(), 1u);
    EXPECT_EQ(&consist.network(), &consist.shard().network());
    EXPECT_EQ(consist.data_center(0).store().head_height(), 0u);
    consist.run();
    EXPECT_TRUE(consist.node(3).alive()) << "the crash/restart plan reached the consist";
    EXPECT_GT(consist.report().blocks, 0u);
}

TEST(ConsistEquivalence, MultiTrainTemplateRejectsPerConsistSettings) {
    faults::SafetyAuditor auditor;
    FleetConfig fc;
    fc.trains = 2;
    fc.dc_count = 0;
    fc.train.auditor = &auditor;
    EXPECT_THROW(Fleet{fc}, std::invalid_argument);
    fc.train.auditor = nullptr;
    fc.train.store_root = "unused";
    EXPECT_THROW(Fleet{fc}, std::invalid_argument);
    fc.train.store_root.reset();
    fc.train.byzantine[1].fabricate_rate = 1.0;
    EXPECT_THROW(Fleet{fc}, std::invalid_argument);
}

}  // namespace
}  // namespace zc::fleet
