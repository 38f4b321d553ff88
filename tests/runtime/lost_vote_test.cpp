// Lost votes under gray faults. `zugchain_sim --gray mixed` at seed 1
// cuts node 1's outbound links while node 0 limps and a third node's
// egress creeps into loss: one seq ends up a vote short at three
// replicas while node 1 executes it. Before replicas re-sent lost votes
// the three stopped executing there, their checkpoints stopped with them,
// and ordering wedged for good once the watermark window filled (block
// 13 at 8 s, to the end of the run).
#include <gtest/gtest.h>

#include "faults/liveness.hpp"
#include "fleet/chaos.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {
namespace {

TEST(LostVotes, MixedGraySeedOneKeepsOrdering) {
    ScenarioConfig cfg;
    cfg.seed = 1;
    cfg.duration = seconds(30);
    cfg.adaptive_timeouts.enabled = true;  // the CLI default

    fleet::GrayChaosOptions go;  // the CLI's "mixed" profile
    go.seed = cfg.seed;
    go.warmup = cfg.warmup;
    go.horizon = cfg.warmup + cfg.duration;
    cfg.merge(fleet::compile_gray(go).faults.trains.at(0));

    faults::LivenessAuditor judge;
    faults::LivenessConfig lc;
    lc.n = cfg.n;
    lc.f = cfg.f;
    judge.configure(lc);
    cfg.liveness = &judge;

    Scenario scenario(cfg);
    scenario.run();
    judge.finish(scenario.sim().now());
    EXPECT_TRUE(judge.report().clean()) << judge.report().json();
    // A healthy run orders ~47 blocks in 32 s; the wedge stopped at 13.
    EXPECT_GE(scenario.report().blocks, 40u);
}

}  // namespace
}  // namespace zc::runtime
