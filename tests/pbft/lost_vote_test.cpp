// Lost votes. PBFT sends each prepare and commit once; a replica left one
// vote short of a seq's quorum while its peers execute the seq must not
// stay blocked behind it (see resend_blocked_head in pbft/replica.cpp).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "pbft/harness.hpp"

namespace zc::pbft {
namespace {

using testing::Cluster;

/// Replica 0 proposes seqs 1..count, one every 500 ms.
void propose_over_time(Cluster& c, int count) {
    for (int i = 0; i < count; ++i) {
        c.sim.schedule(milliseconds(500) * i, [&c, i] {
            c.replica(0).propose(c.make_request(0, static_cast<std::uint64_t>(i),
                                                to_bytes("req-" + std::to_string(i))));
        });
    }
}

TEST(PbftLostVotes, BlockedReplicasGetTheVotesTheyMissed) {
    Cluster c;
    // Seq 1's commits: replica 1's never leave it (an outbound-only cut),
    // and 0, 2 and 3 each lose one more. Replica 1 executes seq 1; the
    // other three are one vote short, so no checkpoint can become stable
    // to rescue them either.
    const std::set<std::pair<NodeId, NodeId>> lost = {{1, 0}, {1, 2}, {1, 3},
                                                      {3, 0}, {0, 2}, {2, 3}};
    std::set<std::pair<NodeId, NodeId>> dropped;
    c.drop_filter = [&](NodeId from, NodeId to, const Message& m) {
        const auto* commit = std::get_if<Commit>(&m);
        return commit != nullptr && commit->seq == 1 && lost.contains({from, to}) &&
               dropped.insert({from, to}).second;
    };
    propose_over_time(c, 10);
    c.sim.run();
    EXPECT_EQ(dropped, lost);
    EXPECT_TRUE(c.all_executed(10));
    for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).delivered.size(), 10u) << "replica " << i;
    EXPECT_EQ(c.replica(2).view(), 0u);  // recovered without a view change
}

TEST(PbftLostVotes, AnExecutedSeqIsVotedAgainInTheViewThatReproposesIt) {
    Cluster c;
    // Replicas 1 and 2 lose the commits of 0 and 3 for seq 1, which 0 and
    // 3 execute. The primary then crashes. View 1's new view re-proposes
    // seq 1 to 1 and 2; replica 3 skips the reproposal (it executed the
    // seq), so only its fresh votes in view 1 can complete the quorum.
    c.drop_filter = [](NodeId from, NodeId to, const Message& m) {
        const auto* commit = std::get_if<Commit>(&m);
        return commit != nullptr && commit->seq == 1 && commit->view == 0 &&
               (to == 1 || to == 2) && (from == 0 || from == 3);
    };
    const Request r = c.make_request(0, 1, to_bytes("once"));
    c.replica(0).propose(r);
    c.sim.run_until(TimePoint{0} + milliseconds(100));
    ASSERT_EQ(c.replica(3).last_executed(), 1u);
    ASSERT_EQ(c.replica(1).last_executed(), 0u);
    c.crash(0);
    for (NodeId i = 1; i < 4; ++i) c.replica(i).suspect();
    c.sim.run();
    for (NodeId i = 1; i < 4; ++i) {
        EXPECT_EQ(c.replica(i).view(), 1u) << "replica " << i;
        ASSERT_EQ(c.app(i).delivered.size(), 1u) << "replica " << i;
        EXPECT_EQ(c.app(i).delivered[0].first, r);
    }
}

TEST(PbftLostVotes, NothingIsResentWhenEveryVoteArrives) {
    Cluster c;
    std::map<std::tuple<int, NodeId, NodeId, SeqNo>, int> copies;  // (kind, from, to, seq)
    c.drop_filter = [&copies](NodeId from, NodeId to, const Message& m) {
        if (const auto* p = std::get_if<Prepare>(&m)) copies[{0, from, to, p->seq}] += 1;
        if (const auto* k = std::get_if<Commit>(&m)) copies[{1, from, to, k->seq}] += 1;
        return false;
    };
    propose_over_time(c, 10);
    c.sim.run();
    EXPECT_TRUE(c.all_executed(10));
    EXPECT_EQ(copies.size(), 10u * (3 * 3 + 4 * 3));  // backups prepare, everyone commits
    for (const auto& [key, n] : copies) EXPECT_EQ(n, 1) << "a vote was sent twice";
}

}  // namespace
}  // namespace zc::pbft
