// The train-parallel fleet: every train on its own event queue, advanced
// in lookahead-bounded windows on a worker pool. The output must not
// depend on the worker count or on where the window barriers fall, and a
// delivery that would land inside a window must throw, never reorder.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <stdexcept>

#include "fleet/chaos.hpp"
#include "fleet/fleet.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {
namespace {

namespace fs = std::filesystem;

class ParallelFleet : public ::testing::Test {
protected:
    void SetUp() override {
        root_ = fs::temp_directory_path() / ("zc_parallel_fleet_" + std::to_string(::getpid()));
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    /// 8 trains, 2 DCs, the staggered drill (node crashes, LTE dead
    /// zones, a DC outage), per-shard auditors and durable stores.
    FleetConfig drill(std::uint32_t jobs, const std::string& run) const {
        FleetConfig cfg;
        cfg.trains = 8;
        cfg.seed = 5;
        cfg.dc_count = 2;
        cfg.warmup = seconds(1);
        cfg.duration = seconds(9);
        cfg.export_period = seconds(3);
        cfg.train.payload_size = 256;
        cfg.audit = true;
        cfg.store_root = root_ / run;
        cfg.faults = staggered_drill(cfg.trains, cfg.dc_count, cfg.warmup + cfg.duration);
        cfg.jobs = jobs;
        return cfg;
    }

    fs::path root_;
};

/// Everything a fleet run leaves behind: report, rollup and every store
/// file (relative path -> bytes).
struct Output {
    std::string report;
    std::string rollup;
    std::map<std::string, std::string> files;
};

Output run(const FleetConfig& cfg, const std::function<void(Fleet&)>& before = {}) {
    Output out;
    {
        Fleet fleet(cfg);
        if (before) before(fleet);
        fleet.run();
        out.report = fleet.report().json();
        out.rollup = fleet.rollup().csv();
    }
    for (const auto& entry : fs::recursive_directory_iterator(*cfg.store_root)) {
        if (!entry.is_regular_file()) continue;
        std::ifstream in(entry.path(), std::ios::binary);
        out.files[fs::relative(entry.path(), *cfg.store_root).string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return out;
}

void expect_same(const Output& a, const Output& b, const char* what) {
    EXPECT_EQ(a.report, b.report) << what;
    EXPECT_EQ(a.rollup, b.rollup) << what;
    ASSERT_EQ(a.files.size(), b.files.size()) << what;
    for (const auto& [path, bytes] : a.files) {
        const auto it = b.files.find(path);
        ASSERT_NE(it, b.files.end()) << what << ": " << path << " missing";
        EXPECT_TRUE(it->second == bytes) << what << ": " << path << " differs";
    }
}

TEST_F(ParallelFleet, OutputIsIndependentOfTheWorkerCount) {
    const Output serial = run(drill(1, "jobs1"));
    ASSERT_FALSE(serial.files.empty());
    EXPECT_NE(serial.report.find("\"audit_violations\":0"), std::string::npos) << serial.report;
    expect_same(serial, run(drill(2, "jobs2")), "jobs=2");
    expect_same(serial, run(drill(4, "jobs4")), "jobs=4");
    expect_same(serial, run(drill(0, "jobs0")), "jobs=0");
}

TEST_F(ParallelFleet, OutputIsIndependentOfWhereTheBarriersFall) {
    const Output plain = run(drill(4, "plain"));
    // No-op fleet-queue events at arbitrary times: each one is an extra
    // window barrier, some of them at the same instant as train events.
    const Output split = run(drill(4, "split"), [](Fleet& fleet) {
        for (std::int64_t k = 1; k <= 400; ++k) {
            fleet.sim().schedule_at(TimePoint{k * 24'999'991}, [] {});
        }
        fleet.sim().schedule_at(TimePoint{seconds(3).count()}, [] {});
        fleet.sim().schedule_at(TimePoint{seconds(3).count() + 1}, [] {});
    });
    expect_same(plain, split, "extra barriers");
}

TEST_F(ParallelFleet, DeliveryInsideAWindowThrows) {
    FleetConfig cfg = drill(2, "guard");
    cfg.faults = {};
    cfg.audit = false;
    cfg.sample_period = Duration::zero();
    Fleet fleet(cfg);
    ASSERT_LT(fleet.lookahead(), milliseconds(35));
    ASSERT_GT(fleet.lookahead(), milliseconds(34));
    // Claim a lookahead far above the LTE latency: the first train->DC
    // message of an export arrives inside the window it was sent in.
    fleet.override_lookahead(seconds(5));
    EXPECT_THROW(fleet.run(), std::logic_error);
}

std::size_t thread_count() {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

TEST_F(ParallelFleet, JobsAreClampedToTheTrainCount) {
    EXPECT_EQ(Fleet::pool_size(1000, 8, 4), 8u);
    EXPECT_EQ(Fleet::pool_size(UINT32_MAX, 8, 4), 8u);
    EXPECT_EQ(Fleet::pool_size(0, 8, 4), 4u);
    EXPECT_EQ(Fleet::pool_size(0, 2, 64), 2u);
    EXPECT_EQ(Fleet::pool_size(0, 8, 0), 1u);
    EXPECT_EQ(Fleet::pool_size(3, 8, 64), 3u);

    const bool procfs = fs::exists("/proc/self/task");
    const std::size_t threads = procfs ? thread_count() : 0;
    for (const std::uint32_t jobs : {1000u, UINT32_MAX}) {
        FleetConfig cfg = drill(jobs, "clamp");
        cfg.store_root.reset();
        const Fleet fleet(cfg);
        EXPECT_EQ(fleet.workers(), 8u) << "jobs=" << jobs;
        if (procfs) {
            EXPECT_EQ(thread_count(), threads) << "the constructor started threads";
        }
    }

    // Traced fleets and single consists stay on the calling thread.
    trace::Tracer tracer(/*capture_events=*/false);
    FleetConfig traced = drill(4, "traced");
    traced.store_root.reset();
    traced.trace_sink = &tracer;
    EXPECT_EQ(Fleet(traced).workers(), 1u);
    FleetConfig single = drill(4, "single");
    single.store_root.reset();
    single.trains = 1;
    single.faults = {};
    EXPECT_EQ(Fleet(single).workers(), 1u);
}

}  // namespace
}  // namespace zc::fleet
