// Fleet-unified trace plane: every shard and every data center lands in
// ONE Chrome trace with disjoint pid ranges, and the virtual-time content
// is a pure function of the seed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fleet/fleet.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {
namespace {

FleetConfig traced_config(trace::TraceSink* sink) {
    FleetConfig cfg;
    cfg.trains = 3;
    cfg.seed = 11;
    cfg.dc_count = 2;
    cfg.warmup = seconds(1);
    cfg.duration = seconds(10);
    cfg.export_period = seconds(4);
    cfg.train.payload_size = 256;
    cfg.trace_sink = sink;
    return cfg;
}

std::string run_traced() {
    trace::Tracer tracer(/*capture_events=*/true);
    Fleet fleet(traced_config(&tracer));
    fleet.run();
    return tracer.chrome_json();
}

/// Every `"pid":N` occurring in the serialized trace.
std::set<unsigned> pids_in(const std::string& json) {
    std::set<unsigned> pids;
    const std::string needle = "\"pid\":";
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        pids.insert(static_cast<unsigned>(std::stoul(json.substr(at + needle.size()))));
    }
    return pids;
}

TEST(FleetTrace, PidPlanSeparatesTrainsAndDataCenters) {
    const std::string json = run_traced();
    const std::set<unsigned> pids = pids_in(json);
    ASSERT_FALSE(pids.empty());

    // Each train's 4 nodes occupy 1000*t..+3 (train 0 keeps the single
    // consist's pids 0..3); DCs sit at 100+d. No event may fall outside
    // the plan (that would mean an unmapped sink).
    for (const unsigned pid : pids) {
        const bool is_dc = pid == dc_trace_pid(0) || pid == dc_trace_pid(1);
        const bool is_train = (pid >= trace_pid(0, 0) && pid <= trace_pid(0, 3)) ||
                              (pid >= trace_pid(1, 0) && pid <= trace_pid(1, 3)) ||
                              (pid >= trace_pid(2, 0) && pid <= trace_pid(2, 3));
        EXPECT_TRUE(is_dc || is_train) << "unplanned pid " << pid;
    }
    // All three trains and both DCs actually emitted.
    for (TrainId t = 0; t < 3; ++t) {
        EXPECT_TRUE(pids.count(trace_pid(t, 0))) << "train " << t << " missing";
    }
    EXPECT_TRUE(pids.count(dc_trace_pid(0)));
    EXPECT_TRUE(pids.count(dc_trace_pid(1)));
}

TEST(FleetTrace, DataCenterPhasesAreInTheMergedTrace) {
    const std::string json = run_traced();
    // Ingest-queue spans (enqueue -> decode) and DC-to-DC sync events ride
    // the same trace as the consensus phases.
    EXPECT_NE(json.find("\"dc_ingest_queue\""), std::string::npos);
    EXPECT_NE(json.find("\"dc_sync\""), std::string::npos);
    EXPECT_NE(json.find("\"preprepare\""), std::string::npos);
}

TEST(FleetTrace, SameSeedSerializesByteIdentically) {
    EXPECT_EQ(run_traced(), run_traced());
}

TEST(FleetTrace, OffsetSinkRemapsAllButNoNode) {
    trace::Tracer tracer(true);
    trace::OffsetSink offset(tracer, 2000);
    offset.event(3, millis_f(1.0), trace::Phase::kDecide, 7, 0);
    offset.event(kNoNode, millis_f(2.0), trace::Phase::kDecide, 8, 0);
    const std::string json = tracer.chrome_json();
    EXPECT_NE(json.find("\"pid\":2003"), std::string::npos);
    // The "no node" sentinel stays global instead of landing at 2000+...
    EXPECT_EQ(json.find("\"pid\":2000"), std::string::npos);
}

}  // namespace
}  // namespace zc::fleet
