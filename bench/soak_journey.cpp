// Long-haul soak benchmark: journey-driven multi-hour runs through the
// segmented soak harness (src/journey), single-consist and fleet.
//
// Reports the long-horizon health metrics the short benches cannot see:
// telegrams/day throughput under timetable load, the memory plateau the
// bounded-memory check locked onto, and that audits, alarms and queues
// stayed clean over the whole horizon. Host wall-clock and sim_rate land
// in the profiler's "host" block (one-sided gate in CI).
//
// --quick shrinks the horizons (CI smoke); row labels stay identical and
// every extra column is horizon-normalized or a should-be-zero count, so
// quick runs diff cleanly against the committed full-depth baseline.
#include <cstring>

#include "bench_util.hpp"
#include "journey/soak.hpp"

using namespace zc;
using namespace zc::bench;

namespace {

BenchRow soak_row(const std::string& label, const journey::SoakOptions& options) {
    const journey::SoakReport rep = journey::run_soak(options);

    RunMeasurement m;
    double mem_peak = 0.0;
    for (const auto& seg : rep.segments) {
        mem_peak = std::max(mem_peak,
                            static_cast<double>(seg.mem_node_peak_bytes) / (1024.0 * 1024.0));
        m.logged = seg.logged;
        m.blocks = seg.blocks;
    }
    m.mem_avg_mb = rep.mem_plateau_mb;
    m.mem_peak_mb = mem_peak;

    std::uint64_t stuck = 0;
    for (const auto& v : rep.violations) stuck += v.kind == "stuck-alarm" ? 1u : 0u;
    BenchRow row{label, m, {}};
    row.extra.emplace_back("telegrams_per_day", rep.telegrams_per_day);
    row.extra.emplace_back("mem_plateau_mb", rep.mem_plateau_mb);
    row.extra.emplace_back("violations", static_cast<double>(rep.violations.size()));
    row.extra.emplace_back("alarms_stuck", static_cast<double>(stuck));

    std::printf("%-24s | %9.0f tg/day | plateau %6.2f MB | peak %6.2f MB | %zu violation(s), "
                "%llu alarm(s) stuck, exit %d\n",
                label.c_str(), rep.telegrams_per_day, rep.mem_plateau_mb, mem_peak,
                rep.violations.size(), static_cast<unsigned long long>(stuck),
                rep.exit_code());
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    HostProfiler host;

    print_header("Long-haul soak: journeys + compounded chaos (src/journey)");

    std::vector<BenchRow> rows;

    // Single consist: compressed two-hour "days" so every phase (service
    // bursts, tunnels, depot trickle) falls inside the horizon.
    {
        journey::SoakOptions so;
        so.base.seed = 1;
        so.base.bus_cycle = milliseconds(512);
        so.base.payload_size = 256;
        so.dc_count = 2;
        so.journey_seed = 7;
        so.recipes = 3;
        so.journey.day_length = seconds(7200);
        so.journey.service_length = seconds(5400);
        so.horizon = quick ? seconds(2 * 3600) : seconds(6 * 3600);
        rows.push_back(soak_row("soak single journey=7", so));
    }

    // Fleet of four on a slower cycle (the long-haul archive workload).
    {
        journey::SoakOptions so;
        so.base.seed = 1;
        so.base.bus_cycle = milliseconds(1024);
        so.base.payload_size = 256;
        so.base.block_size = 8;
        so.trains = 4;
        so.dc_count = 2;
        so.journey_seed = 7;
        so.recipes = 3;
        so.journey.day_length = seconds(7200);
        so.journey.service_length = seconds(5400);
        so.horizon = quick ? seconds(3600) : seconds(4 * 3600);
        rows.push_back(soak_row("soak fleet-4 journey=7", so));
    }

    write_bench_json("soak", rows, quick);
    return 0;
}
