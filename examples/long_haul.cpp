// Long-haul journey demo: the full journey API end to end.
//
// 1. Generate a seeded two-day journey for a small fleet: station dwell
//    bursts, tunnel dead zones, overnight depot layovers, a degraded
//    recorder device on some consists.
// 2. Compile it — plus compounded fault recipes (a primary crash inside
//    a dead zone, a node held down past the fleet's pruning horizon, a
//    data-center outage covering a tunnel) — onto the fault schedules
//    the fleet executes, under the f-availability budget.
// 3. Soak a compressed slice of it and check the invariants that matter
//    over days: auditor-clean chains, alarms that clear, memory that
//    plateaus.
//
// Everything is deterministic: re-running this binary reproduces the
// same journey, the same chaos, the same report, byte for byte.
#include <cstdio>

#include "journey/compiler.hpp"
#include "journey/journey.hpp"
#include "journey/soak.hpp"

using namespace zc;

int main() {
    // -- 1: the timetable ------------------------------------------------
    journey::JourneyConfig jc;
    jc.seed = 42;
    jc.trains = 2;
    jc.days = 2;
    jc.nodes = 4;
    const journey::JourneyPlan plan = journey::generate(jc);
    std::printf("%s", plan.summary().c_str());

    // -- 2: lower it onto executable fault schedules ---------------------
    journey::CompilerOptions co;
    co.n = 4;
    co.f = 1;
    co.fleet = true;
    co.dc_count = 2;
    co.recipes = 3;
    const journey::CompiledJourney compiled = journey::compile(plan, co);
    std::printf("\n%s", compiled.summary().c_str());

    // -- 3: soak a compressed slice --------------------------------------
    // Two simulated hours with the same machinery the multi-day CI soak
    // uses: segmented execution, per-boundary audits, alarm sweeps and
    // the bounded-memory plateau check. A slow bus cycle keeps the demo
    // snappy; drop it to 64 ms for the paper's full telegram rate.
    journey::SoakOptions so;
    so.base.seed = 7;
    so.base.bus_cycle = milliseconds(512);
    so.base.payload_size = 256;
    so.trains = 2;
    so.dc_count = 2;
    so.horizon = seconds(2 * 3600);
    so.segment = seconds(900);
    so.journey_seed = 42;
    so.recipes = 3;
    // The demo journey compresses a "day" into two hours so every phase
    // (service, tunnels, depot) appears inside the soak window.
    so.journey.day_length = seconds(2 * 3600);
    so.journey.service_length = seconds(90 * 60);

    std::printf("\nsoaking 2 simulated hours (fleet of %u)...\n", so.trains);
    const journey::SoakReport report = journey::run_soak(so);
    std::printf("%s", report.summary().c_str());
    std::printf("exit code: %d\n", report.exit_code());
    return report.exit_code();
}
