// Long-haul soak runner: simulated days of journey-driven operation in
// bounded segments, with invariants re-checked at every boundary.
//
// A soak answers the question the short benchmark runs cannot: does the
// deployment stay healthy over a *juridically relevant* horizon — days
// of station bursts, tunnels, depot trickle and compounded faults — or
// does something creep (a chain that outruns its pruning, a queue that
// never drains, a leaked timer, an alarm that latches forever)?
//
// The runner drives a fleet::Fleet — of one train for a single consist —
// in fixed virtual-time segments. At each boundary it:
//   * runs a SafetyAuditor pass (fork/hash-link/signature/no-lost-input/
//     export-proof invariants),
//   * sweeps the health monitors' alarm lists,
//   * samples every bounded-resource metric (per-node logical memory and
//     each of its gauges, the simulator's pending-event count, DC ingest
//     depth) and checks it against a plateau reference established after
//     a grace period: sustained growth past `slack` + `floor` is a
//     bounded-memory violation.
// Each violation records the simulated time window where it first
// appeared, so a multi-day report points at "day 2, 03:15–03:30" rather
// than "somewhere".
//
// Reports are deterministic: same options (seed included) -> byte-
// identical json(). Wall-clock/host data deliberately never enters the
// report (bench/soak_journey.cpp measures that side separately).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "journey/compiler.hpp"
#include "journey/journey.hpp"
#include "runtime/scenario.hpp"

namespace zc::journey {

struct SoakOptions {
    /// Workload template (n, f, seed, bus cycle, payload, timers...).
    /// `duration`, `dc_count` and `audit_period` are overridden by the
    /// runner, and `delete_quorum` is clamped to [1, dc_count]. Its fault
    /// plan and adversaries land on train 0, the plan before the
    /// journey's; with more than one train its store_root becomes the
    /// fleet's (store_root/train-<t>/node-<i>).
    runtime::ScenarioConfig base;

    std::uint32_t trains = 1;     ///< 1 = a single consist
    std::uint32_t dc_count = 2;

    Duration horizon{seconds(2 * 86'400)};
    Duration segment{seconds(900)};
    Duration export_period{seconds(120)};

    /// 0 = quiet soak (no journey, no chaos). Otherwise the seed of the
    /// generated journey whose compiled schedules are installed.
    std::uint64_t journey_seed = 0;
    std::uint32_t recipes = 3;
    /// Journey shape knobs; seed/trains/days/nodes are derived.
    JourneyConfig journey;

    bool audit = true;
};

struct SoakViolation {
    std::string kind;    ///< "memory-plateau" | "stuck-alarm" | "audit"
    std::string metric;  ///< gauge / alarm / invariant name
    Duration window_start{0};  ///< simulated window of first appearance
    Duration window_end{0};
    std::string detail;
};

/// One boundary sample (values are cumulative or instantaneous as named).
struct SoakSegment {
    Duration end{0};
    std::uint64_t telegrams = 0;       ///< cumulative, fleet-wide
    std::uint64_t logged = 0;          ///< cumulative unique logged requests
    std::uint64_t blocks = 0;          ///< sum of chain heads
    std::uint64_t alarms_active = 0;   ///< currently latched alarms
    std::uint64_t audit_violations = 0;  ///< cumulative
    std::int64_t mem_node_peak_bytes = 0;  ///< max node logical memory
    std::int64_t chain_bytes = 0;          ///< max "chain" gauge
    std::uint64_t pending_events = 0;      ///< simulator queue depth
    std::uint64_t dc_ingest_depth = 0;     ///< fleet: sum of DC queues
};

struct SoakReport {
    bool fleet = false;  ///< more than one train
    std::uint32_t trains = 1;
    std::uint32_t dc_count = 0;
    std::uint64_t seed = 0;
    std::uint64_t journey_seed = 0;
    Duration horizon{0};
    Duration segment_length{0};
    std::vector<std::string> recipes;  ///< placed recipe descriptions

    std::vector<SoakSegment> segments;
    std::vector<SoakViolation> violations;

    std::uint64_t telegrams_total = 0;
    std::uint64_t logged_total = 0;
    std::uint64_t blocks_total = 0;
    std::uint64_t alarms_fired = 0;
    std::uint64_t alarms_cleared = 0;
    std::uint64_t audit_violations = 0;
    double telegrams_per_day = 0.0;
    /// Plateau reference of the max-node logical memory, in MB.
    double mem_plateau_mb = 0.0;

    bool clean() const noexcept { return violations.empty(); }

    /// 0 clean; 4 audit violation; 5 bounded-memory violation; 3 alarm
    /// latched at end of soak (mirrors zugchain_sim's exit-code scheme,
    /// most juridically severe first).
    int exit_code() const noexcept;

    /// Deterministic single-line JSON (double-run CI cmp's it byte for
    /// byte; contains no host/wall-clock data).
    std::string json() const;

    /// Human-readable digest (violations, totals, plateau).
    std::string summary() const;
};

/// Runs the soak. Throws std::invalid_argument on nonsensical options
/// (zero-length horizon/segment, segment longer than horizon).
SoakReport run_soak(const SoakOptions& options);

}  // namespace zc::journey
