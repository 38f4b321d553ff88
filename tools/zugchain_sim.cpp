// zugchain_sim — run a ZugChain (or baseline) testbed scenario from the
// command line and print the measurements.
//
//   zugchain_sim [--mode zugchain|baseline] [--n 4] [--f 1]
//                [--cycle-ms 64] [--payload 1024] [--block-size 10]
//                [--duration-s 30] [--seed 1] [--dcs 0] [--export-at-s N]
//                [--export-timeout-s N]
//                [--crash-primary-at-s N] [--crash T:NODE[:RESTART_AFTER]]
//                [--flap T:DUR:lte|nodeID] [--fabricator NODE]
//                [--adversary PROFILE:NODE] [--audit] [--audit-liveness]
//                [--gray limping|flaky|creep|consist|mixed] [--gray-limp F]
//                [--fixed-timeouts]
//                [--store-dir DIR] [--crypto fast|ed25519]
//                [--trace FILE] [--metrics FILE] [--json] [--prof]
//                [--health FILE] [--timeseries FILE] [--fail-on-alarm]
//
// Fleet mode (--fleet N): run N independent train shards on one virtual
// clock, exporting into shared data centers (src/fleet; a single consist
// is the same machinery with one train). Reuses --seed, --cycle-ms,
// --payload, --block-size, --batch-size, --duration-s, --crypto,
// --store-dir (per-train subdirectories DIR/train-<t>/node-<i>), --audit,
// --audit-liveness (implies --audit, which judges every train's liveness;
// this flag makes a violation exit 6 and prints the per-train reports),
// --prof, --fail-on-alarm, --json and --trace (one merged Perfetto/Chrome
// trace: train t node i at pid 1000*t+i, so train 0 keeps the
// single-consist pids; shared DCs at pid 100+d, including DC ingest-queue
// and DC-to-DC sync spans). The single-consist fault flags --crash,
// --flap, --crash-primary-at-s and --adversary apply to train 0. With
// --fleet-dcs 0, train 0 of a fleet records exactly the chains the single
// consist of the same seed records. Plus:
//
//   zugchain_sim --fleet N [--fleet-dcs N] [--fleet-chaos]
//                [--export-period-s S] [--trains-per-cell N]
//                [--rollup FILE.csv|FILE.json] [--jobs N]
//
// --jobs N advances the trains on N worker threads (0, the default, is
// one per hardware thread, at most one per train). The output does not
// depend on it; --trace and --prof run on one thread.
//
// --prof attributes *host* wall-clock cost (crypto, codec, store, event
// loop, DC ingest...) and reports the sim_rate (simulated seconds per
// wall second). Virtual-side output is byte-identical with or without
// it; host timings land in a trailing table (or a "host" JSON key).
//
// Examples:
//   zugchain_sim --duration-s 60
//   zugchain_sim --mode baseline --cycle-ms 32
//   zugchain_sim --dcs 2 --export-at-s 20 --duration-s 40
//   zugchain_sim --trace trace.json   # open in Perfetto / chrome://tracing
//   zugchain_sim --crash-primary-at-s 10 --health health.json --fail-on-alarm
//   zugchain_sim --crash 6:2:4 --duration-s 30      # crash node 2 at 6 s,
//                                                   # restart it 4 s later
//   # export across an outage:
//   zugchain_sim --dcs 1 --export-at-s 12 --export-timeout-s 5 --flap 10:15:lte --duration-s 60
//   zugchain_sim --adversary equivocator:1 --audit  # compromise node 1,
//                                                   # gate on the safety audit
//   zugchain_sim --fleet 8 --fleet-chaos --audit --json   # CI fleet smoke:
//                                                   # deterministic JSON, cmp-able
//
// Soak mode (--soak HOURS): drive simulated days of operation in
// segments, re-checking the safety audit, alarm list and bounded-memory
// plateau at every boundary (src/journey). --journey SEED adds a seeded
// multi-day journey (station bursts, tunnels, depot layovers, degraded
// devices) plus compounded fault recipes compiled onto the fault
// schedules. Works single-consist and with --fleet N:
//
//   zugchain_sim --soak H [--journey SEED] [--soak-segment-s S]
//                [--soak-recipes N] [--soak-day-s S]
//
//   zugchain_sim --soak 2 --journey 7 --cycle-ms 512 --json
//   # two simulated days, fleet of four:
//   zugchain_sim --fleet 4 --soak 48 --journey 7 --cycle-ms 1024 --payload 256
//
// Exit codes: 0 ok, 1 chains inconsistent, 2 usage, 3 health alarm
// (with --fail-on-alarm; an alarm that fired and cleared — e.g. a crash
// followed by a successful rejoin — does not fail the run; in soak mode
// an alarm still latched at end of horizon), 4 safety violations
// reported by the --audit auditor (dominates 1 and 3; soaks always
// audit), 5 bounded-memory violation in soak mode (a chain, queue, log
// or timer population that kept growing past its plateau), 6 liveness
// violations reported by the --audit-liveness auditor, on any train of a
// fleet (ordering that stood still through a quorum-capable stretch, a
// stuck export, or a rejoin that never caught up; safety's 4 dominates
// it).
//
// Gray failures (--gray PROFILE) compile a deterministic gray-chaos
// schedule onto the run (src/fleet/chaos): "limping" throttles the
// view-0 primary's virtual CPU, "flaky" flaps one node's outbound links
// (dead TX amplifier), "creep" ramps one node's egress down over
// minutes, "consist" limps every node (cluster-wide degradation),
// "mixed" is one of each. Adaptive RTT-tracking timeouts are on by
// default; --fixed-timeouts restores the paper's fixed schedule —
// the pairing that makes gray failures bite.
//
// A flag the chosen mode never reads (say --health with --fleet, or
// --gray with --soak) draws a warning on stderr; the run goes on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faults/auditor.hpp"
#include "faults/liveness.hpp"
#include "journey/soak.hpp"
#include "faults/profiles.hpp"
#include "fleet/chaos.hpp"
#include "fleet/fleet.hpp"
#include "health/flight_recorder.hpp"
#include "health/monitor.hpp"
#include "health/timeseries.hpp"
#include "prof/prof.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

using namespace zc;

namespace {

struct Args {
    runtime::ScenarioConfig cfg;
    double export_at_s = -1;
    double crash_primary_at_s = -1;
    int fabricator = -1;
    std::string trace_file;
    std::string metrics_file;
    std::string health_file;
    std::string timeseries_file;
    bool fail_on_alarm = false;
    bool json = false;
    bool audit = false;
    bool audit_liveness = false;
    bool prof = false;

    /// Adaptive RTT-tracking timeouts are the CLI default; --fixed-timeouts
    /// restores the paper's fixed 250 ms / 250 ms / 2 s schedule.
    bool fixed_timeouts = false;

    /// Gray-chaos profile ("" = none): limping | flaky | creep | consist |
    /// mixed, compiled by fleet::compile_gray onto the fault schedules.
    std::string gray;
    double gray_limp = 0.0;  // 0 = profile default

    // Fleet mode (--fleet N > 0 switches from the single-consist scenario
    // to the src/fleet orchestrator).
    std::uint32_t fleet = 0;
    std::uint32_t fleet_dcs = 2;
    bool fleet_chaos = false;
    double export_period_s = 10.0;
    std::uint32_t trains_per_cell = 8;
    std::string rollup_file;
    bool export_period_set = false;
    std::uint32_t jobs = 0;

    // Soak mode (--soak HOURS > 0 switches to the segmented long-haul
    // runner; composes with --fleet and most workload flags).
    double soak_hours = 0.0;
    std::uint64_t journey_seed = 0;
    double soak_segment_s = 900.0;
    std::uint32_t soak_recipes = 3;
    double soak_day_s = 86'400.0;

    /// Every flag given on the command line (for the ignored-flag check).
    std::set<std::string> given;

    static void usage(const char* argv0) {
        std::fprintf(stderr,
                     "usage: %s [--mode zugchain|baseline] [--n N] [--f F] [--cycle-ms MS]\n"
                     "          [--payload BYTES] [--block-size N] [--duration-s S] [--seed S]\n"
                     "          [--batch-size N] [--batch-linger-us US]\n"
                     "          [--dcs N] [--export-at-s S] [--export-timeout-s S]\n"
                     "          [--crash-primary-at-s S]\n"
                     "          [--crash T:NODE[:RESTART_AFTER]] [--flap T:DUR:lte|nodeID]\n"
                     "          [--fabricator NODE] [--adversary PROFILE:NODE] [--audit]\n"
                     "          [--audit-liveness] [--gray limping|flaky|creep|consist|mixed]\n"
                     "          [--gray-limp FACTOR] [--fixed-timeouts]\n"
                     "          [--store-dir DIR] [--crypto fast|ed25519]\n"
                     "          [--trace FILE] [--metrics FILE] [--json] [--prof]\n"
                     "          [--health FILE] [--timeseries FILE] [--fail-on-alarm]\n"
                     "          [--fleet N] [--fleet-dcs N] [--fleet-chaos]\n"
                     "          [--export-period-s S] [--trains-per-cell N]\n"
                     "          [--rollup FILE.csv|FILE.json] [--jobs N]\n"
                     "          (--fleet: --audit-liveness implies --audit, judges every train)\n"
                     "          [--soak HOURS] [--journey SEED] [--soak-segment-s S]\n"
                     "          [--soak-recipes N] [--soak-day-s S]\n",
                     argv0);
        std::exit(2);
    }

    static Args parse(int argc, char** argv) {
        Args args;
        auto need_value = [&](int& i) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: flag %s needs a value\n", argv[0], argv[i]);
                usage(argv[0]);
            }
            return argv[++i];
        };
        // Splits "a:b:c" on ':' (2 or 3 fields).
        auto split_spec = [&](const std::string& spec) {
            std::vector<std::string> parts;
            std::size_t start = 0;
            while (true) {
                const std::size_t colon = spec.find(':', start);
                if (colon == std::string::npos) {
                    parts.push_back(spec.substr(start));
                    break;
                }
                parts.push_back(spec.substr(start, colon - start));
                start = colon + 1;
            }
            return parts;
        };
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            args.given.insert(flag);
            if (flag == "--mode") {
                const std::string v = need_value(i);
                if (v == "zugchain") {
                    args.cfg.mode = runtime::Mode::kZugChain;
                } else if (v == "baseline") {
                    args.cfg.mode = runtime::Mode::kBaseline;
                } else {
                    std::fprintf(stderr, "%s: unknown mode: %s\n", argv[0], v.c_str());
                    usage(argv[0]);
                }
            } else if (flag == "--n") {
                args.cfg.n = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--f") {
                args.cfg.f = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--cycle-ms") {
                args.cfg.bus_cycle = milliseconds(std::atoll(need_value(i)));
            } else if (flag == "--payload") {
                args.cfg.payload_size = static_cast<std::size_t>(std::atoll(need_value(i)));
            } else if (flag == "--block-size") {
                args.cfg.block_size = static_cast<SeqNo>(std::atoll(need_value(i)));
            } else if (flag == "--batch-size") {
                args.cfg.batch_max_requests = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--batch-linger-us") {
                args.cfg.batch_linger = microseconds(std::atoll(need_value(i)));
            } else if (flag == "--duration-s") {
                args.cfg.duration = seconds(std::atoll(need_value(i)));
            } else if (flag == "--seed") {
                args.cfg.seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
            } else if (flag == "--dcs") {
                args.cfg.dc_count = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--export-at-s") {
                args.export_at_s = std::atof(need_value(i));
            } else if (flag == "--export-timeout-s") {
                args.cfg.export_timeout = millis_f(std::atof(need_value(i)) * 1000.0);
            } else if (flag == "--crash-primary-at-s") {
                args.crash_primary_at_s = std::atof(need_value(i));
            } else if (flag == "--crash") {
                // T:NODE[:RESTART_AFTER], seconds (fractions allowed).
                const auto parts = split_spec(need_value(i));
                if (parts.size() < 2 || parts.size() > 3) {
                    std::fprintf(stderr, "%s: --crash wants T:NODE[:RESTART_AFTER]\n", argv[0]);
                    usage(argv[0]);
                }
                runtime::ScenarioConfig::CrashEntry entry;
                entry.at = millis_f(std::atof(parts[0].c_str()) * 1000.0);
                entry.node = static_cast<NodeId>(std::atoi(parts[1].c_str()));
                if (parts.size() == 3) {
                    entry.restart_after = millis_f(std::atof(parts[2].c_str()) * 1000.0);
                }
                args.cfg.crash_schedule.push_back(entry);
            } else if (flag == "--flap") {
                // T:DUR:LINK with LINK = "lte" or "node<id>", seconds.
                const auto parts = split_spec(need_value(i));
                if (parts.size() != 3) {
                    std::fprintf(stderr, "%s: --flap wants T:DUR:lte|nodeID\n", argv[0]);
                    usage(argv[0]);
                }
                runtime::ScenarioConfig::LinkFlap flap;
                flap.at = millis_f(std::atof(parts[0].c_str()) * 1000.0);
                flap.duration = millis_f(std::atof(parts[1].c_str()) * 1000.0);
                if (parts[2] == "lte") {
                    flap.link = runtime::ScenarioConfig::LinkFlap::Link::kLte;
                } else if (parts[2].rfind("node", 0) == 0 && parts[2].size() > 4) {
                    flap.link = runtime::ScenarioConfig::LinkFlap::Link::kNode;
                    flap.node = static_cast<NodeId>(std::atoi(parts[2].c_str() + 4));
                } else {
                    std::fprintf(stderr, "%s: --flap link must be lte or node<id>\n", argv[0]);
                    usage(argv[0]);
                }
                args.cfg.link_flaps.push_back(flap);
            } else if (flag == "--fabricator") {
                args.fabricator = std::atoi(need_value(i));
            } else if (flag == "--adversary") {
                // PROFILE:NODE, e.g. equivocator:1. Repeatable.
                const auto parts = split_spec(need_value(i));
                if (parts.size() != 2) {
                    std::fprintf(stderr, "%s: --adversary wants PROFILE:NODE\n", argv[0]);
                    usage(argv[0]);
                }
                const auto profile = faults::profile_config(parts[0]);
                if (!profile) {
                    std::fprintf(stderr, "%s: unknown adversary profile: %s (known:", argv[0],
                                 parts[0].c_str());
                    for (const std::string& name : faults::profile_names()) {
                        std::fprintf(stderr, " %s", name.c_str());
                    }
                    std::fprintf(stderr, ")\n");
                    usage(argv[0]);
                }
                args.cfg.byzantine[static_cast<NodeId>(std::atoi(parts[1].c_str()))] = *profile;
            } else if (flag == "--audit") {
                args.audit = true;
            } else if (flag == "--audit-liveness") {
                args.audit_liveness = true;
            } else if (flag == "--fixed-timeouts") {
                args.fixed_timeouts = true;
            } else if (flag == "--gray") {
                args.gray = need_value(i);
                if (args.gray != "limping" && args.gray != "flaky" && args.gray != "creep" &&
                    args.gray != "consist" && args.gray != "mixed") {
                    std::fprintf(stderr,
                                 "%s: --gray wants limping|flaky|creep|consist|mixed\n",
                                 argv[0]);
                    usage(argv[0]);
                }
            } else if (flag == "--gray-limp") {
                args.gray_limp = std::atof(need_value(i));
                if (args.gray_limp < 1.0) {
                    std::fprintf(stderr, "%s: --gray-limp must be >= 1\n", argv[0]);
                    usage(argv[0]);
                }
            } else if (flag == "--store-dir") {
                args.cfg.store_root = need_value(i);  // DIR/node-<id> per node
            } else if (flag == "--crypto") {
                args.cfg.crypto_provider = need_value(i);
            } else if (flag == "--trace") {
                args.trace_file = need_value(i);
            } else if (flag == "--metrics") {
                args.metrics_file = need_value(i);
            } else if (flag == "--health") {
                args.health_file = need_value(i);
            } else if (flag == "--timeseries") {
                args.timeseries_file = need_value(i);
            } else if (flag == "--fleet") {
                args.fleet = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--fleet-dcs") {
                args.fleet_dcs = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--fleet-chaos") {
                args.fleet_chaos = true;
            } else if (flag == "--jobs") {
                args.jobs = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 10));
            } else if (flag == "--export-period-s") {
                args.export_period_s = std::atof(need_value(i));
                args.export_period_set = true;
            } else if (flag == "--soak") {
                args.soak_hours = std::atof(need_value(i));
            } else if (flag == "--journey") {
                args.journey_seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
            } else if (flag == "--soak-segment-s") {
                args.soak_segment_s = std::atof(need_value(i));
            } else if (flag == "--soak-recipes") {
                args.soak_recipes = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--soak-day-s") {
                args.soak_day_s = std::atof(need_value(i));
            } else if (flag == "--trains-per-cell") {
                args.trains_per_cell = static_cast<std::uint32_t>(std::atoi(need_value(i)));
            } else if (flag == "--rollup") {
                args.rollup_file = need_value(i);
            } else if (flag == "--fail-on-alarm") {
                args.fail_on_alarm = true;
            } else if (flag == "--json") {
                args.json = true;
            } else if (flag == "--prof") {
                args.prof = true;
            } else {
                std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], flag.c_str());
                usage(argv[0]);
            }
        }
        if (args.crash_primary_at_s > 0) {
            args.cfg.crash_schedule.emplace_back(
                millis_f(args.crash_primary_at_s * 1000.0), 0);
        }
        if (args.fabricator >= 0) {
            runtime::ByzantineBehavior byz;
            byz.fabricate_rate = 1.0;
            args.cfg.byzantine[static_cast<NodeId>(args.fabricator)] = byz;
        }
        // Adaptive timeouts are the CLI default (the library defaults off
        // so embedded users opt in explicitly).
        args.cfg.adaptive_timeouts.enabled = !args.fixed_timeouts;
        return args;
    }
};

/// Compiles the --gray profile into a deterministic gray-chaos schedule
/// for `trains` shards (1 = single consist), placed clear of the crashes
/// and node flaps already in `base`.
fleet::CompiledGray compile_gray_profile(const Args& args, std::uint32_t trains,
                                         const fleet::FleetFaults& base) {
    fleet::GrayChaosOptions go;
    go.n = args.cfg.n;
    go.f = args.cfg.f;
    go.trains = trains;
    go.seed = args.cfg.seed;
    go.warmup = args.cfg.warmup;
    go.horizon = args.cfg.warmup + args.cfg.duration;
    for (const auto& [node, byz] : args.cfg.byzantine) {
        (void)byz;
        go.byzantine[0].insert(node);  // CLI adversaries land on train 0
    }
    go.limping = 0;
    go.flapping = 0;
    go.creeps = 0;
    if (args.gray == "limping") {
        go.limping = 1;
    } else if (args.gray == "flaky") {
        go.flapping = 1;
    } else if (args.gray == "creep") {
        go.creeps = 1;
    } else if (args.gray == "consist") {
        // Cluster-wide degradation: every node limps. This is the gray
        // shape a fixed view-change timeout handles worst — no view
        // change can rotate away from it.
        go.limping = args.cfg.n;
        go.limp_factor = 10.0;
    } else if (args.gray == "mixed") {
        go.limping = 1;
        go.flapping = 1;
        go.creeps = 1;
    }
    if (args.gray_limp > 0) go.limp_factor = args.gray_limp;
    return fleet::compile_gray(go, base);
}

void write_text_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Soak mode: simulated days in segments, invariants re-checked at every
/// boundary (src/journey). The --json report is deterministic (no host
/// data), so CI double-runs it and cmp's the bytes; --prof wall-clock
/// stats go to stderr to keep stdout comparable.
int run_soak_mode(const Args& args) {
    journey::SoakOptions so;
    so.base = args.cfg;
    so.trains = args.fleet > 0 ? args.fleet : 1;
    so.dc_count = args.fleet > 0 ? args.fleet_dcs
                                 : (args.cfg.dc_count > 0 ? args.cfg.dc_count : 2);
    so.horizon = millis_f(args.soak_hours * 3'600'000.0);
    so.segment = millis_f(args.soak_segment_s * 1000.0);
    // A soak exports on a long-haul cadence by default; an explicit
    // --export-period-s still wins.
    so.export_period =
        args.export_period_set ? millis_f(args.export_period_s * 1000.0) : seconds(120);
    so.journey_seed = args.journey_seed;
    so.recipes = args.soak_recipes;
    so.journey.day_length = millis_f(args.soak_day_s * 1000.0);
    so.journey.service_length = so.journey.day_length * 3 / 4;

    const auto wall_start = std::chrono::steady_clock::now();
    const journey::SoakReport report = journey::run_soak(so);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    if (args.json) {
        std::printf("%s\n", report.json().c_str());
    } else {
        std::printf("%s", report.summary().c_str());
    }
    if (args.prof) {
        std::fprintf(stderr, "soak wall_s=%.2f sim_rate=%.0f\n", wall_s,
                     to_seconds(so.horizon) / wall_s);
    }
    return report.exit_code();
}

void print_liveness(const faults::LivenessReport& live) {
    std::printf("quorum-capable windows  : %llu (%llu checked, %llu assertions)\n",
                static_cast<unsigned long long>(live.windows),
                static_cast<unsigned long long>(live.windows_checked),
                static_cast<unsigned long long>(live.checks));
    std::printf("violations              : %zu\n", live.violations.size());
    for (const faults::LivenessViolation& v : live.violations) {
        std::printf("  %s [%.1f s, %.1f s] node %d: %s\n",
                    faults::liveness_violation_name(v.kind), to_seconds(v.from),
                    to_seconds(v.to), v.node == kNoNode ? -1 : static_cast<int>(v.node),
                    v.detail.c_str());
    }
}

/// Fleet mode: N shards, shared DCs, one deterministic report. The JSON
/// output (--json) is byte-identical across same-seed runs so CI can cmp
/// two invocations for the determinism gate.
int run_fleet(const Args& args) {
    fleet::FleetConfig cfg;
    cfg.trains = args.fleet;
    cfg.seed = args.cfg.seed;
    cfg.train = args.cfg;
    cfg.dc_count = args.fleet_dcs;
    cfg.trains_per_cell = args.trains_per_cell;
    cfg.export_period = millis_f(args.export_period_s * 1000.0);
    cfg.duration = args.cfg.duration;
    cfg.store_root = std::exchange(cfg.train.store_root, std::nullopt);
    cfg.audit = args.audit || args.audit_liveness;
    cfg.jobs = args.jobs;
    if (cfg.dc_count > 0) {
        cfg.train.delete_quorum = std::max<std::size_t>(
            1, std::min<std::size_t>(cfg.train.delete_quorum, cfg.dc_count));
    }
    if (args.fleet_chaos) {
        cfg.faults = fleet::staggered_drill(cfg.trains, cfg.dc_count, cfg.warmup + cfg.duration);
    }
    // The single-consist fault flags and --adversary land on train 0.
    cfg.faults.trains[0].merge(args.cfg);
    static_cast<runtime::FaultPlan&>(cfg.train) = {};
    cfg.byzantine[0] = std::exchange(cfg.train.byzantine, {});
    if (!args.gray.empty()) {
        cfg.faults.merge(compile_gray_profile(args, cfg.trains, cfg.faults).faults);
    }

    // One merged fleet trace: every shard is offset into its own pid band
    // and the shared DCs keep their 100+d pids, so a single Tracer file
    // shows the whole fleet (trains, DC ingest queueing, DC-to-DC sync).
    trace::Tracer tracer(/*capture_events=*/true);
    if (!args.trace_file.empty()) {
        for (std::uint32_t t = 0; t < cfg.trains; ++t) {
            for (std::uint32_t i = 0; i < cfg.train.n; ++i) {
                tracer.set_process_label(fleet::trace_pid(t, i), "train-" + std::to_string(t) +
                                                                     "-node-" +
                                                                     std::to_string(i));
            }
        }
        for (std::uint32_t d = 0; d < cfg.dc_count; ++d) {
            tracer.set_process_label(fleet::dc_trace_pid(d), "dc-" + std::to_string(d));
        }
        cfg.trace_sink = &tracer;
    }

    fleet::Fleet fleet(cfg);
    fleet.run();
    const prof::Profiler* profiler = prof::Profiler::active();
    const fleet::FleetReport report = fleet.report();

    if (!args.trace_file.empty()) {
        write_text_file(args.trace_file, tracer.chrome_json());
    }

    if (!args.rollup_file.empty()) {
        const bool as_json = args.rollup_file.size() >= 5 &&
                             args.rollup_file.compare(args.rollup_file.size() - 5, 5,
                                                      ".json") == 0;
        write_text_file(args.rollup_file,
                        as_json ? fleet.rollup().json() : fleet.rollup().csv());
    }

    int rc = report.cross_shard_collisions == 0 ? 0 : 1;
    if (rc == 0 && args.fail_on_alarm && report.alarms.total_never_cleared > 0) rc = 3;
    if (args.audit_liveness && report.liveness_violations > 0) rc = 6;
    if (cfg.audit && report.audit_violations > 0) rc = 4;

    if (args.json) {
        // The host block is the last key so the virtual-content prefix of
        // the line stays byte-identical across same-seed --prof runs.
        std::string out = report.json();
        if (args.audit_liveness) {
            out.pop_back();  // '}'
            out += ",\"liveness\":[";
            for (std::uint32_t t = 0; t < cfg.trains; ++t) {
                if (t != 0) out += ",";
                out += fleet.liveness(t)->report().json();
            }
            out += "]}";
        }
        if (profiler != nullptr) {
            out.pop_back();  // '}'
            out += ",\"host\":" + profiler->snapshot().json() + "}";
        }
        std::printf("%s\n", out.c_str());
        return rc;
    }

    std::printf("zugchain_sim: fleet=%u dcs=%u cycle=%lld ms payload=%zu "
                "export-period=%.1f s duration=%.0f s seed=%llu%s%s\n",
                report.trains, report.dc_count,
                static_cast<long long>(args.cfg.bus_cycle.count() / 1'000'000),
                args.cfg.payload_size, args.export_period_s, to_seconds(cfg.duration),
                static_cast<unsigned long long>(cfg.seed),
                args.fleet_chaos ? " chaos=staggered" : "",
                cfg.audit ? " audit=on" : "");

    std::printf("\n-- fleet --\n");
    std::printf("logged (unique, fleet)  : %llu\n",
                static_cast<unsigned long long>(report.logged_sum));
    std::printf("archived unique / dup   : %llu / %llu\n",
                static_cast<unsigned long long>(report.exported_unique),
                static_cast<unsigned long long>(report.exported_duplicates));
    std::printf("exports ok / failed     : %llu / %llu\n",
                static_cast<unsigned long long>(report.exports_completed),
                static_cast<unsigned long long>(report.exports_failed));
    std::printf("ingest dropped          : %llu\n",
                static_cast<unsigned long long>(report.ingest_dropped));
    std::printf("cross-shard collisions  : %llu\n",
                static_cast<unsigned long long>(report.cross_shard_collisions));
    std::printf("alarms fired / stuck    : %llu / %llu\n",
                static_cast<unsigned long long>(report.alarms.total_fired),
                static_cast<unsigned long long>(report.alarms.total_never_cleared));
    if (cfg.audit) {
        std::printf("audit violations        : %llu\n",
                    static_cast<unsigned long long>(report.audit_violations));
        std::printf("liveness violations     : %llu\n",
                    static_cast<unsigned long long>(report.liveness_violations));
    }

    std::printf("\n-- per train --\n");
    std::printf("%6s %6s %8s %10s %10s %8s %7s %7s\n", "train", "alive", "head", "logged",
                "archived", "exports", "failed", "alarms");
    for (const fleet::TrainReport& t : report.per_train) {
        std::printf("%6u %6u %8llu %10llu %10llu %8llu %7llu %7llu\n", t.train, t.nodes_alive,
                    static_cast<unsigned long long>(t.head),
                    static_cast<unsigned long long>(t.logged),
                    static_cast<unsigned long long>(t.exported_head),
                    static_cast<unsigned long long>(t.exports_completed),
                    static_cast<unsigned long long>(t.exports_failed),
                    static_cast<unsigned long long>(t.active_alarms));
    }

    if (args.audit_liveness) {
        for (std::uint32_t t = 0; t < cfg.trains; ++t) {
            std::printf("\n-- liveness audit, train %u --\n", t);
            print_liveness(fleet.liveness(t)->report());
        }
    }

    if (profiler != nullptr) profiler->snapshot().print_table(stdout);
    return rc;
}

void print_json_report(const Args& args, const runtime::ScenarioReport& r, bool consistent,
                       const faults::SafetyAuditor* auditor,
                       const faults::LivenessAuditor* liveness, std::uint64_t attack_attempts,
                       std::uint64_t st_rejected, const prof::Profiler* profiler) {
    std::printf("{");
    std::printf("\"mode\":\"%s\",\"n\":%u,\"f\":%u,\"seed\":%llu,"
                "\"cycle_ms\":%lld,\"payload\":%zu,\"block_size\":%llu,\"duration_s\":%.0f,",
                args.cfg.mode == runtime::Mode::kZugChain ? "zugchain" : "baseline",
                args.cfg.n, args.cfg.f, static_cast<unsigned long long>(args.cfg.seed),
                static_cast<long long>(args.cfg.bus_cycle.count() / 1'000'000),
                args.cfg.payload_size, static_cast<unsigned long long>(args.cfg.block_size),
                to_seconds(args.cfg.duration));
    std::printf("\"logged_unique\":%llu,\"blocks\":%llu,"
                "\"duplicates_decided\":%llu,\"suspects\":%llu,",
                static_cast<unsigned long long>(r.logged_unique),
                static_cast<unsigned long long>(r.blocks),
                static_cast<unsigned long long>(r.duplicates_decided),
                static_cast<unsigned long long>(r.suspects));
    if (r.latency_ms.empty()) {
        std::printf("\"latency_ms\":null,");
    } else {
        std::printf("\"latency_ms\":{\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f,\"max\":%.3f},",
                    r.latency_ms.mean(), r.latency_ms.percentile(0.5),
                    r.latency_ms.percentile(0.99), r.latency_ms.max());
    }
    std::printf("\"nodes\":[");
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        const auto& n = r.nodes[i];
        std::printf("%s{\"cpu_pct_of_device\":%.2f,\"mem_avg_mb\":%.2f,\"mem_peak_mb\":%.2f,"
                    "\"bytes_sent\":%llu,\"rx_dropped\":%llu,\"view_changes\":%llu,"
                    "\"net_dropped\":%llu,\"net_dropped_loss\":%llu,"
                    "\"net_dropped_partition\":%llu,\"net_dropped_overflow\":%llu,"
                    "\"net_dropped_corrupt\":%llu,\"net_duplicated\":%llu,"
                    "\"net_reordered\":%llu,\"timeout_thrash\":%llu}",
                    i == 0 ? "" : ",", n.cpu_pct_of_device, n.mem_avg_mb, n.mem_peak_mb,
                    static_cast<unsigned long long>(n.bytes_sent),
                    static_cast<unsigned long long>(n.rx_dropped),
                    static_cast<unsigned long long>(n.view_changes),
                    static_cast<unsigned long long>(n.net_dropped),
                    static_cast<unsigned long long>(n.net_dropped_loss),
                    static_cast<unsigned long long>(n.net_dropped_partition),
                    static_cast<unsigned long long>(n.net_dropped_overflow),
                    static_cast<unsigned long long>(n.net_dropped_corrupt),
                    static_cast<unsigned long long>(n.net_duplicated),
                    static_cast<unsigned long long>(n.net_reordered),
                    static_cast<unsigned long long>(n.timeout_thrash));
    }
    std::printf("],\"consistent\":%s", consistent ? "true" : "false");
    std::printf(",\"attack_attempts\":%llu,\"state_transfer_rejected\":%llu",
                static_cast<unsigned long long>(attack_attempts),
                static_cast<unsigned long long>(st_rejected));
    if (auditor != nullptr) {
        std::printf(",\"audit\":%s", auditor->report().json().c_str());
    } else {
        std::printf(",\"audit\":null");
    }
    if (liveness != nullptr) {
        std::printf(",\"liveness\":%s", liveness->report().json().c_str());
    } else {
        std::printf(",\"liveness\":null");
    }
    // Last key on purpose: the virtual-content prefix of the line stays
    // byte-identical across same-seed --prof runs.
    if (profiler != nullptr) {
        std::printf(",\"host\":%s", profiler->snapshot().json().c_str());
    }
    std::printf("}\n");
}

/// The four run modes, as bits for the ignored-flag table.
enum RunMode : unsigned { kConsist = 1, kFleet = 2, kConsistSoak = 4, kFleetSoak = 8 };
constexpr unsigned kSoak = kConsistSoak | kFleetSoak;

/// Flags a mode accepts but never reads. Giving one is not an error (a
/// recipe line may be reused across modes); it draws a warning.
constexpr struct {
    const char* flag;
    unsigned modes;
} kIgnoredFlags[] = {
    {"--dcs", kFleet | kFleetSoak},
    {"--export-at-s", kFleet | kSoak},
    {"--health", kFleet | kSoak},
    {"--timeseries", kFleet | kSoak},
    {"--metrics", kFleet | kSoak},
    {"--audit-liveness", kSoak},
    {"--trace", kSoak},
    {"--gray", kSoak},
    {"--gray-limp", kSoak},
    {"--fail-on-alarm", kSoak},
    {"--fleet-dcs", kConsist | kConsistSoak},
    {"--fleet-chaos", kConsist | kSoak},
    {"--trains-per-cell", kConsist | kSoak},
    {"--rollup", kConsist | kSoak},
    {"--export-period-s", kConsist},
    {"--jobs", kConsist | kSoak},
    {"--journey", kConsist | kFleet},
    {"--soak-segment-s", kConsist | kFleet},
    {"--soak-recipes", kConsist | kFleet},
    {"--soak-day-s", kConsist | kFleet},
};

void warn_ignored_flags(const Args& args) {
    const bool fleet = args.fleet > 0;
    const bool soak = args.soak_hours > 0;
    const RunMode mode = soak ? (fleet ? kFleetSoak : kConsistSoak) : (fleet ? kFleet : kConsist);
    const char* name = soak ? (fleet ? "fleet soak" : "soak") : (fleet ? "fleet" : "single-consist");
    for (const auto& f : kIgnoredFlags) {
        if ((f.modes & mode) != 0 && args.given.count(f.flag) != 0) {
            std::fprintf(stderr, "warning: %s is ignored in %s mode\n", f.flag, name);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    Args args = Args::parse(argc, argv);

    // Host-cost profiler: must be active before the scenario/fleet is
    // built so construction (kSetup) and the sim run loops are attributed.
    prof::Profiler profiler;
    if (args.prof) prof::Profiler::set_active(&profiler);

    warn_ignored_flags(args);
    if (args.soak_hours > 0) return run_soak_mode(args);
    if (args.fleet > 0) return run_fleet(args);

    // Tracing/metrics: one sink shared by all nodes and data centers.
    // Event capture is only needed for the Chrome trace; the metrics dump
    // works off the aggregation histograms alone. The time-series sink
    // reads e2e latency quantiles from the same registry, so it implies
    // registry aggregation too.
    const bool tracing = !args.trace_file.empty() || !args.metrics_file.empty() ||
                         !args.timeseries_file.empty();
    const bool health_on =
        !args.health_file.empty() || !args.timeseries_file.empty() || args.fail_on_alarm;
    trace::MetricsRegistry registry;
    trace::Tracer tracer(/*capture_events=*/!args.trace_file.empty(), &registry);
    if (tracing) {
        for (std::uint32_t i = 0; i < args.cfg.n; ++i) {
            tracer.set_process_label(i, "node-" + std::to_string(i));
        }
        for (std::uint32_t d = 0; d < args.cfg.dc_count; ++d) {
            tracer.set_process_label(kDcEndpointBase + d, "dc-" + std::to_string(d));
        }
    }

    // Health: the flight recorder shares the trace tap with the Tracer, the
    // watchdog monitor is driven by the scenario's virtual-clock sampling.
    health::FlightRecorder recorder;
    health::MonitorConfig mon_cfg;
    mon_cfg.watch_export = args.cfg.dc_count > 0;
    health::HealthMonitor monitor(mon_cfg);
    health::TimeSeries timeseries(tracing ? &registry : nullptr);
    trace::FanOutSink fan;
    if (tracing) fan.add(&tracer);
    if (health_on) {
        fan.add(&recorder);
        monitor.set_flight_recorder(&recorder);
        recorder.hook_logs();
        args.cfg.health_monitor = &monitor;
        if (!args.timeseries_file.empty()) args.cfg.health_timeseries = &timeseries;
    }
    if (fan.sink_count() > 0) args.cfg.trace_sink = &fan;

    // Safety auditor: end-of-run (and periodic) checks of chain-prefix
    // agreement, Alg. 1's no-lost-input guarantee, origin signatures,
    // store hash linkage and proof-covered exports.
    faults::SafetyAuditor auditor;
    if (args.audit) args.cfg.auditor = &auditor;

    // Gray chaos compiles onto the fault plan before the scenario is built
    // (the validator then sees the merged plan).
    if (!args.gray.empty()) {
        fleet::FleetFaults base;
        base.trains[0] = args.cfg;
        args.cfg.merge(compile_gray_profile(args, 1, base).faults.trains.at(0));
    }

    // Liveness auditor: configured before construction (the scenario
    // lowers its own fault schedule into the auditor's dark spans).
    faults::LivenessAuditor liveness;
    if (args.audit_liveness) {
        faults::LivenessConfig lcfg;
        lcfg.n = args.cfg.n;
        lcfg.f = args.cfg.f;
        lcfg.check_exports = args.cfg.dc_count > 0;
        liveness.configure(lcfg);
        args.cfg.liveness = &liveness;
    }

    if (!args.json) {
        std::printf("zugchain_sim: mode=%s n=%u f=%u cycle=%lld ms payload=%zu block=%llu "
                    "duration=%.0f s seed=%llu crypto=%s dcs=%u\n",
                    args.cfg.mode == runtime::Mode::kZugChain ? "zugchain" : "baseline",
                    args.cfg.n, args.cfg.f,
                    static_cast<long long>(args.cfg.bus_cycle.count() / 1'000'000),
                    args.cfg.payload_size, static_cast<unsigned long long>(args.cfg.block_size),
                    to_seconds(args.cfg.duration),
                    static_cast<unsigned long long>(args.cfg.seed),
                    args.cfg.crypto_provider.c_str(), args.cfg.dc_count);
    }

    runtime::Scenario scenario(args.cfg);
    if (health_on) recorder.set_clock(scenario.sim().now_handle());
    if (args.export_at_s > 0 && args.cfg.dc_count > 0) {
        scenario.sim().schedule(millis_f(args.export_at_s * 1000.0),
                                [&scenario] { scenario.data_center(0).start_export(); });
    }
    scenario.run();
    if (args.cfg.dc_count > 0) scenario.run_for(seconds(60));
    if (args.audit) scenario.run_audit();  // final end-of-run pass
    if (args.audit_liveness) liveness.finish(scenario.sim().now());

    const runtime::ScenarioReport r = scenario.report();

    // Attack attempts across all compromised nodes (acceptance gate: an
    // adversary profile that never fires is a misconfigured scenario).
    std::uint64_t attack_attempts = 0;
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
        if (scenario.node(i).adversary() != nullptr) {
            attack_attempts += scenario.node(i).adversary()->stats().attempts();
        }
    }

    // Chain consistency check across live nodes.
    bool consistent = true;
    Height min_head = ~0ull;
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
        if (scenario.node(i).alive()) {
            min_head = std::min(min_head, scenario.node(i).store().head_height());
        }
    }
    const chain::BlockHeader* ref = nullptr;
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
        if (!scenario.node(i).alive()) continue;
        const auto* h = scenario.node(i).store().header(min_head);
        if (ref == nullptr) {
            ref = h;
        } else if (h == nullptr || ref == nullptr || h->hash() != ref->hash()) {
            consistent = false;
        }
    }

    if (health_on) recorder.unhook_logs();

    if (!args.trace_file.empty()) {
        write_text_file(args.trace_file, tracer.chrome_json());
    }
    if (!args.health_file.empty()) {
        // One self-contained report: watchdog verdicts plus the black box.
        std::string health_json = "{\"monitor\":" + monitor.json() +
                                  ",\"flight_recorder\":" + recorder.json() + "}\n";
        write_text_file(args.health_file, health_json);
    }
    if (!args.timeseries_file.empty()) {
        const bool ts_json = args.timeseries_file.size() >= 5 &&
                             args.timeseries_file.compare(args.timeseries_file.size() - 5, 5,
                                                          ".json") == 0;
        write_text_file(args.timeseries_file, ts_json ? timeseries.json() : timeseries.csv());
    }
    if (!args.metrics_file.empty()) {
        // Fold the end-of-run resource numbers into the registry so the
        // dump is self-contained.
        for (std::size_t i = 0; i < r.nodes.size(); ++i) {
            const NodeId id = static_cast<NodeId>(i);
            registry.gauge(id, "mem_peak_kb")
                ->set(static_cast<std::int64_t>(r.nodes[i].mem_peak_mb * 1024.0));
            registry.gauge(id, "rx_dropped")
                ->set(static_cast<std::int64_t>(r.nodes[i].rx_dropped));
        }
        write_text_file(args.metrics_file, registry.json());
    }

    // Exit codes: safety violations dominate everything (a juridical
    // recorder whose evidence is wrong is worse than one that is merely
    // inconsistent or unhealthy); then inconsistency; then an uncleared
    // alarm (with --fail-on-alarm). Alarms that latched and then cleared
    // (crash followed by a successful rejoin) count as recovered.
    int rc = consistent ? 0 : 1;
    if (rc == 0 && args.fail_on_alarm && monitor.any_active()) rc = 3;
    if (args.audit_liveness && !liveness.report().clean()) {
        // Liveness dominates inconsistency and alarms but loses to the
        // safety auditor's 4 below.
        rc = 6;
        if (health_on) {
            std::fprintf(stderr, "liveness violations detected; flight recorder follows\n%s\n",
                         recorder.json().c_str());
        }
    }
    if (args.audit && !auditor.report().clean()) {
        rc = 4;
        // The black box is the evidence trail for a violated run.
        if (health_on) {
            std::fprintf(stderr, "safety violations detected; flight recorder follows\n%s\n",
                         recorder.json().c_str());
        }
    }

    if (args.json) {
        print_json_report(args, r, consistent, args.audit ? &auditor : nullptr,
                          args.audit_liveness ? &liveness : nullptr, attack_attempts,
                          scenario.state_transfer_rejected(),
                          args.prof ? &profiler : nullptr);
        return rc;
    }

    std::printf("\n-- ordering --\n");
    std::printf("records logged (unique) : %llu\n",
                static_cast<unsigned long long>(r.logged_unique));
    std::printf("blocks                  : %llu\n", static_cast<unsigned long long>(r.blocks));
    if (!r.latency_ms.empty()) {
        std::printf("latency mean/p50/p99    : %.2f / %.2f / %.2f ms\n", r.latency_ms.mean(),
                    r.latency_ms.percentile(0.5), r.latency_ms.percentile(0.99));
    }
    std::printf("duplicates decided      : %llu, suspects: %llu\n",
                static_cast<unsigned long long>(r.duplicates_decided),
                static_cast<unsigned long long>(r.suspects));

    std::printf("\n-- per node --\n");
    std::printf("%4s %10s %12s %12s %12s %8s %6s %6s\n", "node", "cpu %dev", "mem avg MB",
                "mem peak MB", "sent MB", "rx-drop", "VCs", "thrash");
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        const auto& n = r.nodes[i];
        std::printf("%4zu %9.1f%% %12.1f %12.1f %12.2f %8llu %6llu %6llu\n", i,
                    n.cpu_pct_of_device, n.mem_avg_mb, n.mem_peak_mb,
                    static_cast<double>(n.bytes_sent) / 1e6,
                    static_cast<unsigned long long>(n.rx_dropped),
                    static_cast<unsigned long long>(n.view_changes),
                    static_cast<unsigned long long>(n.timeout_thrash));
    }

    {
        // Per-cause network drop accounting (gray failures show up here:
        // corruption discards, asymmetric partitions, NIC overflow).
        std::uint64_t loss = 0, part = 0, ovfl = 0, corr = 0, dup = 0, reord = 0;
        for (const auto& n : r.nodes) {
            loss += n.net_dropped_loss;
            part += n.net_dropped_partition;
            ovfl += n.net_dropped_overflow;
            corr += n.net_dropped_corrupt;
            dup += n.net_duplicated;
            reord += n.net_reordered;
        }
        if (loss + part + ovfl + corr + dup + reord > 0) {
            std::printf("\n-- network faults --\n");
            std::printf("dropped loss/part/ovfl/corrupt: %llu / %llu / %llu / %llu\n",
                        static_cast<unsigned long long>(loss),
                        static_cast<unsigned long long>(part),
                        static_cast<unsigned long long>(ovfl),
                        static_cast<unsigned long long>(corr));
            std::printf("duplicated / reordered        : %llu / %llu\n",
                        static_cast<unsigned long long>(dup),
                        static_cast<unsigned long long>(reord));
        }
    }

    if (args.cfg.dc_count > 0) {
        std::printf("\n-- export --\n");
        const auto& dc = scenario.data_center(0).stats();
        std::printf("exports started %llu, completed %llu, failed %llu, retry rounds %llu\n",
                    static_cast<unsigned long long>(dc.exports_started),
                    static_cast<unsigned long long>(dc.exports_completed),
                    static_cast<unsigned long long>(dc.exports_failed),
                    static_cast<unsigned long long>(dc.retries));
        for (const auto& rec : scenario.data_center(0).history()) {
            std::printf("exported blocks %llu..%llu: read %.2f s, verify %.3f s, delete %.2f s "
                        "(%s)\n",
                        static_cast<unsigned long long>(rec.exported_from + 1),
                        static_cast<unsigned long long>(rec.exported_to),
                        to_seconds(rec.read_time), to_seconds(rec.verify_cost),
                        to_seconds(rec.delete_time), rec.success ? "ok" : "failed");
        }
    }

    if (tracing && tracer.registry() != nullptr) {
        const trace::Histogram e2e = registry.merged_histogram("e2e_ns");
        if (e2e.count() > 0) {
            std::printf("\n-- tracing --\n");
            std::printf("events captured         : %zu\n", tracer.event_count());
            std::printf("e2e (receive->decide)   : p50 %.2f / p99 %.2f ms over %llu samples\n",
                        static_cast<double>(e2e.percentile(0.5)) / 1e6,
                        static_cast<double>(e2e.percentile(0.99)) / 1e6,
                        static_cast<unsigned long long>(e2e.count()));
        }
    }

    if (health_on) {
        std::printf("\n-- health --\n");
        std::printf("samples taken           : %llu\n",
                    static_cast<unsigned long long>(monitor.samples_taken()));
        std::printf("alarms                  : %zu\n", monitor.alarms().size());
        for (const auto& alarm : monitor.alarms()) {
            if (alarm.cleared) {
                std::printf("  [%.3f s] node %d %s: %s (cleared at %.3f s)\n",
                            to_seconds(alarm.first_seen),
                            alarm.node == kNoNode ? -1 : static_cast<int>(alarm.node),
                            health::alarm_kind_name(alarm.kind), alarm.detail.c_str(),
                            to_seconds(alarm.cleared_at));
            } else {
                std::printf("  [%.3f s] node %d %s: %s\n", to_seconds(alarm.first_seen),
                            alarm.node == kNoNode ? -1 : static_cast<int>(alarm.node),
                            health::alarm_kind_name(alarm.kind), alarm.detail.c_str());
            }
        }
        std::printf("flight recorder         : %zu events retained, %llu dropped\n",
                    recorder.size(), static_cast<unsigned long long>(recorder.dropped()));
    }

    if (!args.cfg.byzantine.empty()) {
        std::printf("\n-- adversary --\n");
        for (std::size_t i = 0; i < scenario.node_count(); ++i) {
            const faults::Adversary* adv = scenario.node(i).adversary();
            if (adv == nullptr) continue;
            const faults::AdversaryStats& st = adv->stats();
            std::printf("node %zu: %llu attack attempts (equivocations %llu, tampered %llu, "
                        "replays %llu, forged blocks %llu, poisonings %llu)\n",
                        i, static_cast<unsigned long long>(st.attempts()),
                        static_cast<unsigned long long>(st.equivocations),
                        static_cast<unsigned long long>(st.digests_flipped + st.sigs_stripped),
                        static_cast<unsigned long long>(st.replays),
                        static_cast<unsigned long long>(st.forged_blocks),
                        static_cast<unsigned long long>(st.st_poisonings));
        }
        std::printf("state-transfer ranges rejected: %llu\n",
                    static_cast<unsigned long long>(scenario.state_transfer_rejected()));
    }

    if (args.audit) {
        const faults::AuditReport& audit = auditor.report();
        std::printf("\n-- safety audit --\n");
        std::printf("audit passes            : %llu (%llu checks)\n",
                    static_cast<unsigned long long>(audit.audits),
                    static_cast<unsigned long long>(audit.checks));
        std::printf("violations              : %zu\n", audit.violations.size());
        for (const faults::Violation& v : audit.violations) {
            std::printf("  %s at %s%u height %llu: %s\n", faults::violation_name(v.kind),
                        v.where >= kDcEndpointBase ? "dc-" : "node-",
                        v.where >= kDcEndpointBase ? v.where - kDcEndpointBase : v.where,
                        static_cast<unsigned long long>(v.height), v.detail.c_str());
        }
    }

    if (args.audit_liveness) {
        const faults::LivenessReport& live = liveness.report();
        std::printf("\n-- liveness audit --\n");
        print_liveness(live);
    }

    if (args.prof) profiler.snapshot().print_table(stdout);

    std::printf("\nchains consistent across live nodes: %s\n", consistent ? "yes" : "NO");
    return rc;
}
