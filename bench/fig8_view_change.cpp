// Reproduces Fig. 8: request latency across a view change caused by a
// faulty primary at relative time 0.
//
// Paper setup and reference values: ZugChain uses soft+hard timeouts of
// 250 ms + 250 ms, the baseline a 500 ms view-change timeout; the view
// change itself takes ~530 ms (ZugChain) vs ~507 ms (baseline); afterwards
// ZugChain restabilizes to its ~14 ms steady state within ~210 ms while
// the baseline needs ~824 ms to get back to ~25 ms.
#include <algorithm>
#include <cstring>

#include "bench_util.hpp"
#include "fleet/chaos.hpp"

using namespace zc;
using namespace zc::bench;

namespace {

struct ViewChangeTrace {
    double steady_before_ms = 0;
    double steady_after_ms = 0;
    double gap_ms = 0;        // fault -> first post-fault logged request
    double stabilize_ms = 0;  // fault -> latency back within 1.5x steady
    std::vector<metrics::SeriesPoint> series;
    trace::MetricsRegistry phases;  ///< per-phase histograms (all nodes)
    std::vector<health::Alarm> alarms;
    std::uint64_t health_samples = 0;
    std::size_t flight_events = 0;
    std::size_t flight_view_changes = 0;  ///< view-change events in the dump
    std::string dump_on_alarm;            ///< black box, captured as the first alarm fired
};

ViewChangeTrace run_trace(Mode mode, bool quick) {
    ScenarioConfig cfg = paper_config();
    cfg.mode = mode;
    cfg.duration = quick ? seconds(20) : seconds(40);
    const Duration fault_at = cfg.warmup + (quick ? seconds(6) : seconds(15));
    cfg.crash_schedule = {{fault_at, 0}};

    // Aggregation-only tracer: per-phase latency histograms without the
    // memory cost of full event capture.
    trace::MetricsRegistry registry;
    trace::Tracer tracer(/*capture_events=*/false, &registry);

    // The health tap rides the same instrumentation: the flight recorder
    // shares the trace fan-out, the watchdog monitor samples on the
    // virtual clock, and the first alarm snapshots the black box the
    // moment it fires (dump-on-alarm).
    ViewChangeTrace trace;
    health::FlightRecorder recorder;
    health::HealthMonitor monitor;
    monitor.set_flight_recorder(&recorder);
    monitor.set_alarm_hook([&](const health::Alarm&) {
        if (trace.dump_on_alarm.empty()) trace.dump_on_alarm = recorder.json();
    });
    trace::FanOutSink fan;
    fan.add(&tracer);
    fan.add(&recorder);
    cfg.trace_sink = &fan;
    cfg.health_monitor = &monitor;

    Scenario s(cfg);
    s.run();

    trace.alarms = monitor.alarms();
    trace.health_samples = monitor.samples_taken();
    trace.flight_events = recorder.size();
    for (const auto& e : recorder.events()) {
        if (e.kind == health::FlightEventKind::kPhase &&
            (e.phase == trace::Phase::kViewChangeStart || e.phase == trace::Phase::kNewView)) {
            ++trace.flight_view_changes;
        }
    }

    // Observe from node 1, the new primary.
    const auto& points = s.node(1).latency_series().points();
    const double t0 = to_seconds(fault_at);

    metrics::Summary before, after_all;
    for (const auto& p : points) {
        if (p.t_seconds < t0) before.add(p.value);
    }
    trace.steady_before_ms = before.empty() ? 0 : before.mean();

    // Gap: the longest interval without any logged request around the
    // fault (timeouts + view change + re-proposal).
    double prev_t = t0;
    double max_gap = 0;
    const double threshold = trace.steady_before_ms * 1.5 + 2.0;
    double stabilized_at = t0;
    for (const auto& p : points) {
        if (p.t_seconds < t0) continue;
        if (p.t_seconds < t0 + 5.0) max_gap = std::max(max_gap, p.t_seconds - prev_t);
        prev_t = p.t_seconds;
        // Stabilized = the time after which latency never exceeds the
        // steady threshold again.
        if (p.value > threshold) stabilized_at = p.t_seconds;
        trace.series.push_back({p.t_seconds - t0, p.value});
    }
    for (const auto& p : points) {
        if (p.t_seconds > stabilized_at) after_all.add(p.value);
    }
    trace.gap_ms = max_gap * 1000.0;
    trace.stabilize_ms = (stabilized_at - t0) * 1000.0;
    trace.steady_after_ms = after_all.empty() ? 0 : after_all.mean();
    trace.phases = std::move(registry);  // tracer is done emitting here
    return trace;
}

void print_trace(const char* name, const ViewChangeTrace& t) {
    std::printf("\n--- %s ---\n", name);
    std::printf("steady latency before fault : %8.2f ms\n", t.steady_before_ms);
    std::printf("longest logging gap         : %8.1f ms  (timeouts + view change)\n", t.gap_ms);
    std::printf("fault -> latency stabilized : %8.1f ms\n", t.stabilize_ms);
    std::printf("steady latency after fault  : %8.2f ms  (observer is the new primary)\n",
                t.steady_after_ms);
    std::printf("latency timeline around the fault (100 ms buckets, mean ms):\n");
    std::printf("%12s %12s\n", "t rel (s)", "latency ms");
    double bucket_start = -0.5;
    while (bucket_start < 2.5) {
        metrics::Summary bucket;
        for (const auto& p : t.series) {
            if (p.t_seconds >= bucket_start && p.t_seconds < bucket_start + 0.1) {
                bucket.add(p.value);
            }
        }
        // also include pre-fault points (negative relative times come from
        // the series only containing post-fault data; print blank if none)
        if (!bucket.empty()) {
            std::printf("%12.1f %12.2f\n", bucket_start, bucket.mean());
        }
        bucket_start += 0.1;
    }
    std::printf("per-phase latency breakdown (all nodes, whole run):\n");
    print_phase_breakdown(t.phases, "  ");

    std::printf("watchdog verdict (monitor sampled every %u bus cycles):\n",
                health::kSampleEveryCycles);
    std::printf("  health: %zu alarm(s) over %llu samples; flight recorder retained %zu "
                "events (%zu view-change)\n",
                t.alarms.size(), static_cast<unsigned long long>(t.health_samples),
                t.flight_events, t.flight_view_changes);
    for (const auto& alarm : t.alarms) {
        std::printf("    [%.3f s] node %d %s: %s\n", to_seconds(alarm.first_seen),
                    alarm.node == kNoNode ? -1 : static_cast<int>(alarm.node),
                    health::alarm_kind_name(alarm.kind), alarm.detail.c_str());
    }
    if (!t.dump_on_alarm.empty()) {
        std::printf("  black box dumped on first alarm: %zu bytes of JSON\n",
                    t.dump_on_alarm.size());
    }
}

// Gray companion to the crash figure: the primary does not die, it
// limps (CPU 12x slower — DESIGN.md §13). Fixed 250 ms timers sit below
// the degraded round-trip, fire while progress is still being made
// (timeout_thrash), and rotate the view away; adaptive RTT-tracking
// timers ride the slowdown out with zero view changes and strictly more
// ordered requests on the same seed.
struct LimpingResult {
    RunMeasurement m;
    std::uint64_t view_changes = 0;
    std::uint64_t timeout_thrash = 0;
};

LimpingResult run_limping(bool adaptive, bool quick) {
    (void)quick;  // the limp window needs the full horizon to bite
    ScenarioConfig cfg = paper_config();
    cfg.mode = Mode::kZugChain;
    cfg.duration = seconds(40);
    cfg.adaptive_timeouts.enabled = adaptive;

    fleet::GrayChaosOptions gray;
    gray.n = cfg.n;
    gray.f = cfg.f;
    gray.trains = 1;
    gray.seed = cfg.seed;
    gray.warmup = cfg.warmup;
    gray.horizon = cfg.warmup + cfg.duration;
    gray.limping = 1;  // the view-0 primary limps
    gray.limp_factor = 12.0;  // past the fixed 250 ms budget on this config
    gray.flapping = 0;
    gray.creeps = 0;
    cfg.merge(fleet::compile_gray(gray).faults.trains.at(0));

    Scenario s(cfg);
    s.run();
    ScenarioReport report = s.report();

    LimpingResult r;
    r.m = measure(report);
    for (const auto& node : report.nodes) {
        r.view_changes += node.view_changes;
        r.timeout_thrash += node.timeout_thrash;
    }
    return r;
}

void print_limping(const char* name, const LimpingResult& r) {
    std::printf("%-28s %8llu %8.2f %8.2f %6llu %7llu\n", name,
                static_cast<unsigned long long>(r.m.logged), r.m.latency_mean_ms,
                r.m.latency_p99_ms, static_cast<unsigned long long>(r.view_changes),
                static_cast<unsigned long long>(r.timeout_thrash));
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    HostProfiler host;

    print_header("Fig. 8: request latency during a view change (primary fails at t=0)");
    std::printf("timeouts: ZugChain soft+hard 250 ms + 250 ms; baseline 500 ms\n");

    const ViewChangeTrace zc_t = run_trace(Mode::kZugChain, quick);
    const ViewChangeTrace bl_t = run_trace(Mode::kBaseline, quick);

    print_trace("ZugChain", zc_t);
    print_trace("Baseline", bl_t);

    std::printf("\npaper reference: view change ~530 ms (ZC) / ~507 ms (BL); back to\n"
                "steady ~14 ms within ~210 ms (ZC) vs ~25 ms within ~824 ms (BL).\n");

    // Gray extension: same figure axis, but the primary limps instead of
    // crashing — the case the paper's fixed timers cannot distinguish
    // from a dead one.
    const LimpingResult limp_fixed = run_limping(/*adaptive=*/false, quick);
    const LimpingResult limp_adaptive = run_limping(/*adaptive=*/true, quick);
    std::printf("\n--- limping primary (CPU 12x slower; not in the paper) ---\n");
    std::printf("%-28s %8s %8s %8s %6s %7s\n", "timer schedule", "logged", "mean ms",
                "p99 ms", "vc", "thrash");
    print_limping("fixed 250 ms (paper)", limp_fixed);
    print_limping("adaptive (RFC 6298)", limp_adaptive);

    // The view-change shape as a machine-readable row set: latency fields
    // stay zero (not measured here); the figure's numbers ride in extras.
    const auto row = [](const char* name, const ViewChangeTrace& t) {
        BenchRow r;
        r.config = name;
        r.extra = {{"steady_before_ms", t.steady_before_ms},
                   {"gap_ms", t.gap_ms},
                   {"stabilize_ms", t.stabilize_ms},
                   {"steady_after_ms", t.steady_after_ms}};
        return r;
    };
    const auto limp_row = [](const char* name, const LimpingResult& r) {
        BenchRow b;
        b.config = name;
        b.m = r.m;
        b.extra = {{"view_changes", static_cast<double>(r.view_changes)},
                   {"timeout_thrash", static_cast<double>(r.timeout_thrash)}};
        return b;
    };
    write_bench_json("fig8",
                     {row("zugchain", zc_t), row("baseline", bl_t),
                      limp_row("limping-primary fixed", limp_fixed),
                      limp_row("limping-primary adaptive", limp_adaptive)},
                     quick);

    if (zc_t.alarms.empty()) {
        std::printf("\nWARNING: primary crash did not trip the stalled-view watchdog\n");
        return 1;
    }
    if (limp_adaptive.m.logged <= limp_fixed.m.logged ||
        limp_adaptive.timeout_thrash >= std::max<std::uint64_t>(limp_fixed.timeout_thrash, 1)) {
        std::printf("\nWARNING: adaptive timers did not beat fixed under the limping primary\n");
        return 1;
    }
    return 0;
}
