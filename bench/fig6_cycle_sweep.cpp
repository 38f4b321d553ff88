// Reproduces Fig. 6 (left): network utilization and request latency of
// ZugChain vs the PBFT baseline for bus cycles of 32..256 ms at 1 kB
// payloads. Paper reference shapes: baseline network ~4x ZugChain
// (each request ordered four times); baseline latency 1.1-4.9x, exploding
// (~828x) at the 32 ms cycle where it cannot keep up and drops requests.
//
// Emits BENCH_fig6.json (machine-readable rows) for CI diffing; pass
// --quick to run a single-seed, shortened sweep (CI smoke).
#include <cstring>

#include "bench_util.hpp"

using namespace zc;
using namespace zc::bench;

int main(int argc, char** argv) {
    bool quick = false;
    std::uint32_t batch_size = 1;
    std::int64_t batch_linger_us = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--batch-size") == 0 && i + 1 < argc) {
            batch_size = static_cast<std::uint32_t>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--batch-linger-us") == 0 && i + 1 < argc) {
            batch_linger_us = std::atoll(argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--batch-size N] [--batch-linger-us US]\n",
                         argv[0]);
            return 2;
        }
    }
    // Batching needs a linger window to accumulate; default to 2 ms when
    // only --batch-size was given.
    if (batch_size > 1 && batch_linger_us == 0) batch_linger_us = 2000;
    HostProfiler host;
    const Duration batch_linger = microseconds(batch_linger_us);

    print_header(
        "Fig. 6 (left): network utilization & latency vs bus cycle (payload 1 kB)");
    std::printf("%8s | %12s %12s %9s | %12s %12s %9s %8s | %8s %8s\n", "cycle", "ZC lat ms",
                "BL lat ms", "lat x", "ZC net %", "BL net %", "net x", "BL drop", "paper", "");
    std::printf("%8s | %12s %12s %9s | %12s %12s %9s %8s | %8s %8s\n", "", "", "", "", "", "",
                "", "", "lat x", "net x");

    const struct {
        int cycle_ms;
        const char* paper_lat;
        const char* paper_net;
    } rows[] = {
        {32, "~828", "~4"},
        {64, "~1.8", "~4"},
        {128, "~1.4", "~4"},
        {256, "~1.1", "~4"},
    };

    std::vector<BenchRow> bench_rows;
    for (const auto& row : rows) {
        ScenarioConfig cfg = paper_config();
        cfg.bus_cycle = milliseconds(row.cycle_ms);
        if (quick) cfg.duration = seconds(10);

        cfg.mode = Mode::kZugChain;
        cfg.batch_max_requests = batch_size;
        cfg.batch_linger = batch_linger;
        const RunMeasurement zc_m = quick ? run_once(cfg) : run_averaged(cfg);

        cfg.mode = Mode::kBaseline;
        cfg.batch_max_requests = 1;
        cfg.batch_linger = Duration::zero();
        const RunMeasurement bl_m = quick ? run_once(cfg) : run_averaged(cfg);

        const double lat_x = zc_m.latency_mean_ms > 0 ? bl_m.latency_mean_ms / zc_m.latency_mean_ms : 0;
        const double net_x = zc_m.net_util_pct > 0 ? bl_m.net_util_pct / zc_m.net_util_pct : 0;
        std::printf("%6d ms | %12.2f %12.2f %8.1fx | %11.3f%% %11.3f%% %8.1fx %8llu | %8s %8s\n",
                    row.cycle_ms, zc_m.latency_mean_ms, bl_m.latency_mean_ms, lat_x,
                    zc_m.net_util_pct, bl_m.net_util_pct, net_x,
                    static_cast<unsigned long long>(bl_m.rx_dropped), row.paper_lat,
                    row.paper_net);

        bench_rows.push_back({"zugchain cycle=" + std::to_string(row.cycle_ms) + "ms", zc_m, {}});
        bench_rows.push_back({"baseline cycle=" + std::to_string(row.cycle_ms) + "ms", bl_m, {}});
    }

    print_footnote(
        "\nJRU requirement check (paper SV-B): ZugChain orders within ~14 ms at the\n"
        "64 ms cycle and must stay below the 500 ms recording deadline.");
    bool clean_alarmed = false;
    {
        // This extra run carries an aggregation-only tracer so the table
        // below can break the end-to-end latency into pipeline phases;
        // the sweep above stays untraced (null sink) and its wall time is
        // the regression reference. The health monitor rides along to
        // prove the watchdogs stay silent on a fault-free run.
        ScenarioConfig cfg = paper_config();
        if (quick) cfg.duration = seconds(10);
        cfg.batch_max_requests = batch_size;
        cfg.batch_linger = batch_linger;
        trace::MetricsRegistry registry;
        trace::Tracer tracer(/*capture_events=*/false, &registry);
        health::FlightRecorder recorder;
        health::HealthMonitor monitor;
        monitor.set_flight_recorder(&recorder);
        trace::FanOutSink fan;
        fan.add(&tracer);
        fan.add(&recorder);
        cfg.trace_sink = &fan;
        cfg.health_monitor = &monitor;
        Scenario scenario(std::move(cfg));
        scenario.run();
        ScenarioReport report = scenario.report();
        const RunMeasurement m = measure(report);
        std::printf("  measured: mean %.2f ms, p99 %.2f ms (budget 500 ms)  [paper: ~14 ms]\n",
                    m.latency_mean_ms, m.latency_p99_ms);
        std::printf("\n  per-phase breakdown at the 64 ms cycle (all nodes):\n");
        print_phase_breakdown(registry, "  ");
        std::printf("\n");
        print_health_summary(monitor, recorder);
        clean_alarmed = monitor.alarmed();
    }

    if (batch_size > 1) {
        // Saturation pair: at a bus cycle short enough that unbatched
        // ordering saturates the single protocol core, batching amortizes
        // the per-instance signature work and must win on ordered
        // requests/s. The overload in the unbatched leg is intentional, so
        // neither leg runs the health watchdogs.
        constexpr int kSatCycleMs = 2;
        print_header("Batch ordering at a saturating cycle (ZugChain mode)");
        std::printf("%-28s | %10s %12s %12s %10s %10s\n", "config", "logged", "req/s",
                    "lat mean ms", "rx drop", "batch p50");

        const auto run_sat = [&](std::uint32_t batch, Duration linger, double& reqs_per_s,
                                 double& occupancy_p50) {
            ScenarioConfig cfg = paper_config();
            cfg.mode = Mode::kZugChain;
            cfg.bus_cycle = milliseconds(kSatCycleMs);
            cfg.duration = quick ? seconds(10) : seconds(30);
            cfg.batch_max_requests = batch;
            cfg.batch_linger = linger;
            trace::MetricsRegistry registry;
            trace::Tracer tracer(/*capture_events=*/false, &registry);
            cfg.trace_sink = &tracer;
            const double duration_s = to_seconds(cfg.duration);
            Scenario scenario(std::move(cfg));
            scenario.run();
            ScenarioReport report = scenario.report();
            const RunMeasurement m = measure(report);
            reqs_per_s = static_cast<double>(m.logged) / duration_s;
            const trace::Histogram occupancy = registry.merged_histogram("batch_requests");
            occupancy_p50 = occupancy.empty() ? 1.0 : occupancy.percentile(0.5);
            return m;
        };

        double unbatched_rate = 0, batched_rate = 0, p50_un = 0, p50_ba = 0;
        const RunMeasurement un = run_sat(1, Duration::zero(), unbatched_rate, p50_un);
        const RunMeasurement ba = run_sat(batch_size, batch_linger, batched_rate, p50_ba);

        const auto sat_row = [&](const char* label, const RunMeasurement& m, double rate,
                                 double p50) {
            std::printf("%-28s | %10llu %12.1f %12.2f %10llu %10.1f\n", label,
                        static_cast<unsigned long long>(m.logged), rate, m.latency_mean_ms,
                        static_cast<unsigned long long>(m.rx_dropped), p50);
        };
        sat_row("batch=1", un, unbatched_rate, p50_un);
        const std::string ba_label =
            "batch=" + std::to_string(batch_size) + " linger=" + std::to_string(batch_linger_us) + "us";
        sat_row(ba_label.c_str(), ba, batched_rate, p50_ba);
        std::printf("  ordered-requests/s speedup: %.2fx\n",
                    unbatched_rate > 0 ? batched_rate / unbatched_rate : 0.0);
        // Per-cause drop attribution (the gray axis). Silent when the
        // in-network counters are all zero: saturation sheds load at the
        // node rx queue (rx_dropped), not inside the network fabric.
        for (const auto& [label, m] : {std::pair<const char*, const RunMeasurement&>{
                                           "batch=1", un},
                                       {ba_label.c_str(), ba}}) {
            if (m.net_dropped == 0) continue;
            std::printf("  net drops (%s): %llu total = loss %llu + partition %llu + "
                        "overflow %llu + corrupt %llu\n",
                        label, static_cast<unsigned long long>(m.net_dropped),
                        static_cast<unsigned long long>(m.net_dropped_loss),
                        static_cast<unsigned long long>(m.net_dropped_partition),
                        static_cast<unsigned long long>(m.net_dropped_overflow),
                        static_cast<unsigned long long>(m.net_dropped_corrupt));
        }

        BenchRow row_un{"zugchain cycle=" + std::to_string(kSatCycleMs) + "ms batch=1", un, {}};
        row_un.extra = {{"batch", 1.0}, {"linger_us", 0.0}, {"reqs_per_s", unbatched_rate},
                        {"batch_p50", p50_un}};
        BenchRow row_ba{"zugchain cycle=" + std::to_string(kSatCycleMs) + "ms batch=" +
                            std::to_string(batch_size),
                        ba, {}};
        row_ba.extra = {{"batch", static_cast<double>(batch_size)},
                        {"linger_us", static_cast<double>(batch_linger_us)},
                        {"reqs_per_s", batched_rate},
                        {"batch_p50", p50_ba}};
        bench_rows.push_back(std::move(row_un));
        bench_rows.push_back(std::move(row_ba));
    }

    write_bench_json("fig6", bench_rows, quick);

    if (clean_alarmed) {
        std::printf("WARNING: health watchdog alarmed on a fault-free run\n");
        return 1;
    }
    return 0;
}
