// Shared helpers for the paper-reproduction benchmark binaries: run a
// Scenario for both systems, print paper-style rows next to the paper's
// reference values, and expose simple table formatting.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "health/flight_recorder.hpp"
#include "health/monitor.hpp"
#include "prof/prof.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

namespace zc::bench {

using runtime::Mode;
using runtime::Scenario;
using runtime::ScenarioConfig;
using runtime::ScenarioReport;

/// Condensed per-run measurements used by most tables.
struct RunMeasurement {
    double latency_mean_ms = 0.0;
    double latency_p99_ms = 0.0;
    double net_util_pct = 0.0;       ///< mean egress utilization of the 100 Mbit/s links
    double cpu_pct_total = 0.0;      ///< % of the device's 4-core budget (node 0)
    double cpu_pct_400 = 0.0;        ///< paper's axis: 400 % = all cores busy
    double mem_avg_mb = 0.0;
    double mem_peak_mb = 0.0;
    std::uint64_t total_bytes = 0;
    std::uint64_t logged = 0;
    std::uint64_t blocks = 0;
    std::uint64_t rx_dropped = 0;
    std::uint64_t rate_limited = 0;
    // Per-cause network drop accounting, summed over all nodes (the gray
    // axis: which mechanism ate the messages — DESIGN.md §13).
    std::uint64_t net_dropped = 0;
    std::uint64_t net_dropped_loss = 0;
    std::uint64_t net_dropped_partition = 0;
    std::uint64_t net_dropped_overflow = 0;
    std::uint64_t net_dropped_corrupt = 0;
};

inline RunMeasurement measure(ScenarioReport& report) {
    RunMeasurement m;
    if (!report.latency_ms.empty()) {
        m.latency_mean_ms = report.latency_ms.mean();
        m.latency_p99_ms = report.latency_ms.percentile(0.99);
    }
    m.net_util_pct = report.mean_egress_utilization * 100.0;
    m.cpu_pct_total = report.nodes[0].cpu_pct_of_device;
    m.cpu_pct_400 = report.nodes[0].cpu_cores * 100.0;
    m.mem_avg_mb = report.nodes[0].mem_avg_mb;
    m.mem_peak_mb = report.nodes[0].mem_peak_mb;
    m.total_bytes = report.total_bytes;
    m.logged = report.logged_unique;
    m.blocks = report.blocks;
    m.rate_limited = report.rate_limited;
    for (const auto& node : report.nodes) {
        m.rx_dropped += node.rx_dropped;
        m.net_dropped += node.net_dropped;
        m.net_dropped_loss += node.net_dropped_loss;
        m.net_dropped_partition += node.net_dropped_partition;
        m.net_dropped_overflow += node.net_dropped_overflow;
        m.net_dropped_corrupt += node.net_dropped_corrupt;
    }
    return m;
}

/// Runs one configuration and returns the condensed measurement.
inline RunMeasurement run_once(ScenarioConfig cfg) {
    Scenario scenario(std::move(cfg));
    scenario.run();
    ScenarioReport report = scenario.report();
    return measure(report);
}

/// Averages `runs` seeded repetitions (the paper reports averages over
/// five runs).
inline RunMeasurement run_averaged(ScenarioConfig cfg, int runs = 3) {
    RunMeasurement acc;
    for (int i = 0; i < runs; ++i) {
        cfg.seed = cfg.seed * 7919 + static_cast<std::uint64_t>(i) + 1;
        const RunMeasurement m = run_once(cfg);
        acc.latency_mean_ms += m.latency_mean_ms / runs;
        acc.latency_p99_ms += m.latency_p99_ms / runs;
        acc.net_util_pct += m.net_util_pct / runs;
        acc.cpu_pct_total += m.cpu_pct_total / runs;
        acc.cpu_pct_400 += m.cpu_pct_400 / runs;
        acc.mem_avg_mb += m.mem_avg_mb / runs;
        acc.mem_peak_mb += m.mem_peak_mb / runs;
        acc.total_bytes += m.total_bytes / static_cast<std::uint64_t>(runs);
        acc.logged += m.logged / static_cast<std::uint64_t>(runs);
        acc.blocks += m.blocks / static_cast<std::uint64_t>(runs);
        acc.rx_dropped += m.rx_dropped;
        acc.rate_limited += m.rate_limited / static_cast<std::uint64_t>(runs);
        acc.net_dropped += m.net_dropped;
        acc.net_dropped_loss += m.net_dropped_loss;
        acc.net_dropped_partition += m.net_dropped_partition;
        acc.net_dropped_overflow += m.net_dropped_overflow;
        acc.net_dropped_corrupt += m.net_dropped_corrupt;
    }
    return acc;
}

/// Per-phase latency breakdown rows from a tracing registry, merged over
/// all nodes (Fig. 6/8 companion tables: where does the end-to-end
/// latency go — layer wait, ordering, persistence).
inline void print_phase_breakdown(const trace::MetricsRegistry& registry,
                                  const char* indent = "") {
    const struct {
        const char* metric;
        const char* label;
    } rows[] = {
        {"layer_wait_ns", "layer wait (receive -> propose)"},
        {"ordering_ns", "ordering   (propose -> decide)"},
        {"persist_ns", "persist    (decide -> block)"},
        {"e2e_ns", "end-to-end (receive -> decide)"},
        {"view_change_ns", "view change (start -> new view)"},
    };
    std::printf("%s%-33s %9s %10s %10s %10s\n", indent, "phase", "count", "p50 ms", "p99 ms",
                "max ms");
    for (const auto& row : rows) {
        const trace::Histogram h = registry.merged_histogram(row.metric);
        if (h.count() == 0) continue;
        std::printf("%s%-33s %9llu %10.3f %10.3f %10.3f\n", indent, row.label,
                    static_cast<unsigned long long>(h.count()),
                    static_cast<double>(h.percentile(0.5)) / 1e6,
                    static_cast<double>(h.percentile(0.99)) / 1e6,
                    static_cast<double>(h.max()) / 1e6);
    }
}

/// One labelled measurement row for the machine-readable dump.
struct BenchRow {
    std::string config;  ///< e.g. "zugchain cycle=64ms"
    RunMeasurement m;
    /// Bench-specific numeric columns appended after the common ones
    /// (e.g. table2's read/delete/verify seconds).
    std::vector<std::pair<std::string, double>> extra;
};

/// Writes `BENCH_<name>.json` into the working directory so CI can diff
/// benchmark results across commits. The virtual-metric rows are
/// deterministic: fixed precision, row order as given. Schema:
///   {"bench":"fig6","quick":false,"rows":[{"config":"...",
///    "latency_mean_ms":..,"latency_p99_ms":..,"net_util_pct":..,
///    "cpu_pct_total":..,"mem_avg_mb":..,"mem_peak_mb":..,
///    "total_bytes":..,"logged":..,"blocks":..,"rx_dropped":..,
///    "rate_limited":..,"net_dropped":..,"net_dropped_loss":..,
///    "net_dropped_partition":..,"net_dropped_overflow":..,
///    "net_dropped_corrupt":..},...],"host":{...}}
/// `quick` records whether the bench ran its trimmed CI row set, so
/// zc_benchdiff only compares counts against results of the same depth.
/// The trailing `host` block (sim_rate, per-subsystem self seconds, peak
/// RSS; present when a prof::Profiler is active) is the one
/// machine-varying section — tooling compares it with loose tolerances
/// or not at all.
inline void write_bench_json(const std::string& name, const std::vector<BenchRow>& rows,
                             bool quick = false) {
    std::string out = "{\"bench\":\"" + name + "\",\"quick\":";
    out += quick ? "true" : "false";
    out += ",\"rows\":[";
    char buf[512];
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunMeasurement& m = rows[i].m;
        std::snprintf(buf, sizeof buf,
                      "%s{\"config\":\"%s\",\"latency_mean_ms\":%.3f,\"latency_p99_ms\":%.3f,"
                      "\"net_util_pct\":%.4f,\"cpu_pct_total\":%.2f,\"mem_avg_mb\":%.2f,"
                      "\"mem_peak_mb\":%.2f,\"total_bytes\":%" PRIu64 ",\"logged\":%" PRIu64
                      ",\"blocks\":%" PRIu64 ",\"rx_dropped\":%" PRIu64
                      ",\"rate_limited\":%" PRIu64 ",\"net_dropped\":%" PRIu64
                      ",\"net_dropped_loss\":%" PRIu64 ",\"net_dropped_partition\":%" PRIu64
                      ",\"net_dropped_overflow\":%" PRIu64 ",\"net_dropped_corrupt\":%" PRIu64
                      "}",
                      i == 0 ? "" : ",", rows[i].config.c_str(), m.latency_mean_ms,
                      m.latency_p99_ms, m.net_util_pct, m.cpu_pct_total, m.mem_avg_mb,
                      m.mem_peak_mb, m.total_bytes, m.logged, m.blocks, m.rx_dropped,
                      m.rate_limited, m.net_dropped, m.net_dropped_loss,
                      m.net_dropped_partition, m.net_dropped_overflow, m.net_dropped_corrupt);
        out += buf;
        for (const auto& [key, value] : rows[i].extra) {
            out.pop_back();  // reopen the row object
            std::snprintf(buf, sizeof buf, ",\"%s\":%.4f}", key.c_str(), value);
            out += buf;
        }
    }
    out += "]";
    if (const prof::Profiler* profiler = prof::Profiler::active(); profiler != nullptr) {
        out += ",\"host\":" + profiler->snapshot().json();
    }
    out += "}\n";
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows.size());
}

/// Prints the watchdog verdict of a health-monitored run: every alarm with
/// its firing time, plus how much the flight recorder retained.
inline void print_health_summary(const health::HealthMonitor& monitor,
                                 const health::FlightRecorder& recorder,
                                 const char* indent = "  ") {
    std::printf("%shealth: %zu alarm(s) over %llu samples; flight recorder %zu events "
                "(%llu dropped)\n",
                indent, monitor.alarms().size(),
                static_cast<unsigned long long>(monitor.samples_taken()), recorder.size(),
                static_cast<unsigned long long>(recorder.dropped()));
    for (const auto& alarm : monitor.alarms()) {
        std::printf("%s  [%.3f s] node %d %s: %s\n", indent, to_seconds(alarm.first_seen),
                    alarm.node == kNoNode ? -1 : static_cast<int>(alarm.node),
                    health::alarm_kind_name(alarm.kind), alarm.detail.c_str());
    }
}

inline void print_header(const std::string& title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

inline void print_footnote(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Activates a host-cost profiler for the lifetime of a bench main(), so
/// every write_bench_json() call embeds a `host` block (sim_rate,
/// per-subsystem seconds, peak RSS). Declared first in main(): the whole
/// bench, including scenario construction, is then attributed.
class HostProfiler {
public:
    HostProfiler() { prof::Profiler::set_active(&profiler_); }
    ~HostProfiler() { prof::Profiler::set_active(nullptr); }
    HostProfiler(const HostProfiler&) = delete;
    HostProfiler& operator=(const HostProfiler&) = delete;

    const prof::Profiler& profiler() const noexcept { return profiler_; }

private:
    prof::Profiler profiler_;
};

/// Default experiment base: the paper's testbed parameters.
inline ScenarioConfig paper_config() {
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.bus_cycle = milliseconds(64);
    cfg.payload_size = 1024;
    cfg.block_size = 10;
    cfg.warmup = seconds(3);
    cfg.duration = seconds(45);
    cfg.default_tap_faults = {};
    return cfg;
}

}  // namespace zc::bench
