#include "journey/soak.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "faults/auditor.hpp"
#include "fleet/fleet.hpp"
#include "health/monitor.hpp"

namespace zc::journey {

namespace {

// Bounded-memory plateau check. The reference for each metric is its
// maximum over kReferenceSegments boundaries following kGraceSegments;
// later boundaries may not exceed ref * (1 + slack) + floor.
constexpr std::uint32_t kGraceSegments = 2;
constexpr std::uint32_t kReferenceSegments = 3;
constexpr double kMemSlack = 0.5;
constexpr std::int64_t kMemFloorBytes = 8ll << 20;
constexpr double kEventSlack = 1.0;
constexpr std::int64_t kEventFloor = 1024;

/// Health and rollup sampling cadence, widened from the short-run
/// default so a multi-day soak does not drown in samples.
constexpr Duration kFleetSamplePeriod = seconds(4);

/// Everything sampled at one segment boundary.
struct BoundaryProbe {
    std::uint64_t telegrams = 0;  ///< fleet-wide (sum of per-train max)
    std::uint64_t logged = 0;
    std::uint64_t blocks = 0;
    std::int64_t node_total = 0;  ///< max node logical memory, bytes
    std::map<std::string, std::int64_t> gauges;  ///< max per gauge name
    std::uint64_t pending = 0;
    std::uint64_t dc_depth = 0;
};

struct PlateauState {
    std::int64_t ref = 0;
    bool violated = false;
};

std::string fmt_window(Duration d) {
    const auto total = static_cast<std::int64_t>(to_seconds(d));
    char buf[48];
    std::snprintf(buf, sizeof(buf), "day %lld %02lld:%02lld:%02lld",
                  static_cast<long long>(total / 86'400 + 1),
                  static_cast<long long>(total / 3'600 % 24),
                  static_cast<long long>(total / 60 % 60), static_cast<long long>(total % 60));
    return buf;
}

double mb(std::int64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int SoakReport::exit_code() const noexcept {
    bool memory = false, alarm = false;
    for (const SoakViolation& v : violations) {
        if (v.kind == "audit") return 4;
        if (v.kind == "memory-plateau") memory = true;
        if (v.kind == "stuck-alarm") alarm = true;
    }
    if (memory) return 5;
    if (alarm) return 3;
    return 0;
}

std::string SoakReport::json() const {
    std::string out = "{\"soak\":{";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"fleet\":%s,\"trains\":%u,\"dcs\":%u,\"seed\":%llu,\"journey_seed\":%llu,"
                  "\"horizon_s\":%.1f,\"segment_s\":%.1f,\"telegrams\":%llu,\"logged\":%llu,"
                  "\"blocks\":%llu,\"telegrams_per_day\":%.1f,\"alarms_fired\":%llu,"
                  "\"alarms_cleared\":%llu,\"audit_violations\":%llu,\"mem_plateau_mb\":%.2f",
                  fleet ? "true" : "false", trains, dc_count,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(journey_seed), to_seconds(horizon),
                  to_seconds(segment_length), static_cast<unsigned long long>(telegrams_total),
                  static_cast<unsigned long long>(logged_total),
                  static_cast<unsigned long long>(blocks_total), telegrams_per_day,
                  static_cast<unsigned long long>(alarms_fired),
                  static_cast<unsigned long long>(alarms_cleared),
                  static_cast<unsigned long long>(audit_violations), mem_plateau_mb);
    out += buf;

    out += ",\"recipes\":[";
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        if (i > 0) out += ',';
        out += '"' + health::json_escape(recipes[i]) + '"';
    }
    out += "],\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        const SoakViolation& v = violations[i];
        if (i > 0) out += ',';
        std::snprintf(buf, sizeof(buf), "{\"kind\":\"%s\",\"metric\":\"%s\",\"from_s\":%.1f,"
                                        "\"to_s\":%.1f,\"detail\":\"",
                      v.kind.c_str(), health::json_escape(v.metric).c_str(),
                      to_seconds(v.window_start), to_seconds(v.window_end));
        out += buf;
        out += health::json_escape(v.detail) + "\"}";
    }
    out += "],\"segments\":[";
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const SoakSegment& s = segments[i];
        if (i > 0) out += ',';
        std::snprintf(buf, sizeof(buf),
                      "{\"t_s\":%.1f,\"telegrams\":%llu,\"logged\":%llu,\"blocks\":%llu,"
                      "\"alarms_active\":%llu,\"audit_violations\":%llu,\"mem_peak_mb\":%.2f,"
                      "\"chain_mb\":%.2f,\"pending_events\":%llu,\"dc_depth\":%llu}",
                      to_seconds(s.end), static_cast<unsigned long long>(s.telegrams),
                      static_cast<unsigned long long>(s.logged),
                      static_cast<unsigned long long>(s.blocks),
                      static_cast<unsigned long long>(s.alarms_active),
                      static_cast<unsigned long long>(s.audit_violations),
                      mb(s.mem_node_peak_bytes), mb(s.chain_bytes),
                      static_cast<unsigned long long>(s.pending_events),
                      static_cast<unsigned long long>(s.dc_ingest_depth));
        out += buf;
    }
    out += "]}}";
    return out;
}

std::string SoakReport::summary() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "soak: %s horizon=%.1fh segments=%zu telegrams=%llu (%.0f/day) blocks=%llu "
                  "mem_plateau=%.2fMB alarms fired=%llu cleared=%llu\n",
                  fleet ? "fleet" : "single", to_seconds(horizon) / 3600.0, segments.size(),
                  static_cast<unsigned long long>(telegrams_total), telegrams_per_day,
                  static_cast<unsigned long long>(blocks_total), mem_plateau_mb,
                  static_cast<unsigned long long>(alarms_fired),
                  static_cast<unsigned long long>(alarms_cleared));
    out += line;
    for (const std::string& r : recipes) out += "  recipe: " + r + "\n";
    if (violations.empty()) {
        out += "  no violations\n";
    }
    for (const SoakViolation& v : violations) {
        std::snprintf(line, sizeof(line), "  VIOLATION %s (%s) first seen %s..%s: %s\n",
                      v.kind.c_str(), v.metric.c_str(), fmt_window(v.window_start).c_str(),
                      fmt_window(v.window_end).c_str(), v.detail.c_str());
        out += line;
    }
    return out;
}

SoakReport run_soak(const SoakOptions& options) {
    if (options.horizon <= Duration::zero() || options.segment <= Duration::zero() ||
        options.segment > options.horizon) {
        throw std::invalid_argument("soak: need 0 < segment <= horizon");
    }
    if (options.trains == 0) throw std::invalid_argument("soak: needs trains >= 1");
    const bool fleet = options.trains > 1;

    // Compile the journey (if any) before building anything expensive.
    CompiledJourney compiled;
    if (options.journey_seed != 0) {
        JourneyConfig jc = options.journey;
        jc.seed = options.journey_seed;
        jc.trains = options.trains;
        jc.nodes = options.base.n;
        const auto day = jc.day_length.count();
        jc.days = static_cast<std::uint32_t>((options.horizon.count() + day - 1) / day);

        CompilerOptions co;
        co.n = options.base.n;
        co.f = options.base.f;
        co.fleet = fleet;
        co.dc_count = options.dc_count;
        co.recipes = options.recipes;
        co.export_period = options.export_period;
        for (const auto& kv : options.base.byzantine) co.byzantine[0].insert(kv.first);
        compiled = compile(generate(jc), co);
    }

    SoakReport rep;
    rep.fleet = fleet;
    rep.trains = options.trains;
    rep.dc_count = options.dc_count;
    rep.seed = options.base.seed;
    rep.journey_seed = options.journey_seed;
    rep.horizon = options.horizon;
    rep.segment_length = options.segment;
    for (const RecipeInstance& r : compiled.recipes) rep.recipes.push_back(r.describe());

    // -- build the harness: a fleet, of one train for a single consist --
    fleet::FleetConfig fc;
    fc.trains = options.trains;
    fc.seed = options.base.seed;
    fc.train = options.base;
    fc.train.audit_period = Duration::zero();  // boundary-driven
    fc.dc_count = options.dc_count;
    if (fc.dc_count > 0) {
        fc.train.delete_quorum = std::max<std::size_t>(
            1, std::min<std::size_t>(fc.train.delete_quorum, fc.dc_count));
    }
    fc.export_period = options.export_period;
    fc.warmup = options.base.warmup;
    fc.duration = options.horizon;
    fc.sample_period = kFleetSamplePeriod;
    fc.audit = options.audit;
    // The template's own schedules and adversaries land on train 0; the
    // journey's plans follow them.
    fc.faults.trains[0].merge(fc.train);
    static_cast<runtime::FaultPlan&>(fc.train) = {};
    fc.byzantine[0] = std::exchange(fc.train.byzantine, {});
    if (fleet) fc.store_root = std::exchange(fc.train.store_root, std::nullopt);
    if (options.journey_seed != 0) fc.faults.merge(compiled.faults);

    fleet::Fleet fl(std::move(fc));
    std::vector<const health::HealthMonitor*> monitors;
    std::vector<const faults::SafetyAuditor*> auditors;
    for (std::uint32_t t = 0; t < options.trains; ++t) {
        if (const auto* m = fl.monitor(t)) monitors.push_back(m);
        if (auto* a = fl.auditor(t)) auditors.push_back(a);
    }
    // -- drive the horizon in segments --
    fl.run_for(options.base.warmup);

    std::map<std::string, PlateauState> plateau;
    std::vector<std::size_t> audit_seen(auditors.size(), 0);
    const std::uint32_t ref_end = kGraceSegments + kReferenceSegments;
    std::uint64_t prev_telegrams = 0;
    Duration at{0};
    std::uint32_t idx = 0;

    const auto check_plateau = [&](const std::string& name, std::int64_t value, double slack,
                                   std::int64_t floor, Duration seg_start, Duration seg_end) {
        PlateauState& st = plateau[name];
        if (idx < kGraceSegments) return;
        if (idx < ref_end) {
            st.ref = std::max(st.ref, value);
            return;
        }
        const auto limit =
            static_cast<std::int64_t>(static_cast<double>(st.ref) * (1.0 + slack)) + floor;
        if (!st.violated && value > limit) {
            st.violated = true;
            char detail[160];
            std::snprintf(detail, sizeof(detail), "%lld > plateau %lld (ref %lld +%.0f%% +%lld)",
                          static_cast<long long>(value), static_cast<long long>(limit),
                          static_cast<long long>(st.ref), slack * 100.0,
                          static_cast<long long>(floor));
            rep.violations.push_back({"memory-plateau", name, seg_start, seg_end, detail});
        }
    };

    while (at < options.horizon) {
        const Duration step = std::min(options.segment, options.horizon - at);
        fl.run_for(step);
        const Duration seg_start = at;
        at = at + step;

        BoundaryProbe p;
        for (std::uint32_t t = 0; t < options.trains; ++t) {
            auto& shard = fl.shard(t);
            std::uint64_t tg = 0, lg = 0, bl = 0;
            for (std::size_t i = 0; i < shard.node_count(); ++i) {
                auto& node = shard.node(i);
                tg = std::max(tg, node.telegrams_seen());
                const auto s = shard.snapshot_node(i);
                lg = std::max(lg, s.logged);
                bl = std::max(bl, s.head_height);
                p.node_total = std::max(p.node_total, node.memory().total_bytes());
                for (const auto& g : node.memory().gauges()) {
                    auto& slot = p.gauges[g->name()];
                    slot = std::max(slot, g->value());
                }
            }
            p.telegrams += tg;
            p.logged += lg;
            p.blocks += bl;
        }
        p.pending = fl.pending_events();
        for (std::uint32_t d = 0; d < fl.dc_count(); ++d) {
            p.dc_depth += fl.data_center(d).ingest_queue_depth();
        }
        p.telegrams = std::max(p.telegrams, prev_telegrams);
        prev_telegrams = p.telegrams;

        std::uint64_t audit_total = 0;
        if (options.audit) {
            fl.run_audit();
            for (std::size_t a = 0; a < auditors.size(); ++a) {
                const auto& violations = auditors[a]->report().violations;
                for (std::size_t v = audit_seen[a]; v < violations.size(); ++v) {
                    if (rep.violations.size() < 64) {
                        rep.violations.push_back(
                            {"audit", faults::violation_name(violations[v].kind), seg_start, at,
                             violations[v].detail});
                    }
                }
                audit_seen[a] = violations.size();
                audit_total += violations.size();
            }
        }

        std::uint64_t fired = 0, cleared = 0;
        for (const auto* m : monitors) {
            fired += m->alarms().size();
            for (const auto& alarm : m->alarms()) cleared += alarm.cleared ? 1 : 0;
        }

        SoakSegment seg;
        seg.end = at;
        seg.telegrams = p.telegrams;
        seg.logged = p.logged;
        seg.blocks = p.blocks;
        seg.alarms_active = fired - cleared;
        seg.audit_violations = audit_total;
        seg.mem_node_peak_bytes = p.node_total;
        seg.chain_bytes = p.gauges.count("chain") ? p.gauges.at("chain") : 0;
        seg.pending_events = p.pending;
        seg.dc_ingest_depth = p.dc_depth;

        check_plateau("node-total-bytes", p.node_total, kMemSlack,
                      kMemFloorBytes, seg_start, at);
        for (const auto& [name, value] : p.gauges) {
            check_plateau("gauge:" + name, value, kMemSlack, kMemFloorBytes,
                          seg_start, at);
        }
        check_plateau("pending-events", static_cast<std::int64_t>(p.pending),
                      kEventSlack, kEventFloor, seg_start, at);
        check_plateau("dc-ingest-depth", static_cast<std::int64_t>(p.dc_depth),
                      kEventSlack, kEventFloor, seg_start, at);

        rep.segments.push_back(seg);
        rep.alarms_fired = fired;
        rep.alarms_cleared = cleared;
        rep.audit_violations = audit_total;
        ++idx;
    }

    // Alarms still latched at the end of the horizon are unresolved
    // degradation, not transient chaos response.
    for (std::size_t train = 0; train < monitors.size(); ++train) {
        for (const auto& alarm : monitors[train]->alarms()) {
            if (alarm.cleared) continue;
            char detail[160];
            std::snprintf(detail, sizeof(detail), "train %zu node %u: %s", train, alarm.node,
                          alarm.detail.c_str());
            rep.violations.push_back({"stuck-alarm", health::alarm_kind_name(alarm.kind),
                                      alarm.first_seen, options.horizon, detail});
        }
    }

    if (!rep.segments.empty()) {
        const SoakSegment& last = rep.segments.back();
        rep.telegrams_total = last.telegrams;
        rep.logged_total = last.logged;
        rep.blocks_total = last.blocks;
    }
    rep.telegrams_per_day = static_cast<double>(rep.telegrams_total) * 86'400.0 /
                            to_seconds(options.horizon);
    rep.mem_plateau_mb = mb(plateau.count("node-total-bytes")
                                ? plateau.at("node-total-bytes").ref
                                : 0);
    return rep;
}

}  // namespace zc::journey
