#include "fleet/chaos.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace zc::fleet {

void FleetFaults::merge(const FleetFaults& other) {
    for (const auto& [train, plan] : other.trains) trains[train].merge(plan);
    dc_outages.insert(dc_outages.end(), other.dc_outages.begin(), other.dc_outages.end());
}

FleetFaults staggered_drill(std::uint32_t trains, std::uint32_t dc_count, Duration run) {
    FleetFaults drill;
    const std::int64_t run_ms = std::max<std::int64_t>(run.count() / 1'000'000, 1000);

    // Crash wave: every other train loses one node, spread across the
    // middle 40% of the run so the fleet never has two shards mid-rejoin
    // at exactly the same instant. The victim rotates through the cluster
    // (including the primary) and always restarts, so a healthy run ends
    // with every alarm cleared.
    const std::uint32_t crash_trains = std::max<std::uint32_t>(trains / 2, 1);
    for (std::uint32_t k = 0; k < crash_trains; ++k) {
        const TrainId train = static_cast<TrainId>(k * 2 % trains);
        drill.trains[train].crash_schedule.emplace_back(
            milliseconds(run_ms / 5 +
                         static_cast<std::int64_t>(k) * (run_ms * 2 / 5) / crash_trains),
            static_cast<NodeId>(k % 4), milliseconds(std::min<std::int64_t>(run_ms / 6, 8000)));
    }

    // LTE dead zones: every third train goes dark for ~12% of the run,
    // staggered across the first half (tunnels come early on the line).
    // Consensus and recording continue; exports straddling the window
    // retry and complete afterwards.
    for (std::uint32_t t = 0; t < trains; t += 3) {
        runtime::FaultPlan::LinkFlap zone;
        zone.link = runtime::FaultPlan::LinkFlap::Link::kLte;
        zone.at = milliseconds(run_ms / 10 + static_cast<std::int64_t>(t) * (run_ms * 2 / 5) /
                                                 std::max<std::uint32_t>(trains, 1));
        zone.duration = milliseconds(run_ms / 8);
        drill.trains[t].link_flaps.push_back(zone);
    }

    // DC failover: data center 0 drops at 45% of the run and returns at
    // 80%, forcing every shard's exports onto the surviving DCs. Requires
    // a second DC to fail over to.
    if (dc_count > 1) {
        drill.dc_outages.push_back(
            {0, milliseconds(run_ms * 45 / 100), milliseconds(run_ms * 35 / 100)});
    }
    return drill;
}

// -- gray chaos compiler ----------------------------------------------------

namespace {

/// Placement keeps this clear of the window edges so a gray fault never
/// straddles warmup or the report cut.
constexpr Duration kGrayMargin = seconds(2);

/// Flapping-asymmetric-link cadence: the outbound links go dark for
/// kFlapOn every kFlapPeriod, filling the active window.
constexpr Duration kFlapOn = seconds(3);
constexpr Duration kFlapPeriod = seconds(15);
static_assert(kFlapPeriod > kFlapOn);

/// Slow-creep end state (reached after kCreepRamp, then held).
constexpr Duration kCreepRamp = seconds(30);
constexpr double kCreepBandwidthScaleEnd = 0.2;
constexpr double kCreepLatencyScaleEnd = 5.0;
constexpr double kCreepLossEnd = 0.02;

/// True when [from, to) overlaps a span of `node` in `spans`.
bool overlaps(const std::vector<faults::NodeDarkSpan>& spans, NodeId node, Duration from,
              Duration to) {
    for (const faults::NodeDarkSpan& s : spans) {
        if (s.node == node && s.from < to && from < s.to) return true;
    }
    return false;
}

}  // namespace

CompiledGray compile_gray(const GrayChaosOptions& opts, const FleetFaults& base) {
    if (opts.n == 0 || opts.trains == 0) {
        throw std::invalid_argument("gray compile: n and trains must be positive");
    }
    CompiledGray out;

    Rng rng = Rng(opts.seed).fork("gray-chaos");
    const Duration open = opts.warmup + kGrayMargin;
    const Duration close = opts.horizon > kGrayMargin ? opts.horizon - kGrayMargin : open;
    if (close <= open) {
        throw std::invalid_argument("gray compile: horizon leaves no active window");
    }
    const Duration active = close - open;

    for (TrainId t = 0; t < opts.trains; ++t) {
        runtime::FaultPlan& plan = out.faults.trains[t];
        // Where the base plan already has a node down or partitioned.
        std::vector<faults::NodeDarkSpan> dark;
        if (const auto it = base.trains.find(t); it != base.trains.end()) {
            runtime::FaultPlan::DownSpans spans = it->second.down_spans(opts.horizon);
            dark = std::move(spans.crashed);
            dark.insert(dark.end(), spans.isolated.begin(), spans.isolated.end());
        }
        const auto byz = opts.byzantine.find(t);
        auto is_byz = [&](NodeId v) {
            return byz != opts.byzantine.end() && byz->second.contains(v);
        };
        // Victim cursor: kinds draw distinct nodes where n allows, and the
        // first limping victim is node 0 — the view-0 primary, the case a
        // fixed view-change timer handles worst.
        NodeId cursor = 0;
        auto next_victim = [&](const std::map<NodeId, double>* taken) {
            for (std::uint32_t probe = 0; probe < opts.n; ++probe) {
                const NodeId v = static_cast<NodeId>((cursor + probe) % opts.n);
                if (is_byz(v)) continue;
                if (taken != nullptr && taken->contains(v)) continue;
                cursor = static_cast<NodeId>((v + 1) % opts.n);
                return v;
            }
            return static_cast<NodeId>(cursor % opts.n);  // all taken: reuse
        };

        for (std::uint32_t i = 0; i < opts.limping; ++i) {
            const NodeId v = next_victim(&plan.cpu_profiles);
            if (plan.cpu_profiles.contains(v)) break;  // n exhausted
            plan.cpu_profiles[v] = opts.limp_factor;
            out.instances.push_back({GrayKind::kLimpingNode, t, v, Duration{0}, opts.horizon,
                                     opts.limp_factor});
        }

        for (std::uint32_t i = 0; i < opts.flapping; ++i) {
            const NodeId v = next_victim(nullptr);
            // Jittered phase start inside the first period keeps trains /
            // instances from flapping in lock-step.
            const Duration phase = Duration{static_cast<Duration::rep>(
                rng.next_below(static_cast<std::uint64_t>(kFlapPeriod.count() / 2)))};
            std::uint32_t placed = 0;
            const auto want = static_cast<std::uint32_t>(active.count() / kFlapPeriod.count());
            for (std::uint32_t k = 0; placed < want; ++k) {
                const Duration at = open + phase + kFlapPeriod * static_cast<int>(k);
                if (at + kFlapOn > close) break;
                if (overlaps(dark, v, at, at + kFlapOn)) continue;
                runtime::FaultPlan::LinkFlap flap;
                flap.at = at;
                flap.duration = kFlapOn;
                flap.link = runtime::FaultPlan::LinkFlap::Link::kNode;
                flap.node = v;
                flap.asymmetric = true;
                plan.link_flaps.push_back(flap);
                placed += 1;
            }
            if (placed > 0) {
                const Duration span = plan.link_flaps.back().at + kFlapOn -
                                      plan.link_flaps.front().at;
                out.instances.push_back(
                    {GrayKind::kFlappingAsymLink, t, v, plan.link_flaps.front().at, span,
                     to_seconds(kFlapOn) / to_seconds(kFlapPeriod)});
            }
        }

        for (std::uint32_t i = 0; i < opts.creeps; ++i) {
            const NodeId v = next_victim(nullptr);
            // Start in the first half of the window so the drift and its
            // held end state both land inside the run.
            const Duration half = active / 2;
            const Duration at =
                open + Duration{static_cast<Duration::rep>(rng.next_below(
                           static_cast<std::uint64_t>(std::max<Duration::rep>(
                               (half - std::min(half, kCreepRamp)).count(), 1))))};
            if (overlaps(dark, v, at, at + kCreepRamp)) continue;
            runtime::FaultPlan::EgressRamp ramp;
            ramp.at = at;
            ramp.ramp = kCreepRamp;
            ramp.node = v;
            ramp.bandwidth_scale_end = kCreepBandwidthScaleEnd;
            ramp.latency_scale_end = kCreepLatencyScaleEnd;
            ramp.loss_end = kCreepLossEnd;
            plan.egress_ramps.push_back(ramp);
            out.instances.push_back({GrayKind::kSlowCreep, t, v, at, kCreepRamp,
                                     kCreepBandwidthScaleEnd});
        }
    }

    // The budget gate: gray faults never crash anyone, but each train's
    // base-plus-gray plan must still survive the runtime validator (no
    // flap on a down node, no overlapping flaps, sane ramp parameters).
    // Failure here is a compiler bug.
    for (const auto& [t, gray] : out.faults.trains) {
        runtime::FaultPlan merged;
        if (const auto it = base.trains.find(t); it != base.trains.end()) merged = it->second;
        merged.merge(gray);
        if (const auto err = runtime::validate_faults(merged, opts.n, opts.f)) {
            throw std::invalid_argument("gray compile: train " + std::to_string(t) + ": " +
                                        *err);
        }
    }
    return out;
}

}  // namespace zc::fleet
