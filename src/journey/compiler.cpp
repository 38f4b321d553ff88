#include "journey/compiler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"

namespace zc::journey {

namespace {

using runtime::FaultPlan;

/// Bus-cycle scale of a station dwell's rate window (< 1: a burst) and of
/// the depot layover's (> 1: a trickle).
constexpr double kDwellCycleScale = 0.5;
constexpr double kDepotCycleScale = 8.0;

/// Padding around a train's crash spans, so consecutive recipes leave the
/// shard time to rejoin and clear its alarms.
constexpr Duration kRecipeMargin = seconds(300);

/// True when a crash over [start, end) would come within the margin of a
/// crash already in the train's plan. (Recipes always restart, so the
/// horizon passed to down_spans never matters.)
bool conflicts(const FaultPlan& plan, Duration start, Duration end) {
    for (const auto& s : plan.down_spans(end).crashed) {
        if (start < s.to + kRecipeMargin && s.from < end + kRecipeMargin) return true;
    }
    return false;
}

std::string fmt_s(Duration d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fs", to_seconds(d));
    return buf;
}

}  // namespace

const char* recipe_name(RecipeKind kind) noexcept {
    switch (kind) {
        case RecipeKind::kCrashInDeadZone: return "crash-in-dead-zone";
        case RecipeKind::kRestartIntoPrunedChain: return "restart-into-pruned-chain";
        case RecipeKind::kDcOutageOverDeadZone: return "dc-outage-over-dead-zone";
    }
    return "?";
}

std::string RecipeInstance::describe() const {
    char buf[160];
    if (kind == RecipeKind::kDcOutageOverDeadZone) {
        std::snprintf(buf, sizeof(buf), "%s train=%u dc=%u at=%s for=%s", recipe_name(kind),
                      train, dc, fmt_s(at).c_str(), fmt_s(duration).c_str());
    } else {
        std::snprintf(buf, sizeof(buf), "%s train=%u node=%u at=%s for=%s", recipe_name(kind),
                      train, node, fmt_s(at).c_str(), fmt_s(duration).c_str());
    }
    return buf;
}

CompiledJourney compile(const JourneyPlan& plan, const CompilerOptions& opts) {
    if (plan.trains.empty()) throw std::invalid_argument("journey compile: empty plan");
    if (opts.n < 1 || opts.f >= opts.n) {
        throw std::invalid_argument("journey compile: need n >= 1 and f < n");
    }

    CompiledJourney out;

    // Mechanical lowering of the timetable. Tunnel flap indices are kept
    // per train so a DC-outage recipe in single-consist mode can widen
    // the matching uplink window instead of emitting an overlapping one.
    std::vector<std::vector<std::size_t>> tunnel_flap(plan.trains.size());
    std::vector<std::vector<const Segment*>> tunnels(plan.trains.size());
    std::vector<std::vector<const Segment*>> stations(plan.trains.size());
    for (std::size_t t = 0; t < plan.trains.size(); ++t) {
        const TrainPlan& tp = plan.trains[t];
        FaultPlan& ov = out.faults.trains[static_cast<fleet::TrainId>(t)];
        for (const Segment& seg : tp.segments) {
            switch (seg.kind) {
                case SegmentKind::kStation:
                    ov.rate_windows.emplace_back(seg.at, seg.duration, kDwellCycleScale);
                    stations[t].push_back(&seg);
                    break;
                case SegmentKind::kDepot:
                    ov.rate_windows.emplace_back(seg.at, seg.duration, kDepotCycleScale);
                    break;
                case SegmentKind::kTunnel: {
                    FaultPlan::LinkFlap flap;
                    flap.at = seg.at;
                    flap.duration = seg.duration;
                    flap.link = FaultPlan::LinkFlap::Link::kLte;
                    tunnel_flap[t].push_back(ov.link_flaps.size());
                    ov.link_flaps.push_back(flap);
                    tunnels[t].push_back(&seg);
                    break;
                }
                case SegmentKind::kCruise:
                    break;
            }
        }
        ov.cpu_profiles = tp.cpu_profiles;
    }

    // Weave in the compounded recipes, cycling kinds across trains. A
    // placement that would overlap another down interval on the same
    // shard (or land on a shard whose Byzantine population already
    // exhausts f) is retried on the next candidate slot and ultimately
    // dropped — the availability budget always wins over chaos volume.
    Rng rng = Rng(plan.seed).fork("journey-recipes");
    const auto byz_count = [&](std::size_t t) -> std::uint32_t {
        const auto it = opts.byzantine.find(static_cast<std::uint32_t>(t));
        return it == opts.byzantine.end() ? 0u
                                          : static_cast<std::uint32_t>(it->second.size());
    };
    const auto crash_budget = [&](std::size_t t) {
        return byz_count(t) < opts.f;  // room for one concurrent crash
    };

    const RecipeKind cycle[] = {RecipeKind::kCrashInDeadZone,
                                RecipeKind::kRestartIntoPrunedChain,
                                RecipeKind::kDcOutageOverDeadZone};
    for (std::uint32_t i = 0; i < opts.recipes; ++i) {
        RecipeKind kind = cycle[i % 3];
        const std::size_t t = i % plan.trains.size();
        FaultPlan& ov = out.faults.trains[static_cast<fleet::TrainId>(t)];

        if (kind == RecipeKind::kCrashInDeadZone && tunnels[t].empty()) {
            kind = RecipeKind::kRestartIntoPrunedChain;  // tunnel-free line
        }

        switch (kind) {
            case RecipeKind::kCrashInDeadZone: {
                if (!crash_budget(t)) break;
                const auto& cand = tunnels[t];
                const std::size_t start = rng.next_below(cand.size());
                for (std::size_t k = 0; k < cand.size(); ++k) {
                    const Segment* tun = cand[(start + k) % cand.size()];
                    if (tun->duration < seconds(90)) continue;
                    const Duration at = tun->at + seconds(5);
                    const Duration restart_after = tun->duration;
                    if (conflicts(ov, at, at + restart_after)) continue;
                    ov.crash_schedule.emplace_back(at, NodeId{0}, restart_after);
                    out.recipes.push_back({kind, static_cast<std::uint32_t>(t), 0, 0, at,
                                           restart_after});
                    break;
                }
                break;
            }
            case RecipeKind::kRestartIntoPrunedChain: {
                if (!crash_budget(t)) break;
                const NodeId node =
                    opts.n > 1 ? static_cast<NodeId>(1 + rng.next_below(opts.n - 1)) : 0;
                const Duration hold = opts.export_period * 3 + seconds(45);
                const auto& cand = stations[t];
                if (cand.empty()) break;
                const std::size_t start = rng.next_below(cand.size());
                for (std::size_t k = 0; k < cand.size(); ++k) {
                    const Segment* st = cand[(start + k) % cand.size()];
                    const Duration at = st->at;
                    if (at + hold + kRecipeMargin >= plan.horizon) continue;
                    if (conflicts(ov, at, at + hold)) continue;
                    ov.crash_schedule.emplace_back(at, node, hold);
                    out.recipes.push_back(
                        {kind, static_cast<std::uint32_t>(t), node, 0, at, hold});
                    break;
                }
                break;
            }
            case RecipeKind::kDcOutageOverDeadZone: {
                if (opts.dc_count == 0 || tunnels[t].empty()) break;
                const DataCenterId dc =
                    static_cast<DataCenterId>(rng.next_below(opts.dc_count));
                const std::size_t start = rng.next_below(tunnels[t].size());
                for (std::size_t k = 0; k < tunnels[t].size(); ++k) {
                    const std::size_t idx = (start + k) % tunnels[t].size();
                    const Segment* tun = tunnels[t][idx];
                    if (tun->duration < seconds(60)) continue;
                    if (opts.fleet) {
                        const Duration at =
                            tun->at > seconds(10) ? tun->at - seconds(10) : Duration::zero();
                        const Duration dur = tun->at - at + tun->duration + seconds(40);
                        out.faults.dc_outages.push_back({dc, at, dur});
                        out.recipes.push_back(
                            {kind, static_cast<std::uint32_t>(t), kNoNode, dc, at, dur});
                    } else {
                        // Single consist: fold the outage into a widened
                        // uplink window (the DC being down and the uplink
                        // being dark are indistinguishable on-train), but
                        // only if the widening stays clear of the next
                        // tunnel's flap.
                        auto& flap = ov.link_flaps[tunnel_flap[t][idx]];
                        const Duration widened = flap.duration + seconds(45);
                        const std::size_t next = tunnel_flap[t][idx] + 1;
                        bool clear = true;
                        for (std::size_t j = next; j < ov.link_flaps.size(); ++j) {
                            if (ov.link_flaps[j].at < flap.at + widened) clear = false;
                        }
                        if (!clear) continue;
                        flap.duration = widened;
                        out.recipes.push_back({kind, static_cast<std::uint32_t>(t), kNoNode, 0,
                                               flap.at, widened});
                    }
                    break;
                }
                break;
            }
        }
    }

    // The budget gate: every shard's emitted schedule must survive the
    // runtime validator with f reduced by its Byzantine population, so a
    // crashed node can never meet a Byzantine one past f. Failure here is
    // a compiler bug, not tolerable chaos.
    for (const auto& [t, train_plan] : out.faults.trains) {
        const std::uint32_t byz = byz_count(t);
        const std::uint32_t f = byz >= opts.f ? 0 : opts.f - byz;
        if (const auto err = runtime::validate_faults(train_plan, opts.n, f)) {
            throw std::invalid_argument("journey compile: train " + std::to_string(t) + ": " +
                                        *err);
        }
    }
    return out;
}

std::string CompiledJourney::summary() const {
    std::string out;
    char line[192];
    std::size_t windows = 0, flaps = 0, crashes = 0;
    for (const auto& [train, plan] : faults.trains) {
        windows += plan.rate_windows.size();
        flaps += plan.link_flaps.size();
        crashes += plan.crash_schedule.size();
    }
    std::snprintf(line, sizeof(line),
                  "compiled: %zu train(s), %zu rate windows, %zu uplink flaps, %zu crashes, "
                  "%zu dc outages, %zu recipe(s)\n",
                  faults.trains.size(), windows, flaps, crashes, faults.dc_outages.size(),
                  recipes.size());
    out += line;
    for (const RecipeInstance& r : recipes) {
        out += "  " + r.describe() + "\n";
    }
    return out;
}

}  // namespace zc::journey
