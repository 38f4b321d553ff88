#include "journey/journey.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"

namespace zc::journey {

namespace {

static_assert(kLegMin > Duration::zero() && kLegMin <= kLegMax);
static_assert(kDwellMin > Duration::zero() && kDwellMin <= kDwellMax);
static_assert(kTunnelMin > Duration::zero() && kTunnelMin <= kTunnelMax);
static_assert(kTunnelProb >= 0.0 && kTunnelProb <= 1.0);
static_assert(kDegradedTrainProb >= 0.0 && kDegradedTrainProb <= 1.0);
static_assert(kDegradedMin >= 1.0 && kDegradedMin <= kDegradedMax);

/// Uniform draw in [lo, hi] at one-second resolution (keeps plans tidy
/// and their summaries readable; nothing downstream needs finer grain).
Duration uniform_duration(Rng& rng, Duration lo, Duration hi) {
    if (hi <= lo) return lo;
    const auto span_s =
        static_cast<std::uint64_t>((hi - lo).count() / seconds(1).count()) + 1;
    return lo + seconds(static_cast<std::int64_t>(rng.next_below(span_s)));
}

/// Uniform double in [lo, hi], quantized to 1/100 so generated CPU
/// multipliers print (and replay) exactly.
double uniform_factor(Rng& rng, double lo, double hi) {
    const double u = static_cast<double>(rng.next_below(101)) / 100.0;
    const double raw = lo + u * (hi - lo);
    return static_cast<double>(static_cast<std::int64_t>(raw * 100.0 + 0.5)) / 100.0;
}

void check(bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("journey config: ") + what);
}

}  // namespace

const char* segment_kind_name(SegmentKind kind) noexcept {
    switch (kind) {
        case SegmentKind::kCruise: return "cruise";
        case SegmentKind::kStation: return "station";
        case SegmentKind::kTunnel: return "tunnel";
        case SegmentKind::kDepot: return "depot";
    }
    return "?";
}

JourneyPlan generate(const JourneyConfig& config) {
    check(config.trains >= 1, "trains must be >= 1");
    check(config.days >= 1, "days must be >= 1");
    check(config.nodes >= 1, "nodes must be >= 1");
    check(config.day_length > Duration::zero(), "day_length must be positive");
    check(config.service_length > Duration::zero() && config.service_length <= config.day_length,
          "service_length must be in (0, day_length]");

    JourneyPlan plan;
    plan.seed = config.seed;
    plan.days = config.days;
    plan.horizon = config.day_length * static_cast<std::int64_t>(config.days);

    Rng root(config.seed);
    for (std::uint32_t t = 0; t < config.trains; ++t) {
        Rng rng = root.fork("journey-train-" + std::to_string(t));
        TrainPlan tp;
        tp.train = t;

        for (std::uint32_t d = 0; d < config.days; ++d) {
            const Duration day0 = config.day_length * static_cast<std::int64_t>(d);
            const Duration service_end = day0 + config.service_length;
            Duration now = day0;

            // Alternate cruise legs (possibly with a mid-leg tunnel) and
            // station dwells until the next stop would spill past the
            // service window.
            while (true) {
                const Duration leg = uniform_duration(rng, kLegMin, kLegMax);
                if (now + leg + kDwellMax >= service_end) break;

                const bool tunneled = leg > kTunnelMin * 2 && rng.chance(kTunnelProb);
                if (tunneled) {
                    const Duration tun =
                        uniform_duration(rng, kTunnelMin, std::min(kTunnelMax, leg / 2));
                    const Duration pre = (leg - tun) / 2;
                    tp.segments.emplace_back(SegmentKind::kCruise, now, pre);
                    tp.segments.emplace_back(SegmentKind::kTunnel, now + pre, tun);
                    tp.segments.emplace_back(SegmentKind::kCruise, now + pre + tun,
                                             leg - pre - tun);
                    ++tp.tunnels;
                } else {
                    tp.segments.emplace_back(SegmentKind::kCruise, now, leg);
                }
                now = now + leg;

                const Duration dwell = uniform_duration(rng, kDwellMin, kDwellMax);
                tp.segments.emplace_back(SegmentKind::kStation, now, dwell);
                ++tp.stations;
                now = now + dwell;
            }

            // Final run-in to the depot, then the overnight layover.
            if (now < service_end) {
                tp.segments.emplace_back(SegmentKind::kCruise, now, service_end - now);
            }
            if (service_end < day0 + config.day_length) {
                tp.segments.emplace_back(SegmentKind::kDepot, service_end,
                                         day0 + config.day_length - service_end);
            }
        }

        if (rng.chance(kDegradedTrainProb)) {
            const NodeId node = static_cast<NodeId>(rng.next_below(config.nodes));
            tp.cpu_profiles[node] = uniform_factor(rng, kDegradedMin, kDegradedMax);
        }

        plan.trains.push_back(std::move(tp));
    }
    return plan;
}

std::string JourneyPlan::summary() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "journey seed=%llu: %u day(s), %zu train(s), %.1f h horizon\n",
                  static_cast<unsigned long long>(seed), days, trains.size(),
                  to_seconds(horizon) / 3600.0);
    out += line;
    for (const TrainPlan& tp : trains) {
        std::snprintf(line, sizeof(line),
                      "  train %u: %zu segments, %llu stations, %llu tunnels", tp.train,
                      tp.segments.size(), static_cast<unsigned long long>(tp.stations),
                      static_cast<unsigned long long>(tp.tunnels));
        out += line;
        for (const auto& [node, factor] : tp.cpu_profiles) {
            std::snprintf(line, sizeof(line), ", degraded node %u x%.2f", node, factor);
            out += line;
        }
        out += '\n';
    }
    return out;
}

}  // namespace zc::journey
