#include "runtime/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

namespace zc::runtime {

namespace {

std::string fmt_s(Duration d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f s", to_seconds(d));
    return buf;
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

bool FaultPlan::empty() const noexcept {
    return crash_schedule.empty() && restart_schedule.empty() && link_flaps.empty() &&
           egress_ramps.empty() && rate_windows.empty() && cpu_profiles.empty();
}

void FaultPlan::merge(const FaultPlan& other) {
    append(crash_schedule, other.crash_schedule);
    append(restart_schedule, other.restart_schedule);
    append(link_flaps, other.link_flaps);
    append(egress_ramps, other.egress_ramps);
    append(rate_windows, other.rate_windows);
    for (const auto& [node, factor] : other.cpu_profiles) cpu_profiles[node] = factor;
}

FaultPlan::DownSpans FaultPlan::down_spans(Duration horizon) const {
    DownSpans out;
    // Pair each fail-stop crash with the earliest later explicit restart
    // of the same node that no earlier crash has claimed.
    std::vector<std::pair<Duration, NodeId>> restarts = restart_schedule;
    std::sort(restarts.begin(), restarts.end());
    std::vector<bool> restart_used(restarts.size(), false);
    for (const CrashEntry& c : crash_schedule) {
        Duration to = horizon;
        if (c.restart_after > Duration::zero()) {
            to = c.at + c.restart_after;
        } else {
            for (std::size_t r = 0; r < restarts.size(); ++r) {
                if (!restart_used[r] && restarts[r].second == c.node &&
                    restarts[r].first > c.at) {
                    restart_used[r] = true;
                    to = restarts[r].first;
                    break;
                }
            }
        }
        out.crashed.push_back({c.node, c.at, to});
    }
    for (const LinkFlap& flap : link_flaps) {
        if (flap.link == LinkFlap::Link::kNode) {
            out.isolated.push_back({flap.node, flap.at, flap.at + flap.duration});
        } else {
            out.uplink.push_back({flap.at, flap.at + flap.duration});
        }
    }
    return out;
}

std::optional<std::string> validate_faults(const FaultPlan& plan, std::uint32_t n,
                                           std::uint32_t f) {
    using LinkFlap = FaultPlan::LinkFlap;
    auto unknown = [n](const char* what, Duration at, NodeId node) {
        return std::string(what) + " at " + fmt_s(at) + " names node " + std::to_string(node) +
               " but n=" + std::to_string(n);
    };
    for (const auto& c : plan.crash_schedule) {
        if (c.node >= n) return unknown("crash", c.at, c.node);
    }
    for (const auto& [at, node] : plan.restart_schedule) {
        if (node >= n) return unknown("restart", at, node);
    }

    // Fail-stop crashes stay down for good: an open-ended horizon.
    const Duration forever = Duration::max();
    std::vector<faults::NodeDarkSpan> down = plan.down_spans(forever).crashed;

    // A node crashed while already down: the second power-loss is a no-op
    // in the simulator, so the schedule does not mean what it says.
    std::sort(down.begin(), down.end(),
              [](const faults::NodeDarkSpan& a, const faults::NodeDarkSpan& b) {
                  return a.from != b.from ? a.from < b.from : a.node < b.node;
              });
    for (std::size_t i = 0; i < down.size(); ++i) {
        for (std::size_t j = i + 1; j < down.size(); ++j) {
            if (down[i].node == down[j].node && down[j].from < down[i].to) {
                return "node " + std::to_string(down[i].node) + " crashed at " +
                       fmt_s(down[j].from) + " while already down since " +
                       fmt_s(down[i].from);
            }
        }
    }

    // Concurrency sweep: at no instant may more than f nodes be down.
    // Interval ends sort before starts at equal time ([from, to)): a
    // restart scheduled at the same instant as another node's crash keeps
    // the schedule inside the budget.
    struct Event {
        Duration at;
        int delta;  // -1 = restart, +1 = crash
    };
    std::vector<Event> events;
    for (const auto& s : down) {
        events.push_back({s.from, +1});
        if (s.to != forever) events.push_back({s.to, -1});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.at != b.at ? a.at < b.at : a.delta < b.delta;
    });
    int concurrent = 0;
    for (const Event& e : events) {
        concurrent += e.delta;
        if (concurrent > static_cast<int>(f)) {
            return "crash schedule takes " + std::to_string(concurrent) +
                   " nodes down concurrently at " + fmt_s(e.at) + " but f=" +
                   std::to_string(f) +
                   " (a 2f+1 quorum needs all but f replicas; stagger the crashes or "
                   "set allow_unsafe_chaos)";
        }
    }

    // Link flaps: partitioning a node that is down for the whole window
    // is a no-op masquerading as a fault.
    for (const auto& flap : plan.link_flaps) {
        if (flap.duration <= Duration::zero()) {
            return "link flap at " + fmt_s(flap.at) + " has non-positive duration";
        }
        if (flap.link != LinkFlap::Link::kNode) continue;
        if (flap.node >= n) return unknown("link flap", flap.at, flap.node);
        for (const auto& s : down) {
            if (s.node == flap.node && s.from < flap.at + flap.duration && flap.at < s.to) {
                return "link flap at " + fmt_s(flap.at) + " isolates node " +
                       std::to_string(flap.node) + " which is already crashed (down since " +
                       fmt_s(s.from) + ")";
            }
        }
    }

    // Overlapping flaps of the same link: the runtime tracks a link as a
    // blocked/unblocked bool, so the first window's close would reopen a
    // link the second window still wants dark.
    std::vector<LinkFlap> flaps = plan.link_flaps;
    std::sort(flaps.begin(), flaps.end(),
              [](const LinkFlap& a, const LinkFlap& b) { return a.at < b.at; });
    for (std::size_t i = 0; i < flaps.size(); ++i) {
        for (std::size_t j = i + 1; j < flaps.size(); ++j) {
            if (flaps[i].link != flaps[j].link) continue;
            if (flaps[i].link == LinkFlap::Link::kNode && flaps[i].node != flaps[j].node) {
                continue;
            }
            if (flaps[j].at < flaps[i].at + flaps[i].duration) {
                return "link flaps of the same link overlap: [" + fmt_s(flaps[i].at) + ", " +
                       fmt_s(flaps[i].at + flaps[i].duration) + ") and one starting at " +
                       fmt_s(flaps[j].at) + " (merge them into one window)";
            }
        }
    }

    // Gray egress ramps: sane targets and drift parameters. Ramps do not
    // count against the f-budget — a limping node is still correct — but
    // a nonsensical ramp (negative scales, loss outside [0,1]) silently
    // clamps in the network layer and would not mean what it says.
    for (const auto& r : plan.egress_ramps) {
        if (r.node >= n) return unknown("egress ramp", r.at, r.node);
        if (r.ramp <= Duration::zero()) {
            return "egress ramp at " + fmt_s(r.at) + " has non-positive ramp duration";
        }
        if (r.bandwidth_scale_end <= 0.0 || r.latency_scale_end <= 0.0) {
            return "egress ramp at " + fmt_s(r.at) + " has non-positive end scale";
        }
        if (r.loss_end < 0.0 || r.loss_end > 1.0) {
            return "egress ramp at " + fmt_s(r.at) + " has loss_end outside [0, 1]";
        }
    }

    // Telegram-rate windows: positive scale, positive duration, no
    // overlap (each close restores the base cycle, so nesting would
    // cancel the outer window early).
    std::vector<FaultPlan::RateWindow> windows = plan.rate_windows;
    std::sort(windows.begin(), windows.end(),
              [](const FaultPlan::RateWindow& a, const FaultPlan::RateWindow& b) {
                  return a.at < b.at;
              });
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i].cycle_scale <= 0.0) {
            return "rate window at " + fmt_s(windows[i].at) + " has non-positive cycle_scale";
        }
        if (windows[i].duration <= Duration::zero()) {
            return "rate window at " + fmt_s(windows[i].at) + " has non-positive duration";
        }
        if (i + 1 < windows.size() &&
            windows[i].at + windows[i].duration > windows[i + 1].at) {
            return "rate windows overlap: [" + fmt_s(windows[i].at) + ", " +
                   fmt_s(windows[i].at + windows[i].duration) + ") and one starting at " +
                   fmt_s(windows[i + 1].at);
        }
    }

    return std::nullopt;
}

}  // namespace zc::runtime
