#include "faults/liveness.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace zc::faults {
namespace {

const char* kKindNames[] = {"no_ordering_progress", "export_stuck", "rejoin_incomplete"};

}  // namespace

const char* liveness_violation_name(LivenessViolationKind kind) noexcept {
    return kKindNames[static_cast<unsigned>(kind)];
}

void LivenessAuditor::configure(LivenessConfig cfg) { config_ = cfg; }

void LivenessAuditor::set_schedule(std::vector<NodeDarkSpan> node_dark,
                                   std::vector<UplinkDarkSpan> uplink_dark,
                                   Duration horizon) {
    std::sort(uplink_dark.begin(), uplink_dark.end(),
              [](const UplinkDarkSpan& a, const UplinkDarkSpan& b) { return a.from < b.from; });
    good_windows_.clear();
    uplink_up_.clear();

    // Sweep the dark spans: a window is quorum-capable while at most f
    // nodes are dark. Ends sort before starts at equal time ([from, to))
    // so back-to-back spans of different nodes do not double-count.
    struct Event {
        Duration at;
        int delta;  // -1 = span ends, +1 = span starts
    };
    std::vector<Event> events;
    for (const NodeDarkSpan& s : node_dark) {
        if (s.to <= s.from) continue;
        events.push_back({s.from, +1});
        events.push_back({std::min(s.to, horizon), -1});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.at != b.at ? a.at < b.at : a.delta < b.delta;
    });

    int dark = 0;
    Duration open{0};
    bool in_good = true;  // the run starts with everyone up
    for (const Event& e : events) {
        if (e.at >= horizon) break;
        const int next = dark + e.delta;
        if (in_good && next > static_cast<int>(config_.f)) {
            if (e.at > open) good_windows_.emplace_back(open, e.at);
            in_good = false;
        } else if (!in_good && next <= static_cast<int>(config_.f)) {
            open = e.at;
            in_good = true;
        }
        dark = next;
    }
    if (in_good && horizon > open) good_windows_.emplace_back(open, horizon);
    report_.windows = good_windows_.size();

    // Each window's longest uplink-up stretch past the settle grace: the
    // export rule's span (exports may legitimately sit still while the
    // LTE is dark).
    for (const auto& [from, to] : good_windows_) {
        std::pair<Duration, Duration> best{to, to};
        Duration lo = from + config_.settle;  // start of the current up stretch
        for (const UplinkDarkSpan& d : uplink_dark) {
            const Duration hi = std::min(std::max(d.from, lo), to);
            if (hi - lo > best.second - best.first) best = {lo, hi};
            lo = std::max(lo, d.to);
        }
        if (to - lo > best.second - best.first) best = {lo, to};
        uplink_up_.push_back(best);
    }
}

void LivenessAuditor::observe(TimePoint now, const std::vector<health::NodeSample>& nodes,
                              std::uint64_t exports_completed) {
    if (finished_) return;
    const Duration at{now.count()};

    std::uint64_t cluster_head = 0;
    std::uint64_t backlog = 0;
    bool owed = false;  // a live replica holds input it has not logged
    decided_.clear();
    for (const health::NodeSample& s : nodes) {
        if (s.alive) {
            decided_.push_back(s.decided);
            cluster_head = std::max(cluster_head, s.head_height);
            owed = owed || s.open_requests > 0;
        }
        backlog = std::max(backlog, s.head_height - std::min(s.head_height, s.base_height));
    }
    if (last_alive_.size() < nodes.size()) last_alive_.resize(nodes.size(), true);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const health::NodeSample& n = nodes[i];
        if (!last_alive_[i] && n.alive) rejoins_.push_back({n.node, at, false});
        last_alive_[i] = n.alive;
        for (Rejoin& r : rejoins_) {
            r.caught_up = r.caught_up || (r.node == n.node && n.alive &&
                                          n.head_height + config_.rejoin_lag_blocks >=
                                              cluster_head);
        }
    }

    // Quorum-capable time past the settle graces since the last snapshot.
    for (std::size_t i = window_; i < good_windows_.size(); ++i) {
        const Duration lo = std::max(good_windows_[i].first + config_.settle, last_at_);
        const Duration hi = std::min(good_windows_[i].second, at);
        if (hi > lo) judged_ += hi - lo;
        if (good_windows_[i].second >= at) break;
    }
    last_at_ = at;
    while (window_ < good_windows_.size() && good_windows_[window_].second < at) {
        close_window(good_windows_[window_].second);
    }
    const auto add = [snap = Snap{at, exports_completed, backlog}](Span& span) {
        if (span.first.at < Duration::zero()) span.first = snap;
        span.last = snap;
    };
    if (window_ < good_windows_.size() && at >= good_windows_[window_].first + config_.settle) {
        add(window_span_);
        const auto& [lo, hi] = uplink_up_[window_];
        if (at >= lo && at <= hi) add(uplink_span_);
    }

    // The frontier a 2f+1 quorum of live replicas has decided up to (0
    // while fewer are up), not the fastest replica's.
    const std::size_t quorum = 2 * static_cast<std::size_t>(config_.f) + 1;
    std::uint64_t frontier = 0;
    if (decided_.size() >= quorum) {
        const auto kth = decided_.begin() + static_cast<std::ptrdiff_t>(quorum - 1);
        std::nth_element(decided_.begin(), kth, decided_.end(), std::greater<>());
        frontier = *kth;
    }
    if (anchor_at_ < Duration::zero() || !owed ||
        frontier >= anchor_frontier_ + config_.min_decided_per_window) {
        anchor_at_ = at;
        anchor_judged_ = judged_;
        anchor_frontier_ = frontier;
        open_stall_ = kNoStall;
        return;
    }
    // A frontier that went back (restarts resume from a durable
    // watermark) re-bases, so climbing back counts as progress.
    anchor_frontier_ = std::min(anchor_frontier_, frontier);
    if (open_stall_ != kNoStall) {
        report_.violations[open_stall_].to = at;  // the stall goes on
        return;
    }
    const Duration stalled = judged_ - anchor_judged_;
    if (stalled < config_.min_window) return;
    std::ostringstream detail;
    detail << "a 2f+1 quorum was correct-and-connected for " << to_seconds(stalled)
           << " s past the settle grace but the frontier it decided stayed at "
           << anchor_frontier_ << " (needs +" << config_.min_decided_per_window << ")";
    open_stall_ = report_.violations.size();
    violate(LivenessViolationKind::kNoOrderingProgress, anchor_at_, at, kNoNode, detail.str());
}

void LivenessAuditor::violate(LivenessViolationKind kind, Duration from, Duration to,
                              NodeId node, std::string detail) {
    ZC_ERROR("liveness", "liveness violation {} in [{} s, {} s] node {}: {}",
             liveness_violation_name(kind), to_seconds(from), to_seconds(to),
             node == kNoNode ? std::int64_t{-1} : static_cast<std::int64_t>(node), detail);
    trace_.event(trace::Phase::kLivenessViolation,
                 (static_cast<std::uint64_t>(node) << 40) ^
                     static_cast<std::uint64_t>(from.count() / 1'000'000),
                 static_cast<std::uint64_t>(kind));
    report_.violations.push_back(LivenessViolation{kind, from, to, node, std::move(detail)});
}

Duration LivenessAuditor::good_time_between(Duration from, Duration to) const {
    Duration total{0};
    for (const auto& [a, b] : good_windows_) {
        const Duration lo = std::max(a, from);
        const Duration hi = std::min(b, to);
        if (hi > lo) total += hi - lo;
    }
    return total;
}

void LivenessAuditor::close_window(Duration end) {
    const Duration from = good_windows_[window_].first;
    const Duration to = std::min(good_windows_[window_].second, end);
    const Span window = std::exchange(window_span_, Span{});
    const Span uplink = std::exchange(uplink_span_, Span{});
    const auto [lo, hi] = uplink_up_[window_];
    window_ += 1;

    const Duration start = from + config_.settle;
    if (to <= start || to - start < config_.min_window) return;
    // Count only windows the sampler actually covered (at least half of
    // the required span between the first and last snapshot).
    if (window.last.at <= window.first.at ||
        window.last.at - window.first.at < config_.min_window / 2) {
        return;
    }
    report_.windows_checked += 1;
    report_.checks += 1;  // the ordering rule, judged as snapshots arrived

    if (!config_.check_exports || std::min(hi, to) - lo < config_.min_window ||
        uplink.last.at <= uplink.first.at) {
        return;
    }
    report_.checks += 1;
    const bool completed = uplink.last.exports > uplink.first.exports;
    const bool drained = uplink.last.backlog < uplink.first.backlog;
    if (uplink.first.backlog > 0 && !completed && !drained) {
        std::ostringstream detail;
        detail << "uplink and data centers reachable for "
               << to_seconds(uplink.last.at - uplink.first.at) << " s with a backlog of "
               << uplink.first.backlog
               << " blocks, but no export completed and the backlog did not shrink";
        violate(LivenessViolationKind::kExportStuck, lo, std::min(hi, to), kNoNode,
                detail.str());
    }
}

void LivenessAuditor::finish(TimePoint end) {
    if (finished_) return;
    finished_ = true;
    const Duration at{end.count()};
    while (window_ < good_windows_.size()) close_window(at);

    for (const Rejoin& r : rejoins_) {
        if (r.caught_up) continue;
        const Duration good = good_time_between(r.restarted_at, at);
        report_.checks += 1;
        if (good >= config_.rejoin_bound) {
            std::ostringstream detail;
            detail << "node " << r.node << " restarted at " << to_seconds(r.restarted_at)
                   << " s and saw " << to_seconds(good)
                   << " s of quorum-capable time but never caught up to within "
                   << config_.rejoin_lag_blocks << " blocks of the cluster head";
            violate(LivenessViolationKind::kRejoinIncomplete, r.restarted_at, at, r.node,
                    detail.str());
        }
    }
}

std::string LivenessReport::json() const {
    std::ostringstream out;
    out << "{\"windows\":" << windows << ",\"windows_checked\":" << windows_checked
        << ",\"checks\":" << checks << ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        const LivenessViolation& v = violations[i];
        if (i != 0) out << ',';
        out << "{\"kind\":\"" << liveness_violation_name(v.kind)
            << "\",\"from_s\":" << to_seconds(v.from) << ",\"to_s\":" << to_seconds(v.to)
            << ",\"node\":"
            << (v.node == kNoNode ? std::int64_t{-1} : static_cast<std::int64_t>(v.node))
            << ",\"detail\":\"" << v.detail << "\"}";
    }
    out << "]}";
    return out.str();
}

}  // namespace zc::faults
