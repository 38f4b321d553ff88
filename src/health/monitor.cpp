#include "health/monitor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/format.hpp"

namespace zc::health {

HealthMonitor::HealthMonitor(MonitorConfig config) : config_(config) {}

void HealthMonitor::fire(NodeId node, AlarmKind kind, TimePoint now, std::string detail) {
    if (!fired_.insert({node, kind}).second) return;  // latched
    Alarm alarm;
    alarm.node = node;
    alarm.kind = kind;
    alarm.first_seen = now;
    alarm.detail = std::move(detail);
    if (recorder_ != nullptr) recorder_->record_alarm(alarm);
    alarms_.push_back(alarm);
    if (hook_) hook_(alarms_.back());
}

void HealthMonitor::clear(NodeId node, AlarmKind kind, TimePoint now) {
    if (fired_.erase({node, kind}) == 0) return;  // nothing latched
    for (auto it = alarms_.rbegin(); it != alarms_.rend(); ++it) {
        if (it->node == node && it->kind == kind && !it->cleared) {
            it->cleared = true;
            it->cleared_at = now;
            break;
        }
    }
}

void HealthMonitor::sample(TimePoint now, const std::vector<NodeSample>& nodes) {
    ++samples_;

    // Cluster frontiers over live nodes: commit frontier in decided
    // entries (restarted replicas count with their pre-crash offset, see
    // NodeState::decided_offset) and chain-head frontier in blocks.
    std::uint64_t frontier = 0;
    std::uint64_t head_frontier = 0;
    for (const NodeSample& s : nodes) {
        if (!s.alive) continue;
        const auto it = states_.find(s.node);
        const std::uint64_t offset = it != states_.end() ? it->second.decided_offset : 0;
        frontier = std::max(frontier, s.decided + offset);
        head_frontier = std::max(head_frontier, s.head_height);
    }

    for (const NodeSample& s : nodes) {
        NodeState& st = states_[s.node];
        if (!st.seen) {
            st.seen = true;
            st.decided_at_progress = s.decided;
            st.soft_at_progress = s.soft_timeouts;
            st.last_backlog = s.head_height - std::min(s.head_height, s.base_height);
        }

        if (!s.alive) {
            // A crashed node's frozen counters are expected; flag the
            // outage itself and skip the progress rules.
            if (!st.down_seen) {
                st.down_seen = true;
                fire(s.node, AlarmKind::kNodeDown, now,
                     zc::format("node stopped answering at decided {}, head {}", s.decided,
                                s.head_height));
            }
            continue;
        }

        if (st.down_seen) {
            // Back from the dead: the replica restarted with fresh
            // counters, so re-baseline every differential rule and track
            // the catch-up phase until the chain head converges.
            st.down_seen = false;
            st.rejoining = true;
            st.stalled_rejoin_samples = 0;
            st.decided_at_progress = s.decided;
            st.soft_at_progress = s.soft_timeouts;
            st.last_backlog = s.head_height - std::min(s.head_height, s.base_height);
            st.backlog_growth = 0;
            st.decided_offset = frontier > s.decided ? frontier - s.decided : 0;
        }

        if (st.rejoining) {
            if (s.head_height + config_.rejoin_lag_blocks >= head_frontier) {
                st.rejoining = false;
                st.stalled_rejoin_samples = 0;
                clear(s.node, AlarmKind::kNodeDown, now);
                clear(s.node, AlarmKind::kRejoinStalled, now);
                // Catch-up reached the head: re-baseline the progress
                // rules here — a rejoiner refills its gap via state
                // transfer, which never moves the decided counter, so the
                // offset must be re-anchored at convergence.
                st.decided_at_progress = s.decided;
                st.soft_at_progress = s.soft_timeouts;
                st.last_backlog = s.head_height - std::min(s.head_height, s.base_height);
                st.backlog_growth = 0;
                st.decided_offset = frontier > s.decided ? frontier - s.decided : 0;
            } else {
                if (++st.stalled_rejoin_samples >= config_.rejoin_stalled_samples) {
                    fire(s.node, AlarmKind::kRejoinStalled, now,
                         zc::format("head {} still trails cluster head {} after {} samples",
                                    s.head_height, head_frontier, st.stalled_rejoin_samples));
                }
                // Catch-up is a distinct phase: stalled counters and a
                // trailing decided count are expected while the gap is
                // being refilled, so the progress rules stay off.
                continue;
            }
        }

        // Stalled view: soft timers keep expiring but nothing commits.
        // Resumed commit progress clears the alarm (a view change that
        // eventually lands must not latch it for the rest of a soak).
        if (s.decided > st.decided_at_progress) {
            st.decided_at_progress = s.decided;
            st.soft_at_progress = s.soft_timeouts;
            clear(s.node, AlarmKind::kStalledView, now);
        } else if (s.soft_timeouts - st.soft_at_progress >= config_.stalled_soft_timeouts) {
            fire(s.node, AlarmKind::kStalledView, now,
                 zc::format("no commit progress since {} decided; {} soft timeouts, "
                            "{} hard, {} view changes",
                            s.decided, s.soft_timeouts - st.soft_at_progress, s.hard_timeouts,
                            s.view_changes));
        }

        // Checkpoint lag: the head ran away from the stable checkpoint.
        if (s.head_height > s.stable_height &&
            s.head_height - s.stable_height > config_.checkpoint_lag_blocks) {
            fire(s.node, AlarmKind::kCheckpointLag, now,
                 zc::format("stable checkpoint at block {} trails head {} by {} blocks",
                            s.stable_height, s.head_height,
                            s.head_height - s.stable_height));
        } else {
            clear(s.node, AlarmKind::kCheckpointLag, now);
        }

        // Export backlog: unexported span growing monotonically.
        if (config_.watch_export) {
            const std::uint64_t backlog = s.head_height - std::min(s.head_height, s.base_height);
            if (backlog > st.last_backlog) {
                ++st.backlog_growth;
            } else {
                st.backlog_growth = 0;
            }
            st.last_backlog = backlog;
            if (st.backlog_growth >= config_.export_backlog_samples &&
                backlog >= config_.export_backlog_min_blocks) {
                fire(s.node, AlarmKind::kExportBacklog, now,
                     zc::format("{} unexported blocks, growing for {} samples", backlog,
                                st.backlog_growth));
            }
        }

        // Divergence: this node trails the cluster commit frontier
        // (restarted replicas compare with their pre-crash offset).
        const std::uint64_t effective = s.decided + st.decided_offset;
        if (frontier > effective && frontier - effective > config_.divergence_entries) {
            fire(s.node, AlarmKind::kDivergence, now,
                 zc::format("decided {} trails cluster frontier {} by {} entries (logged {})",
                            effective, frontier, frontier - effective, s.logged));
        } else {
            clear(s.node, AlarmKind::kDivergence, now);
        }
    }
}

std::string HealthMonitor::json() const {
    std::string out;
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"samples\":%" PRIu64
                  ",\"config\":{\"sample_every_cycles\":%u,\"stalled_soft_timeouts\":%u,"
                  "\"checkpoint_lag_blocks\":%" PRIu64
                  ",\"export_backlog_samples\":%u,\"export_backlog_min_blocks\":%" PRIu64
                  ",\"watch_export\":%s,\"divergence_entries\":%" PRIu64
                  ",\"rejoin_lag_blocks\":%" PRIu64 ",\"rejoin_stalled_samples\":%u},\"alarms\":",
                  samples_, kSampleEveryCycles, config_.stalled_soft_timeouts,
                  config_.checkpoint_lag_blocks, config_.export_backlog_samples,
                  config_.export_backlog_min_blocks, config_.watch_export ? "true" : "false",
                  config_.divergence_entries, config_.rejoin_lag_blocks,
                  config_.rejoin_stalled_samples);
    out += buf;
    out += alarms_json(alarms_);
    out += "}";
    return out;
}

}  // namespace zc::health
