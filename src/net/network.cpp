#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"

namespace zc::net {

Network::Network(sim::Simulation& sim) : sim_(sim), rng_(sim.rng().fork("network")) {}

void Network::attach(EndpointId id, Endpoint* endpoint, sim::Simulation* queue) {
    if (endpoint == nullptr) throw std::invalid_argument("null endpoint");
    if (queue == nullptr) queue = &sim_;
    if (queue != &sim_) cross_queue_ = true;
    endpoints_[id] = Attached{endpoint, queue};
}

sim::Simulation& Network::queue_of(EndpointId id) const {
    const auto it = endpoints_.find(id);
    return it != endpoints_.end() ? *it->second.queue : sim_;
}

void Network::flush_outbox(TimePoint barrier) {
    for (Buffered& b : outbox_) {
        if (b.at <= barrier) {
            outbox_.clear();
            throw std::logic_error("network: a cross-queue delivery is due before the barrier "
                                   "it was buffered for (lookahead violated)");
        }
        b.queue->schedule_keyed(b.at, b.key, std::move(b.fn));
    }
    outbox_.clear();
}

void Network::set_profile(EndpointId from, EndpointId to, const LinkProfile& profile) {
    overrides_[{from, to}] = profile;
}

void Network::set_ramp(EndpointId from, EndpointId to, const LinkRamp& ramp) {
    ramps_[{from, to}] = ramp;
}

void Network::clear_ramp(EndpointId from, EndpointId to) { ramps_.erase({from, to}); }

void Network::set_egress_ramp(EndpointId id, const LinkRamp& ramp) { egress_ramps_[id] = ramp; }

void Network::clear_egress_ramp(EndpointId id) { egress_ramps_.erase(id); }

const LinkProfile& Network::profile_for(EndpointId from, EndpointId to) const {
    const auto it = overrides_.find({from, to});
    return it != overrides_.end() ? it->second : default_profile_;
}

void Network::apply_ramp(LinkProfile& p, const LinkRamp& ramp) const {
    const TimePoint now = sim_.now();
    if (now < ramp.start) return;
    double progress = 1.0;
    if (ramp.duration > Duration::zero() && now < ramp.start + ramp.duration) {
        progress = to_seconds(now - ramp.start) / to_seconds(ramp.duration);
    } else if (!ramp.hold && now >= ramp.start + ramp.duration) {
        return;  // window over, link recovered
    }
    const auto lerp = [progress](double from, double to) {
        return from + (to - from) * progress;
    };
    p.bandwidth_bps = std::max(1.0, p.bandwidth_bps * lerp(1.0, ramp.bandwidth_scale_end));
    const double lat_scale = lerp(1.0, ramp.latency_scale_end);
    p.latency = Duration{static_cast<std::int64_t>(
        static_cast<double>(p.latency.count()) * lat_scale)};
    p.jitter = Duration{static_cast<std::int64_t>(
        static_cast<double>(p.jitter.count()) * lat_scale)};
    p.loss = std::clamp(p.loss + lerp(0.0, ramp.loss_end), 0.0, 1.0);
}

LinkProfile Network::effective_profile(EndpointId from, EndpointId to) const {
    LinkProfile p = profile_for(from, to);
    if (const auto eit = egress_ramps_.find(from); eit != egress_ramps_.end()) {
        apply_ramp(p, eit->second);
    }
    if (const auto lit = ramps_.find({from, to}); lit != ramps_.end()) {
        apply_ramp(p, lit->second);
    }
    return p;
}

void Network::drop(TrafficStats& side, DropCause cause) {
    side.messages_dropped += 1;
    switch (cause) {
        case DropCause::kLoss: side.dropped_loss += 1; break;
        case DropCause::kPartition: side.dropped_partition += 1; break;
        case DropCause::kNicOverflow: side.dropped_nic_overflow += 1; break;
        case DropCause::kCorrupt: side.dropped_corrupt += 1; break;
    }
}

void Network::deliver_copy(EndpointId from, EndpointId to, TimePoint arrival, Bytes message,
                           std::size_t wire_bytes, bool corrupted) {
    auto deliver = [this, from, to, msg = std::move(message), wire_bytes,
                    corrupted]() mutable {
        const auto it = endpoints_.find(to);
        if (it == endpoints_.end()) {
            ZC_DEBUG("net", "message to unknown endpoint {} dropped", to);
            return;
        }
        TrafficStats& receiver = stats_[to];
        if (down_.contains(to)) {
            drop(receiver, DropCause::kPartition);
            return;
        }
        if (corrupted) {
            // The link-layer FCS catches the flipped payload; the frame is
            // discarded at the receiver NIC before the stack sees it.
            drop(receiver, DropCause::kCorrupt);
            return;
        }
        receiver.bytes_received += wire_bytes;
        receiver.messages_received += 1;
        it->second.endpoint->deliver(from, std::move(msg));
    };
    if (!cross_queue_) {
        sim_.schedule_at(arrival, std::move(deliver));
        return;
    }
    sim::Simulation& src = queue_of(from);
    sim::Simulation& dst = queue_of(to);
    if (&src == &dst) {
        dst.schedule_at(arrival, std::move(deliver));
    } else if (&src == &sim_) {
        outbox_.push_back(Buffered{&dst, arrival, src.next_key(), std::move(deliver)});
    } else {
        dst.schedule_keyed(arrival, src.next_key(), std::move(deliver));
    }
}

void Network::send(EndpointId from, EndpointId to, Bytes message) {
    const LinkProfile profile = effective_profile(from, to);
    const std::size_t wire_bytes = message.size() + kFrameOverhead;

    TrafficStats& sender = stats_[from];
    sender.bytes_sent += wire_bytes;
    sender.messages_sent += 1;
    total_bytes_sent_ += wire_bytes;

    if (blocked_.contains({from, to})) {
        drop(sender, DropCause::kPartition);
        return;
    }
    if (profile.loss > 0.0 && rng_.chance(profile.loss)) {
        drop(sender, DropCause::kLoss);
        return;
    }

    // Serialize on the sender's NIC: transmission begins when the NIC is
    // free, takes size/bandwidth, then propagates. A bounded NIC queue
    // overflows (tail drop) when the wait would exceed the bound. A
    // zero/absurd bandwidth clamps to 1 bit/s and the transmission time to
    // a finite bound (the message effectively never arrives, without the
    // division-by-zero / int64-overflow a raw cast would hit).
    const double tx_ns = static_cast<double>(wire_bytes) * 8.0 /
                         std::max(1.0, profile.bandwidth_bps) * 1e9;
    const Duration tx{static_cast<std::int64_t>(std::min(tx_ns, 4.0e18))};
    TimePoint& nic_free = egress_free_.try_emplace(from, TimePoint{0}).first->second;
    const TimePoint tx_start = std::max(sim_.now(), nic_free);
    if (profile.max_queue > Duration::zero() && tx_start - sim_.now() > profile.max_queue) {
        drop(sender, DropCause::kNicOverflow);
        return;
    }
    const TimePoint tx_done = tx_start + tx;
    nic_free = tx_done;

    // Gray perturbations are decided in a fixed order so the RNG stream is
    // stable: corrupt, duplicate, reorder, then per-copy jitter.
    const bool corrupted = profile.corrupt > 0.0 && rng_.chance(profile.corrupt);
    const bool duplicated = profile.duplicate > 0.0 && rng_.chance(profile.duplicate);
    const bool reordered = profile.reorder > 0.0 && profile.reorder_window > Duration::zero() &&
                           rng_.chance(profile.reorder);

    const auto draw_jitter = [this, &profile] {
        Duration extra{0};
        if (profile.jitter > Duration::zero()) {
            extra = Duration{static_cast<std::int64_t>(
                rng_.next_below(static_cast<std::uint64_t>(profile.jitter.count()) + 1))};
        }
        return extra;
    };

    TimePoint arrival = tx_done + profile.latency + draw_jitter();
    if (reordered) {
        sender.messages_reordered += 1;
        arrival += Duration{static_cast<std::int64_t>(rng_.next_below(
            static_cast<std::uint64_t>(profile.reorder_window.count()) + 1))};
    }

    if (duplicated) {
        // The duplicate is an in-network copy: no second NIC serialization,
        // but its own jitter, so the copies may arrive in either order.
        sender.messages_duplicated += 1;
        const TimePoint dup_arrival = tx_done + profile.latency + draw_jitter();
        deliver_copy(from, to, dup_arrival, message, wire_bytes, corrupted);
    }

    deliver_copy(from, to, arrival, std::move(message), wire_bytes, corrupted);
}

void Network::set_endpoint_down(EndpointId id, bool down) {
    if (down) {
        down_.insert(id);
    } else {
        down_.erase(id);
    }
}

void Network::set_blocked(EndpointId from, EndpointId to, bool blocked) {
    if (blocked) {
        blocked_.insert({from, to});
    } else {
        blocked_.erase({from, to});
    }
}

const TrafficStats& Network::stats(EndpointId id) { return stats_[id]; }

double Network::egress_utilization(EndpointId id, TimePoint since, std::uint64_t bytes_at_since,
                                   double bandwidth_bps) {
    const Duration elapsed = sim_.now() - since;
    if (elapsed <= Duration::zero()) return 0.0;
    const std::uint64_t sent = stats_[id].bytes_sent - bytes_at_since;
    const double bits = static_cast<double>(sent) * 8.0;
    return bits / (bandwidth_bps * to_seconds(elapsed));
}

}  // namespace zc::net
