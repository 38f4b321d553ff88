// Simulated message-passing network.
//
// Models the consensus Ethernet between ZugChain nodes and the LTE uplink
// to the data centers: per-endpoint egress serialization at a configurable
// bandwidth (a single NIC per device, so bursts queue), propagation latency
// with jitter, probabilistic loss, and partitions. Per-endpoint byte meters
// feed the network-utilization axis of Fig. 6.
//
// Beyond fail-stop faults the network models *gray* failures: per-message
// duplication, reordering (a bounded extra delay permutes delivery order),
// payload corruption (detected by the link-layer FCS and dropped at the
// receiver NIC), bounded NIC queues that overflow under bursts, degradation
// ramps (bandwidth/latency/loss drifting over a window), and asymmetric
// partitions (`set_blocked` is directional: A->B dead while B->A alive).
// Every drop is attributed to a cause so experiments can tell loss from
// partition from overflow from corruption.
//
// The network provides partial synchrony exactly as the paper assumes:
// delivery is asynchronous with bounded (but load-dependent) delay; the
// protocol layers never rely on timing for safety. All randomness comes
// from the simulation RNG fork "network", so same seed => same behavior.
//
// Endpoints may live on different event queues (a train's replicas on
// the train's queue, data-center ports on the fleet's; see fleet::Fleet).
// A delivery is scheduled on the receiver's queue, keyed by the sender's
// queue. The network's own queue is the train side. Its sends to another
// queue happen while that side waits for the next barrier, so they wait
// in an outbox until the fleet flushes it there. Sends from another
// queue happen at a barrier, while the train is paused, and go straight
// onto the receiver's queue. With one queue nothing is buffered.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace zc::net {

/// Global endpoint identifier (ZugChain nodes, data centers).
using EndpointId = std::uint32_t;

/// Receiver interface; implemented by node/data-center runtimes.
class Endpoint {
public:
    virtual ~Endpoint() = default;
    virtual void deliver(EndpointId from, Bytes message) = 0;
};

/// Transmission characteristics of a directed link.
struct LinkProfile {
    Duration latency{microseconds(100)};  ///< propagation delay
    Duration jitter{microseconds(50)};    ///< uniform extra delay in [0, jitter]
    double bandwidth_bps = 100e6;         ///< egress serialization rate
    double loss = 0.0;                    ///< per-message drop probability

    // --- gray-failure knobs (all default off) ---
    double duplicate = 0.0;        ///< probability a message is delivered twice
    double reorder = 0.0;          ///< probability a message is held back
    Duration reorder_window{0};    ///< held-back messages gain uniform extra
                                   ///< delay in [0, reorder_window]
    double corrupt = 0.0;          ///< probability the payload is flipped in
                                   ///< flight; the FCS catches it and the
                                   ///< frame is dropped at the receiver NIC
    Duration max_queue{0};         ///< bound on NIC queueing delay; messages
                                   ///< that would wait longer are dropped as
                                   ///< overflow (zero = unbounded)

    /// The testbed's 100 Mbit/s on-train Ethernet.
    static LinkProfile train_ethernet() { return LinkProfile{}; }

    /// The paper's LTE uplink: ~8.5 Mbit/s, tens of ms RTT.
    static LinkProfile lte() {
        return LinkProfile{milliseconds(35), milliseconds(15), 8.5e6, 0.0};
    }
};

/// Gradual degradation of a link: starting at `start`, the effective profile
/// drifts linearly over `duration` from its configured values toward the
/// scaled end state, then holds there (`hold`) or snaps back (recovered).
/// Models slow-creep failures: a corroding connector, a congested cell.
struct LinkRamp {
    TimePoint start{};
    Duration duration{seconds(60)};
    double bandwidth_scale_end = 1.0;  ///< bandwidth multiplier at full ramp
    double latency_scale_end = 1.0;    ///< latency/jitter multiplier at full ramp
    double loss_end = 0.0;             ///< additional loss probability at full ramp
    bool hold = true;                  ///< keep end state after the window
};

/// Why a message never made it. Order is part of the report format.
enum class DropCause : std::uint8_t {
    kLoss = 0,        ///< random per-message loss
    kPartition,       ///< blocked link or powered-down receiver
    kNicOverflow,     ///< sender NIC queue bound exceeded
    kCorrupt,         ///< payload corrupted in flight, FCS discard
};

/// Per-endpoint traffic counters. `messages_dropped` stays the aggregate
/// (baseline compatibility); the `dropped_*` fields attribute each drop to
/// its cause and always sum to the aggregate.
struct TrafficStats {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t messages_dropped = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_nic_overflow = 0;
    std::uint64_t dropped_corrupt = 0;
    std::uint64_t messages_duplicated = 0;  ///< extra copies injected
    std::uint64_t messages_reordered = 0;   ///< messages held back
};

class Network {
public:
    /// Per-message framing overhead added to the byte meters and
    /// serialization time (Ethernet + IP + TCP headers).
    static constexpr std::size_t kFrameOverhead = 66;

    explicit Network(sim::Simulation& sim);

    /// Registers an endpoint. The pointer must outlive the network.
    /// `queue` is the event queue the endpoint runs on (its deliveries
    /// are scheduled there); null means the network's own.
    void attach(EndpointId id, Endpoint* endpoint, sim::Simulation* queue = nullptr);

    /// Profile applied to links without a specific override.
    void set_default_profile(const LinkProfile& profile) { default_profile_ = profile; }

    /// Overrides the directed link from -> to.
    void set_profile(EndpointId from, EndpointId to, const LinkProfile& profile);

    /// Installs a degradation ramp on the directed link from -> to.
    void set_ramp(EndpointId from, EndpointId to, const LinkRamp& ramp);
    void clear_ramp(EndpointId from, EndpointId to);

    /// Installs a degradation ramp on every message sent by `id`,
    /// regardless of destination (a limping NIC). Composes with link ramps.
    void set_egress_ramp(EndpointId id, const LinkRamp& ramp);
    void clear_egress_ramp(EndpointId id);

    /// Sends a message; it is metered, serialized on the sender's NIC,
    /// delayed, possibly duplicated/reordered/corrupted/dropped, and
    /// finally delivered.
    void send(EndpointId from, EndpointId to, Bytes message);

    /// Cuts / restores the directed pair. Calls are directional: cutting
    /// only from -> to yields an asymmetric partition (A hears B, B does
    /// not hear A); cut both directions for a full partition.
    void set_blocked(EndpointId from, EndpointId to, bool blocked);
    bool blocked(EndpointId from, EndpointId to) const {
        return blocked_.contains({from, to});
    }

    /// Marks an endpoint as powered down (crashed node): messages already
    /// in flight and new arrivals are dropped at the receiver NIC and
    /// counted in the receiver's `dropped_partition`, instead of being
    /// silently delivered into a dead process.
    void set_endpoint_down(EndpointId id, bool down);

    const TrafficStats& stats(EndpointId id);

    /// Sum of payload+framing bytes sent by all endpoints.
    std::uint64_t total_bytes_sent() const noexcept { return total_bytes_sent_; }

    /// Schedules the buffered deliveries from this network's queue to
    /// other queues, at the barrier `barrier` the other side is about to
    /// run to. A delivery due at or before it would have been missed:
    /// that breaks the lookahead the caller promised, so this throws
    /// std::logic_error instead of delivering it out of order.
    void flush_outbox(TimePoint barrier);
    std::size_t outbox_size() const noexcept { return outbox_.size(); }

    /// Egress utilization of an endpoint over (since, now] against the
    /// given capacity, in [0, 1].
    double egress_utilization(EndpointId id, TimePoint since, std::uint64_t bytes_at_since,
                              double bandwidth_bps);

    /// The profile of from -> to with any active ramps applied at `now`.
    LinkProfile effective_profile(EndpointId from, EndpointId to) const;

private:
    struct Attached {
        Endpoint* endpoint = nullptr;
        sim::Simulation* queue = nullptr;
    };
    struct Buffered {
        sim::Simulation* queue;
        TimePoint at;
        sim::EventId key;
        std::function<void()> fn;
    };

    sim::Simulation& queue_of(EndpointId id) const;
    const LinkProfile& profile_for(EndpointId from, EndpointId to) const;
    void apply_ramp(LinkProfile& p, const LinkRamp& ramp) const;
    void drop(TrafficStats& side, DropCause cause);
    void deliver_copy(EndpointId from, EndpointId to, TimePoint arrival, Bytes message,
                      std::size_t wire_bytes, bool corrupted);

    sim::Simulation& sim_;
    Rng rng_;
    LinkProfile default_profile_{};
    std::unordered_map<EndpointId, Attached> endpoints_;
    bool cross_queue_ = false;  ///< some endpoint lives on another queue
    std::vector<Buffered> outbox_;
    std::map<std::pair<EndpointId, EndpointId>, LinkProfile> overrides_;
    std::map<std::pair<EndpointId, EndpointId>, LinkRamp> ramps_;
    std::map<EndpointId, LinkRamp> egress_ramps_;
    std::unordered_map<EndpointId, TimePoint> egress_free_;
    std::unordered_map<EndpointId, TrafficStats> stats_;
    std::set<std::pair<EndpointId, EndpointId>> blocked_;
    std::set<EndpointId> down_;
    std::uint64_t total_bytes_sent_ = 0;
};

}  // namespace zc::net
