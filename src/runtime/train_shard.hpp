// One consist's complete on-train rig, reusable across harnesses: the
// consist network's link profiles, the permissioned key membership, ATP
// signal generator, MVB-like bus (plus optional extra input buses), the n
// ZugChain nodes with their protocol stacks, validated state-transfer
// wiring between them, crash/restart control, and the consist's fault
// plan (runtime/fault_plan.hpp): crashes, restarts, link flaps, egress
// ramps, rate windows and CPU profiles all run here.
//
// fleet::Fleet composes one TrainShard per train on one virtual clock —
// each shard gets its own net::Network (trains do not talk to each
// other) and, in a fleet of several trains, its own event queue, which
// the fleet advances in lock-step with the data centers' (see
// fleet/fleet.hpp). runtime::Scenario (the paper's single-consist
// testbed) is a one-train Fleet plus the measurement window.
#pragma once

#include <memory>
#include <vector>

#include "crypto/context.hpp"
#include "health/monitor.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/node.hpp"
#include "train/generator.hpp"

namespace zc::runtime {

/// The substrate one shard plugs into: the queue everything on the train
/// schedules on (the fleet's own for a one-train fleet, a peer queue of
/// it otherwise), the shard's network and the shared provider. Peer
/// queues draw from the fleet's root stream, so shards fork their rng
/// streams with the same labels in construction order; Rng::fork
/// advances the parent stream, so each shard still draws decorrelated
/// streams.
struct ShardEnv {
    sim::Simulation* sim = nullptr;
    net::Network* net = nullptr;
    crypto::CryptoProvider* provider = nullptr;
};

class TrainShard {
public:
    TrainShard(ScenarioConfig config, ShardEnv env);
    ~TrainShard();

    TrainShard(const TrainShard&) = delete;
    TrainShard& operator=(const TrainShard&) = delete;

    /// Puts the config's crash, restart and link-flap schedules on the
    /// virtual clock and installs its egress ramps (rate windows and CPU
    /// profiles were applied at construction). Call once, after the
    /// harness attached its data centers and before start(): the event
    /// queue breaks time ties by insertion order, so this position is
    /// part of the replay.
    void schedule_faults();

    /// Starts the main bus master (extra buses start at construction, as
    /// the classic build order did). Call after schedule_faults().
    void start();

    Node& node(std::size_t i) { return *nodes_.at(i); }
    const Node& node(std::size_t i) const { return *nodes_.at(i); }
    std::size_t node_count() const noexcept { return nodes_.size(); }

    /// Crash / restart (same path the harness schedules use). Restart
    /// rejoins in the highest view among surviving replicas and re-wires
    /// validated state transfer.
    void crash_node(NodeId id);
    void restart_node(NodeId id);

    std::uint64_t state_transfer_fetches() const noexcept { return state_transfer_fetches_; }
    std::uint64_t state_transfer_blocks() const noexcept { return state_transfer_blocks_; }
    std::uint64_t state_transfer_rejected() const noexcept { return state_transfer_rejected_; }

    /// Cumulative health counters of one node, for watchdog/time-series
    /// sampling on the harness's cadence.
    health::NodeSample snapshot_node(std::size_t i) const;

    /// Ground-truth views for a SafetyAuditor audit pass.
    std::vector<faults::ReplicaView> replica_views();

    crypto::KeyDirectory& directory() noexcept { return directory_; }

    /// The keypair data center d signs with on this consist (drawn by the
    /// shard after the node keys and registered in its directory).
    const crypto::KeyPair& dc_key(DataCenterId d) const { return dc_keys_.at(d); }

    bus::Bus& train_bus() noexcept { return *bus_; }
    net::Network& network() noexcept { return *env_.net; }

    /// The shard's own config copy (the harness's template with this
    /// train's fault plan, store root and auditor filled in).
    const ScenarioConfig& config() const noexcept { return config_; }

private:
    struct SourceTap;
    struct ExtraBusRig {
        std::unique_ptr<train::SignalGenerator> generator;
        std::unique_ptr<bus::Bus> bus;
        std::vector<std::unique_ptr<SourceTap>> taps;
    };

    void build();
    void install_state_fetcher(Node& node);
    /// Blocks (or reopens) the links a flap cuts: for kLte every
    /// node <-> data-center pair, for kNode the node's links to its peers
    /// and the DCs (outbound only when asymmetric). Emits the link trace
    /// event.
    void apply_flap(const FaultPlan::LinkFlap& flap, bool blocked);

    ScenarioConfig config_;  ///< shard-local copy; nodes hold references into it
    ShardEnv env_;
    crypto::KeyDirectory directory_;
    /// The nominal device cost table. Nodes named in the plan's
    /// `cpu_profiles` charge an owned scaled copy instead (a degraded /
    /// constrained device; stable addresses — Node holds a reference for
    /// its lifetime).
    metrics::CostModel node_costs_;
    std::vector<std::unique_ptr<metrics::CostModel>> degraded_costs_;
    std::vector<crypto::KeyPair> dc_keys_;
    std::unique_ptr<train::SignalGenerator> generator_;
    std::unique_ptr<bus::Bus> bus_;
    std::vector<ExtraBusRig> extra_buses_;
    std::vector<std::unique_ptr<Node>> nodes_;

    std::uint64_t state_transfer_fetches_ = 0;
    std::uint64_t state_transfer_blocks_ = 0;
    std::uint64_t state_transfer_rejected_ = 0;

    /// The auditor verifies signatures with its own metered context (an
    /// observer outside the deployment; its CPU is not a node's CPU).
    crypto::WorkMeter audit_meter_;
    std::unique_ptr<crypto::CryptoContext> audit_crypto_;
};

}  // namespace zc::runtime
