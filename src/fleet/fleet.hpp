// Fleet orchestrator: N independent train shards on one virtual clock,
// exporting into shared data centers.
//
// Each shard is a complete consist (runtime::TrainShard: 4-node PBFT
// cluster, MVB bus, ATP generator, durable chains) with its *own*
// net::Network — trains never talk to each other, so the per-shard
// endpoint plan (replicas 0..n-1, DCs at 100+d) needs no renumbering.
// All networks run on the single shared sim::Simulation: one event queue,
// one seed, one deterministic interleaving of the whole timetable.
//
// Shared infrastructure crossing shard boundaries:
//   * FleetDataCenter (one per company): a port on every shard network, a
//     per-train export core, one bounded ingest executor all trains
//     contend for, and fleet-shared DC keys registered in every shard's
//     key directory.
//   * FleetIndex: the cross-fleet archive index (dedup by block hash,
//     keyed by train id; cross-shard collisions pinned to zero).
//   * Per-shard HealthMonitors + a FleetRollup time series; per-shard
//     SafetyAuditors when auditing is on.
//
// Determinism strategy: construction order is fixed (DC keys, then shards
// in train order, then DCs in id order adding shards in train order);
// every named rng fork is prefixed "train-<t>-"; fork() itself advances
// the parent stream, so equal labels across shards still yield
// decorrelated streams. Same seed -> byte-identical reports, rollups and
// stores.
#pragma once

#include <memory>
#include <optional>

#include "faults/auditor.hpp"
#include "fleet/chaos.hpp"
#include "fleet/fleet_dc.hpp"
#include "fleet/rollup.hpp"
#include "health/monitor.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {

struct FleetConfig {
    std::uint32_t trains = 8;
    std::uint64_t seed = 1;

    /// Per-shard template. Fleet overrides, per shard: store_root
    /// (store_root/train-<t>), auditor/byzantine wiring, delete_quorum
    /// (clamped to dc_count), dc_count (from the fleet), the LTE link (the
    /// train's share of its cell) and the fault plan (from `faults`).
    /// Health pointers inside the template are ignored — the fleet drives
    /// sampling and audits itself. The template's own FaultPlan must be
    /// empty (the constructor throws otherwise): per-train faults belong
    /// in `faults`.
    runtime::ScenarioConfig train;

    std::uint32_t dc_count = 2;
    int dc_ingest_cores = 8;
    std::size_t dc_ingest_queue = 4096;

    /// LTE cell sharing: this many trains share one cell, so each shard's
    /// uplink gets bandwidth / trains_per_cell (static division — the
    /// deterministic stand-in for dynamic cell contention).
    std::uint32_t trains_per_cell = 8;

    /// Periodic exports: every train starts a round every export_period,
    /// staggered by export_period / trains so the DC frontend sees a
    /// steady arrival process, preferring DC (train % dc_count) and
    /// failing over to the next DC that is up.
    Duration export_period{seconds(10)};

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};

    /// Nodes persist chains under store_root/train-<t>/node-<i>
    /// (inspectable with zc_inspect --store-dir store_root).
    std::optional<std::filesystem::path> store_root;

    /// Fleet health sampling cadence (per-shard monitors + rollup rows).
    bool monitors = true;
    Duration sample_period{milliseconds(256)};
    health::MonitorConfig monitor;

    /// Scale the export-backlog watchdog to the export cadence (a fleet
    /// legitimately accumulates a period's worth of blocks between
    /// rounds; the single-consist default of 64 blocks would cry wolf).
    bool auto_export_thresholds = true;

    /// Per-shard safety auditors + a final audit pass in run().
    bool audit = false;
    Duration audit_period{seconds(5)};

    /// Per-train Byzantine knobs (train -> node -> behaviour).
    std::map<TrainId, std::map<NodeId, runtime::ByzantineBehavior>> byzantine;

    /// Per-train fault plans (the drill, a compiled journey, gray chaos,
    /// merged with FleetFaults::merge) and shared DC outages. Each train's
    /// TrainShard drives its plan on the shared clock (an LTE flap is the
    /// train's dead zone). The constructor rejects a train, node or DC id
    /// out of range, and validates every plan against the f budget
    /// (runtime::validate_faults) unless the template sets
    /// allow_unsafe_chaos.
    FleetFaults faults;

    trace::TraceSink* trace_sink = nullptr;
};

/// Merged-trace pid plan: every train shard gets a disjoint 1000-wide pid
/// band (train t, node i -> 1000*(t+1)+i) while the shared data centers
/// keep the single-consist convention (DC d -> 100+d). Process labels and
/// tests use these helpers so the mapping has exactly one definition.
inline constexpr NodeId trace_pid(TrainId train, NodeId node) noexcept {
    return 1000u * (train + 1u) + node;
}
inline constexpr NodeId dc_trace_pid(DataCenterId dc) noexcept { return 100u + dc; }

struct TrainReport {
    TrainId train = 0;
    std::uint32_t nodes_alive = 0;
    Height head = 0;                ///< best chain head among live nodes
    std::uint64_t logged = 0;       ///< unique requests on the chain
    Height exported_head = 0;       ///< fleet-index archived head
    std::uint64_t exports_completed = 0;
    std::uint64_t exports_failed = 0;
    std::uint64_t active_alarms = 0;
    std::uint64_t audit_violations = 0;
};

struct FleetReport {
    std::uint32_t trains = 0;
    std::uint32_t dc_count = 0;
    double elapsed_s = 0.0;
    std::uint64_t logged_sum = 0;     ///< fleet-wide unique logged requests
    std::uint64_t head_sum = 0;
    std::uint64_t exported_unique = 0;
    std::uint64_t exported_duplicates = 0;
    std::uint64_t cross_shard_collisions = 0;
    std::uint64_t exports_completed = 0;
    std::uint64_t exports_failed = 0;
    std::uint64_t ingest_dropped = 0;
    std::uint64_t audit_violations = 0;
    FleetAlarmSummary alarms;
    std::vector<TrainReport> per_train;

    /// Deterministic single-line JSON (CI cmp's it across same-seed runs).
    std::string json() const;
};

class Fleet {
public:
    explicit Fleet(FleetConfig config);

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    /// Runs warmup + duration, then a final index sweep and (if enabled)
    /// a final audit pass on every shard.
    void run();

    /// Continues the simulation for ad-hoc experiment logic.
    void run_for(Duration d);

    FleetReport report();

    /// One audit pass over every shard (no-op unless auditing is on).
    /// Returns the fleet-wide violation count so far.
    std::uint64_t run_audit();

    runtime::TrainShard& shard(TrainId t) { return *shards_.at(t); }
    std::uint32_t train_count() const noexcept { return config_.trains; }
    FleetDataCenter& data_center(DataCenterId d) { return *dcs_.at(d); }
    std::uint32_t dc_count() const noexcept { return config_.dc_count; }
    const FleetIndex& index() const noexcept { return index_; }
    const FleetRollup& rollup() const noexcept { return rollup_; }
    const health::HealthMonitor* monitor(TrainId t) const;
    const faults::SafetyAuditor* auditor(TrainId t) const;
    /// Mutable auditor handle (the soak runner compacts tap state between
    /// segments); null when auditing is off.
    faults::SafetyAuditor* auditor_handle(TrainId t) {
        return t < auditors_.size() ? auditors_[t].get() : nullptr;
    }
    sim::Simulation& sim() noexcept { return sim_; }
    const FleetConfig& config() const noexcept { return config_; }

private:
    void build();
    void export_tick(TrainId train);
    void sample_tick();
    void audit_tick();
    void audit_shard(TrainId train);

    FleetConfig config_;
    sim::Simulation sim_;
    std::unique_ptr<crypto::CryptoProvider> provider_;
    std::vector<crypto::KeyPair> dc_keys_;
    std::vector<std::unique_ptr<net::Network>> networks_;
    std::vector<std::unique_ptr<trace::OffsetSink>> shard_sinks_;
    std::vector<std::unique_ptr<faults::SafetyAuditor>> auditors_;
    std::vector<std::unique_ptr<runtime::TrainShard>> shards_;
    FleetIndex index_;
    std::vector<std::unique_ptr<FleetDataCenter>> dcs_;
    std::vector<std::unique_ptr<health::HealthMonitor>> monitors_;
    FleetRollup rollup_;
    bool stop_sampling_ = false;
};

}  // namespace zc::fleet
