// Fleet orchestrator: N independent train shards on one virtual clock,
// exporting into shared data centers. A single consist is a fleet of one:
// runtime::Scenario is a one-train Fleet plus the measurement window.
//
// Each shard is a complete consist (runtime::TrainShard: 4-node PBFT
// cluster, MVB bus, ATP generator, durable chains) with its *own*
// net::Network — trains never talk to each other, so the per-shard
// endpoint plan (replicas 0..n-1, DCs at 100+d) needs no renumbering.
//
// Train-parallel event queues: in a fleet of more than one train every
// shard schedules on its own sim::Simulation, and the fleet's queue
// (sim()) holds the data centers, their ingest executors, the fleet's
// ticks and whatever a harness schedules. Trains couple only through the
// DCs, across an LTE uplink whose one-way latency is a lookahead: the
// window loop (run/run_for) advances every train to a barrier at most
// that far ahead — and never past the next fleet-queue event — on a
// small worker pool, flushes the train->DC messages buffered meanwhile
// into the fleet queue, then runs the fleet queue to the barrier on the
// calling thread. Fleet-queue events therefore see every train paused,
// after all train events at or before their time. Events order by
// (time, origin queue, origin's own counter), so the output depends on
// neither the worker count nor where the barriers fall. A one-train
// fleet keeps one queue and never enters the window loop, which keeps
// it the single consist byte for byte. A traced or profiled fleet runs
// the same windows on the calling thread.
//
// Shared infrastructure crossing shard boundaries:
//   * FleetDataCenter (one per company, the only data-center host): a
//     port on every shard network signing with the DC key that shard
//     drew, a per-train export core, and one ingest executor all trains
//     contend for.
//   * FleetIndex: the cross-fleet archive index (dedup by block hash,
//     keyed by train id; cross-shard collisions pinned to zero).
//   * One sampling tick: each train's snapshots feed its HealthMonitor,
//     its liveness judge and a FleetRollup row; per-shard SafetyAuditors
//     and liveness judges when auditing is on.
//
// Determinism strategy: construction order is fixed (shards in train
// order, each with its network, node keys and DC keys; then DCs in id
// order adding shards in train order). Per-train queues draw from the
// fleet root, and every shard forks its rng streams with the same
// unlabelled names a single consist uses; fork() itself advances the
// parent stream, so the shards still draw decorrelated streams, and
// train 0 draws exactly the streams of the single consist
// built from the same seed (with no DCs, train 0's chains are that
// consist's chains). Same seed -> byte-identical reports, rollups and
// stores.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "faults/auditor.hpp"
#include "fleet/chaos.hpp"
#include "fleet/fleet_dc.hpp"
#include "fleet/rollup.hpp"
#include "fleet/worker_pool.hpp"
#include "health/monitor.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

namespace zc::fleet {

struct FleetConfig {
    std::uint32_t trains = 8;
    std::uint64_t seed = 1;

    /// Per-shard template. Fleet overrides, per shard: dc_count (from the
    /// fleet), the LTE link (the train's share of its cell), warmup and
    /// duration, the trace sink and the fault plan (from `faults`). The
    /// template's own FaultPlan must be empty (the constructor throws
    /// otherwise): per-train faults belong in `faults`. Its audit_period
    /// paces the fleet's audit tick. store_root, auditor, byzantine and
    /// the health taps are per-consist settings: honoured as given for a
    /// one-train fleet, rejected (std::invalid_argument) for more trains —
    /// use the fleet's store_root, audit, byzantine and monitors instead.
    /// A (configured) liveness judge watches train 0; the caller finishes it.
    runtime::ScenarioConfig train;

    std::uint32_t dc_count = 2;
    /// Each data center's ingestion tier: cores and bounded queue shared
    /// by *all* trains (0 = unbounded queue).
    int dc_ingest_cores = 8;
    std::size_t dc_ingest_queue = 4096;

    /// LTE cell sharing: this many trains share one cell, so each shard's
    /// uplink gets bandwidth / trains_per_cell (static division — the
    /// deterministic stand-in for dynamic cell contention).
    std::uint32_t trains_per_cell = 8;

    /// Periodic exports: every train starts a round every export_period,
    /// staggered by export_period / trains so the DC frontend sees a
    /// steady arrival process, preferring DC (train % dc_count) and
    /// failing over to the next DC that is up. The export-backlog watchdog
    /// scales with it (a train legitimately backs up a period's worth of
    /// blocks between rounds). 0 = no periodic exports.
    Duration export_period{seconds(10)};

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};

    /// Nodes persist chains under store_root/train-<t>/node-<i>
    /// (inspectable with zc_inspect --store-dir store_root).
    std::optional<std::filesystem::path> store_root;

    /// Sampling tick cadence (per-shard monitors, judges, rollup rows);
    /// 0 = the template's health cadence, or no tick without a consumer
    /// (config() then reports the cadence in use).
    bool monitors = true;
    Duration sample_period{milliseconds(256)};

    /// Per-shard safety auditors + a final audit pass in run(), on the
    /// template's audit_period; plus per-train liveness judges, finished
    /// by run().
    bool audit = false;

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

    /// Worker threads advancing the trains' queues, counting the calling
    /// thread: 0 = min(trains, hardware threads); any value is clamped to
    /// the train count. Threads start on the first run, run_for or audit
    /// pass, never in the constructor. A fleet with a trace sink or an
    /// active prof::Profiler runs on the calling thread. The output does
    /// not depend on this.
    std::uint32_t jobs = 0;
};

/// Merged-trace pid plan: every train shard gets a disjoint 1000-wide pid
/// band (train t, node i -> 1000*t+i, so train 0 keeps the single-consist
/// pids 0..n-1) while the shared data centers keep the single-consist
/// convention (DC d -> 100+d). Process labels and tests use these helpers
/// so the mapping has exactly one definition.
inline constexpr NodeId trace_pid(TrainId train, NodeId node) noexcept {
    return 1000u * train + node;
}
inline constexpr NodeId dc_trace_pid(DataCenterId dc) noexcept { return kDcEndpointBase + dc; }

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
    std::uint64_t liveness_violations = 0;
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
    std::uint64_t liveness_violations = 0;
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

    /// The worker count run/run_for use: 1 when traced or profiled,
    /// else pool_size(config.jobs, trains, hardware threads).
    unsigned workers() const noexcept { return workers_; }
    static unsigned pool_size(std::uint32_t jobs, std::uint32_t trains,
                              unsigned hardware) noexcept;

    /// Window bound: the least one-way train->DC latency any train's
    /// uplink can reach (Duration::max() when there is no DC).
    Duration lookahead() const noexcept { return lookahead_; }
    /// Test-only: widens (or narrows) the window bound, so a test can
    /// prove that a delivery inside a window throws instead of landing
    /// out of order.
    void override_lookahead(Duration l) noexcept { lookahead_ = l; }

    /// Pending events on every queue, buffered deliveries included.
    std::size_t pending_events() const noexcept;

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
    const health::HealthMonitor* monitor(TrainId t) const {
        return monitors_.empty() ? nullptr : monitors_.at(t);
    }
    /// Train t's safety auditor, null when auditing is off.
    const faults::SafetyAuditor* auditor(TrainId t) const {
        return auditors_.empty() ? nullptr : auditors_.at(t);
    }
    /// Train t's liveness judge, null when it has none.
    const faults::LivenessAuditor* liveness(TrainId t) const { return judges_.at(t); }
    /// The fleet queue (DCs, fleet ticks, harness events). In a one-train
    /// fleet it is also the train's queue. Advance a fleet of several
    /// trains with run/run_for: running this queue alone leaves the
    /// trains behind.
    sim::Simulation& sim() noexcept { return sim_; }
    const FleetConfig& config() const noexcept { return config_; }

private:
    void build();
    /// The window loop: advances every queue to `horizon`.
    void advance_to(TimePoint horizon);
    /// fn(t) for every train on the pool (train t offered to worker
    /// t mod workers() first).
    void for_each_train(const std::function<void(TrainId)>& fn);
    void export_tick(TrainId train);
    void sample_tick();
    void audit_tick();
    void audit_shard(TrainId train);

    FleetConfig config_;
    sim::Simulation sim_;
    /// One queue per train in a multi-train fleet (empty for one train).
    std::vector<std::unique_ptr<sim::Simulation>> queues_;
    Duration lookahead_ = Duration::max();
    unsigned workers_ = 1;
    std::unique_ptr<crypto::CryptoProvider> provider_;
    std::vector<std::unique_ptr<net::Network>> networks_;
    std::vector<std::unique_ptr<trace::OffsetSink>> shard_sinks_;
    /// One per train when auditing (the fleet's own, or a one-train
    /// template's auditor); empty otherwise.
    std::vector<faults::SafetyAuditor*> auditors_;
    std::vector<std::unique_ptr<faults::SafetyAuditor>> owned_auditors_;
    std::vector<faults::LivenessAuditor*> judges_;  ///< one per train, null = unjudged
    std::vector<std::unique_ptr<faults::LivenessAuditor>> owned_judges_;
    std::vector<std::unique_ptr<runtime::TrainShard>> shards_;
    FleetIndex index_;
    std::vector<std::unique_ptr<FleetDataCenter>> dcs_;
    /// One per train (the fleet's own or a one-train template's), or none.
    std::vector<health::HealthMonitor*> monitors_;
    std::vector<std::unique_ptr<health::HealthMonitor>> owned_monitors_;
    FleetRollup rollup_;
    bool stop_sampling_ = false;
    std::unique_ptr<WorkerPool> pool_;  ///< made on the first parallel pass
};

}  // namespace zc::fleet
