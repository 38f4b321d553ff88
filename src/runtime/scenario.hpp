// Experiment harness: builds a complete testbed — n ZugChain nodes on a
// shared bus and consensus Ethernet, optional data centers behind an LTE
// uplink, fault schedules — runs it on virtual time and collects the
// metrics the paper reports (latency, network utilization, CPU, memory,
// export timings).
//
// Mirrors the paper's testbed (§V-A): four M-COM-class devices, an
// MVB-like bus fed by an ATP signal generator, 100 Mbit/s consensus
// Ethernet, and an ~8.5 Mbit/s LTE link to cloud data centers.
//
// A Scenario is a one-train fleet::Fleet (built and linked in src/fleet):
// the fleet builds the consist, hosts its data centers, runs the fault
// plan and the audit tick, and its one sampling tick feeds the health
// monitor, the time series and the liveness judge. The Scenario adds
// only what a fleet does not do: the measurement window, memory sampling
// and report().
#pragma once

#include <map>
#include <memory>

#include "export/data_center.hpp"
#include "faults/liveness.hpp"
#include "health/monitor.hpp"
#include "health/timeseries.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/node.hpp"
#include "runtime/train_shard.hpp"
#include "train/generator.hpp"

namespace zc::fleet {
class Fleet;
}

namespace zc::runtime {

/// A single consist's configuration. It *is* a FaultPlan (rather than
/// holding one) so the schedules stay plain fields of the config:
/// `cfg.crash_schedule.emplace_back(...)` reads the same in every harness,
/// and the consist's TrainShard drives them from its config copy.
struct ScenarioConfig : FaultPlan {
    Mode mode = Mode::kZugChain;
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint64_t seed = 1;

    // Workload (paper defaults: 64 ms cycle, block size 10).
    Duration bus_cycle{milliseconds(64)};
    std::size_t payload_size = 1024;
    SeqNo block_size = 10;

    /// Additional input sources beyond the MVB (paper SIII-C "Multiple
    /// Input Sources"), e.g. a ProfiNet segment: each entry creates
    /// another bus with its own signal generator feeding all nodes.
    struct ExtraBus {
        Duration cycle{milliseconds(128)};
        std::size_t payload_size = 256;
    };
    std::vector<ExtraBus> extra_buses;

    // Timers (paper Fig. 8).
    Duration soft_timeout{milliseconds(250)};
    Duration hard_timeout{milliseconds(250)};
    Duration client_timeout{milliseconds(500)};
    Duration request_timeout{milliseconds(500)};
    Duration view_change_timeout{milliseconds(2000)};
    std::size_t max_open_per_origin = 32;

    /// Adaptive timeouts (pbft/adaptive.hpp): the replica's view-change
    /// timer and the layer's soft/hard suspicion timers track observed
    /// round trips instead of the fixed constants above. Off by default
    /// here (library users opt in); zugchain_sim enables it unless
    /// --fixed-timeouts is given.
    pbft::AdaptiveTimeoutConfig adaptive_timeouts;

    // PBFT batch ordering (1 = classic request-per-instance pipeline).
    std::uint32_t batch_max_requests = 1;
    std::size_t batch_max_bytes = 128 * 1024;
    Duration batch_linger{0};

    /// "fast" (HMAC simulation signatures) or "ed25519" (real crypto);
    /// virtual CPU costs are identical either way.
    std::string crypto_provider = "fast";

    int device_cores = 4;
    int protocol_cores = 1;
    std::size_t rx_queue_limit = 2048;

    /// Mild bus unreliability by default (drops/reorders per [9]); clear
    /// for noise-free microbenchmarks.
    bus::TapFaults default_tap_faults{0.002, 0.001, 0.0005, 0.0005};
    std::map<NodeId, bus::TapFaults> tap_faults;

    std::map<NodeId, ByzantineBehavior> byzantine;

    /// Skips the up-front fault-plan validation (validate_faults in
    /// runtime/fault_plan.hpp) for harnesses that deliberately exceed the
    /// f-crash availability budget, e.g. the crash-investigation example
    /// that kills a majority on purpose.
    bool allow_unsafe_chaos = false;

    // Data centers (0 = no export infrastructure).
    std::uint32_t dc_count = 0;
    std::size_t delete_quorum = 2;
    Duration export_timeout{seconds(60)};

    // Export retry policy (see DcConfig): bounded rounds with exponential
    // backoff so an export straddling a link outage completes afterwards.
    std::uint32_t export_max_retries = 8;
    Duration export_retry_backoff{seconds(2)};
    Duration export_retry_backoff_max{seconds(30)};

    // Links.
    net::LinkProfile train_link = net::LinkProfile::train_ethernet();
    net::LinkProfile lte_link = net::LinkProfile::lte();
    net::LinkProfile dc_link{milliseconds(8), milliseconds(2), 1e9, 0.0};

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};
    Duration mem_sample_period{milliseconds(100)};

    /// If set, each node persists its chain under store_root/node-<id>
    /// (inspectable offline with tools/zc_inspect).
    std::optional<std::filesystem::path> store_root;

    /// Request-lifecycle trace sink attached to every node and data
    /// center (null = tracing off). DC events record under trace pid
    /// kDcEndpointBase + dc id, matching the network endpoint numbering.
    trace::TraceSink* trace_sink = nullptr;

    /// Health taps (null = off; zero scheduling cost then). Every
    /// `sample_every_cycles` bus cycles (from the monitor's config, or
    /// the time-series default below otherwise) the fleet's sampling tick
    /// snapshots all nodes on the virtual clock and feeds the watchdog
    /// monitor, the time-series sink and the liveness judge.
    health::HealthMonitor* health_monitor = nullptr;
    health::TimeSeries* health_timeseries = nullptr;
    std::uint32_t timeseries_sample_cycles = 16;  ///< used without a monitor

    /// Safety auditor (null = off). The consist wires node taps and marks
    /// nodes with Byzantine knobs as compromised; an audit pass runs every
    /// `audit_period` (0 = none; this also paces a fleet's audit tick),
    /// and `run_audit()` does the final one.
    faults::SafetyAuditor* auditor = nullptr;
    Duration audit_period{seconds(5)};

    /// Liveness auditor (null = off), configured by the caller. The fleet
    /// lowers the fault schedule into its dark spans and feeds it the
    /// sampling tick's snapshots; the caller calls finish() after the
    /// run. zugchain_sim --audit-liveness maps a dirty report to exit
    /// code 6.
    faults::LivenessAuditor* liveness = nullptr;
};

struct NodeReport {
    double cpu_cores = 0.0;           ///< protocol CPU in cores (1.0 = one core busy)
    double cpu_pct_of_device = 0.0;   ///< % of the device's total CPU (4 cores = 100 %)
    double mem_avg_mb = 0.0;
    double mem_peak_mb = 0.0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    double egress_utilization = 0.0;  ///< of the 100 Mbit/s link, in [0,1]
    std::uint64_t rx_dropped = 0;
    std::uint64_t view_changes = 0;
    std::uint64_t decided = 0;
    // Per-cause network drop accounting (gray failures). The aggregate
    // `net_dropped` equals the sum of the four causes.
    std::uint64_t net_dropped = 0;
    std::uint64_t net_dropped_loss = 0;
    std::uint64_t net_dropped_partition = 0;
    std::uint64_t net_dropped_overflow = 0;
    std::uint64_t net_dropped_corrupt = 0;
    std::uint64_t net_duplicated = 0;
    std::uint64_t net_reordered = 0;
    std::uint64_t timeout_thrash = 0;  ///< view changes despite recent progress
};

struct ScenarioReport {
    metrics::Summary latency_ms;  ///< request reception -> logged, on node 0
    std::vector<NodeReport> nodes;
    double mean_egress_utilization = 0.0;
    std::uint64_t total_bytes = 0;
    std::uint64_t blocks = 0;            ///< chain height on node 0
    std::uint64_t logged_unique = 0;     ///< requests written to the chain (node 0)
    std::uint64_t duplicates_decided = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t suspects = 0;
    double elapsed_s = 0.0;
};

class Scenario {
public:
    explicit Scenario(ScenarioConfig config);
    ~Scenario();

    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    /// Runs warmup + measurement duration.
    void run();

    /// Continues the simulation (after run()) for ad-hoc experiment logic.
    void run_for(Duration d);

    ScenarioReport report();

    Node& node(std::size_t i) { return shard().node(i); }
    std::size_t node_count() const noexcept { return shard_->node_count(); }

    /// Successful state-transfer fetches (and blocks copied) so far.
    std::uint64_t state_transfer_fetches() const noexcept {
        return shard_->state_transfer_fetches();
    }
    std::uint64_t state_transfer_blocks() const noexcept {
        return shard_->state_transfer_blocks();
    }

    /// Peer block ranges rejected by staged state-transfer validation
    /// (hash-link or checkpoint-digest mismatch — a poisoning attempt).
    std::uint64_t state_transfer_rejected() const noexcept {
        return shard_->state_transfer_rejected();
    }

    /// One audit pass over all replicas and data centers, feeding the
    /// auditor's report (no-op without a configured auditor).
    void run_audit();

    exporter::DataCenter& data_center(std::size_t i);
    sim::Simulation& sim() noexcept;
    net::Network& network() noexcept { return shard_->network(); }
    bus::Bus& train_bus() noexcept { return shard_->train_bus(); }
    TrainShard& shard() noexcept { return *shard_; }
    /// The consist's full config (the train's copy: fault plan included).
    const ScenarioConfig& config() const noexcept { return shard_->config(); }

private:
    void start_measuring();
    void sample_memory();

    std::unique_ptr<fleet::Fleet> fleet_;
    TrainShard* shard_ = nullptr;  ///< the fleet's only train

    // measurement window bookkeeping
    bool measuring_ = false;
    TimePoint measure_start_{0};
    std::vector<Duration> busy_at_start_;
    std::vector<std::uint64_t> bytes_at_start_;
    std::vector<std::uint64_t> bytes_rx_at_start_;
    bool stop_sampling_ = false;
};

}  // namespace zc::runtime
