#include "runtime/scenario.hpp"

#include "fleet/fleet.hpp"

namespace zc::runtime {

namespace {

/// The one-train fleet behind a Scenario: the consist's DCs get a 4-core
/// unbounded ingest executor each and the whole LTE cell, exports are
/// started by the caller, and the fleet's sampling tick runs at the
/// template's health cadence (none without a health tap or liveness
/// judge). The config is moved, never copied.
fleet::FleetConfig one_train_fleet(ScenarioConfig config) {
    fleet::FleetConfig fc;
    fc.trains = 1;
    fc.seed = config.seed;
    fc.dc_count = config.dc_count;
    fc.dc_ingest_cores = 4;
    fc.dc_ingest_queue = 0;
    fc.trains_per_cell = 1;
    fc.export_period = Duration::zero();
    fc.warmup = config.warmup;
    fc.duration = config.duration;
    fc.monitors = false;
    fc.sample_period = Duration::zero();
    fc.trace_sink = config.trace_sink;
    FaultPlan& plan = config;
    fc.faults.trains[0] = std::move(plan);
    plan = FaultPlan{};
    fc.train = std::move(config);
    return fc;
}

}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : fleet_(std::make_unique<fleet::Fleet>(one_train_fleet(std::move(config)))),
      shard_(&fleet_->shard(0)) {
    // The measurement window goes onto the clock after the fleet started
    // the bus (the event queue breaks time ties by insertion order).
    const ScenarioConfig& cfg = shard_->config();
    sim::Simulation& s = sim();
    s.schedule(cfg.mem_sample_period, [this] { sample_memory(); });
    s.schedule(cfg.warmup, [this] { start_measuring(); });
}

Scenario::~Scenario() = default;

sim::Simulation& Scenario::sim() noexcept { return fleet_->sim(); }

void Scenario::start_measuring() {
    measuring_ = true;
    measure_start_ = sim().now();
    busy_at_start_.clear();
    bytes_at_start_.clear();
    bytes_rx_at_start_.clear();
    for (std::uint32_t i = 0; i < config().n; ++i) {
        Node& node = shard_->node(i);
        node.set_measuring(true);
        busy_at_start_.push_back(node.executor().busy_time());
        bytes_at_start_.push_back(network().stats(i).bytes_sent);
        bytes_rx_at_start_.push_back(network().stats(i).bytes_received);
    }
}

void Scenario::sample_memory() {
    if (stop_sampling_) return;
    if (measuring_) {
        for (std::size_t i = 0; i < shard_->node_count(); ++i) {
            shard_->node(i).memory().sample();
        }
    }
    sim().schedule(config().mem_sample_period, [this] { sample_memory(); });
}

void Scenario::run_audit() { fleet_->run_audit(); }

void Scenario::run() {
    sim().run_until(config().warmup + config().duration);
    stop_sampling_ = true;
}

void Scenario::run_for(Duration d) { sim().run_until(sim().now() + d); }

exporter::DataCenter& Scenario::data_center(std::size_t i) {
    return fleet_->data_center(static_cast<DataCenterId>(i)).core(0);
}

ScenarioReport Scenario::report() {
    const ScenarioConfig& cfg = config();
    net::Network& net = network();
    ScenarioReport out;
    const Duration elapsed = sim().now() - measure_start_;
    out.elapsed_s = to_seconds(elapsed);

    double util_sum = 0.0;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
        Node& node = shard_->node(i);
        NodeReport nr;
        nr.cpu_cores = node.executor().utilization_since(measure_start_, busy_at_start_[i]);
        nr.cpu_pct_of_device = nr.cpu_cores / cfg.device_cores * 100.0;
        if (!node.memory().samples_mb().empty()) {
            nr.mem_avg_mb = node.memory().samples_mb().mean();
            nr.mem_peak_mb = node.memory().samples_mb().max();
        }
        nr.bytes_sent = net.stats(i).bytes_sent - bytes_at_start_[i];
        nr.bytes_received = net.stats(i).bytes_received - bytes_rx_at_start_[i];
        nr.egress_utilization = net.egress_utilization(i, measure_start_, bytes_at_start_[i],
                                                        cfg.train_link.bandwidth_bps);
        nr.rx_dropped = node.rx_dropped();
        nr.view_changes = node.replica().stats().new_views_installed;
        nr.decided = node.replica().stats().decided;
        const net::TrafficStats& ns = net.stats(i);
        nr.net_dropped = ns.messages_dropped;
        nr.net_dropped_loss = ns.dropped_loss;
        nr.net_dropped_partition = ns.dropped_partition;
        nr.net_dropped_overflow = ns.dropped_nic_overflow;
        nr.net_dropped_corrupt = ns.dropped_corrupt;
        nr.net_duplicated = ns.messages_duplicated;
        nr.net_reordered = ns.messages_reordered;
        nr.timeout_thrash = node.replica().stats().timeout_thrash;
        out.total_bytes += nr.bytes_sent;
        util_sum += nr.egress_utilization;
        out.nodes.push_back(nr);
    }
    out.mean_egress_utilization = util_sum / cfg.n;

    Node& n0 = shard_->node(0);
    out.latency_ms = n0.latency().millis();
    out.blocks = n0.store().head_height();
    if (cfg.mode == Mode::kZugChain) {
        const auto& stats = n0.layer()->stats();
        out.logged_unique = stats.logged;
        out.duplicates_decided = stats.duplicates_decided;
        out.rate_limited = stats.rate_limited;
        out.suspects = stats.suspects;
    } else {
        out.logged_unique = n0.replica().stats().decided;
    }
    return out;
}

}  // namespace zc::runtime
