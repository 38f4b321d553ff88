#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "prof/prof.hpp"

namespace zc::fleet {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), sim_(config_.seed),
      provider_(crypto::make_provider(config_.train.crypto_provider)) {
    const runtime::ScenarioConfig& tmpl = config_.train;
    if (config_.trains == 0) throw std::invalid_argument("fleet needs at least one train");
    if (!static_cast<const runtime::FaultPlan&>(tmpl).empty()) {
        throw std::invalid_argument(
            "fleet template carries a fault plan; put per-train faults in FleetConfig::faults");
    }
    if (config_.trains > 1 && (tmpl.store_root || tmpl.auditor != nullptr ||
                               tmpl.liveness != nullptr || !tmpl.byzantine.empty())) {
        throw std::invalid_argument(
            "fleet template carries per-consist settings (store_root, auditor, liveness or "
            "byzantine) for " + std::to_string(config_.trains) +
            " trains; use FleetConfig::store_root, audit and byzantine");
    }
    for (const auto& [t, plan] : config_.faults.trains) {
        if (t >= config_.trains) {
            throw std::invalid_argument("fleet faults name train " + std::to_string(t) +
                                        " but the fleet has " +
                                        std::to_string(config_.trains) + " trains");
        }
        if (tmpl.allow_unsafe_chaos) continue;
        if (const auto err = runtime::validate_faults(plan, tmpl.n, tmpl.f)) {
            throw std::invalid_argument("fleet faults train " + std::to_string(t) + ": " + *err);
        }
    }
    for (const DcOutage& o : config_.faults.dc_outages) {
        if (o.dc >= config_.dc_count) {
            throw std::invalid_argument("fleet DC outage names dc " + std::to_string(o.dc) +
                                        " but the fleet has " +
                                        std::to_string(config_.dc_count) + " DCs");
        }
    }
    build();
}

unsigned Fleet::pool_size(std::uint32_t jobs, std::uint32_t trains, unsigned hardware) noexcept {
    const std::uint32_t want = jobs == 0 ? std::max(hardware, 1u) : jobs;
    return static_cast<unsigned>(std::max<std::uint32_t>(std::min(want, trains), 1));
}

void Fleet::build() {
    ZC_PROF_SCOPE(kSetup);
    sim_.set_profiler(prof::Profiler::active());
    const runtime::ScenarioConfig& tmpl = config_.train;

    // One queue per train unless the fleet is a single consist. Traced
    // or profiled fleets keep to the calling thread.
    if (config_.trains > 1) {
        static const unsigned hardware = std::thread::hardware_concurrency();  // a syscall
        const bool serial = config_.trace_sink != nullptr || sim_.profiler() != nullptr;
        workers_ = serial ? 1 : pool_size(config_.jobs, config_.trains, hardware);
        if (config_.dc_count > 0) {
            // Window bound: LTE's one-way latency, shrunk by the strongest
            // latency ramp any train's plan puts on a node's egress (its
            // sends to the DCs included). A hair below the exact product,
            // so the ramp's float interpolation can never undercut it.
            double scale = 1.0;
            for (const auto& [t, plan] : config_.faults.trains) {
                for (const auto& r : plan.egress_ramps) {
                    scale = std::min(scale, r.latency_scale_end);
                }
            }
            const double ns = std::floor(static_cast<double>(tmpl.lte_link.latency.count()) *
                                         std::max(scale, 0.0) * (1.0 - 1e-9));
            lookahead_ = Duration{static_cast<Duration::rep>(ns)};
            if (lookahead_ <= Duration::zero()) {
                throw std::invalid_argument(
                    "fleet of several trains needs a train->DC latency above zero (the "
                    "lookahead between the trains' queues and the data centers')");
            }
        }
    }

    // Shards, in train order (construction order is part of the replay).
    for (TrainId t = 0; t < config_.trains; ++t) {
        sim::Simulation* queue = &sim_;
        if (config_.trains > 1) {
            queues_.push_back(std::make_unique<sim::Simulation>(sim_, t + 1));
            queue = queues_.back().get();
            queue->set_profiler(sim_.profiler());
        }
        networks_.push_back(std::make_unique<net::Network>(*queue));

        runtime::ScenarioConfig cfg = tmpl;
        cfg.seed = config_.seed;
        cfg.dc_count = config_.dc_count;
        // Contended LTE: trains_per_cell shards share one cell, so each
        // shard's uplink is provisioned with its static share of the cell.
        cfg.lte_link.bandwidth_bps /= std::max<std::uint32_t>(config_.trains_per_cell, 1);
        cfg.warmup = config_.warmup;
        cfg.duration = config_.duration;
        if (config_.store_root) {
            cfg.store_root = *config_.store_root / ("train-" + std::to_string(t));
        }
        if (config_.audit && cfg.auditor == nullptr) {
            owned_auditors_.push_back(std::make_unique<faults::SafetyAuditor>());
            cfg.auditor = owned_auditors_.back().get();
        }
        if (cfg.auditor != nullptr) auditors_.push_back(cfg.auditor);
        // Shard trace events are remapped into the train's pid band so a
        // single Tracer yields one merged fleet trace (see trace_pid());
        // train 0's band starts at pid 0 and needs no remapping.
        cfg.trace_sink = config_.trace_sink;
        if (config_.trace_sink != nullptr && trace_pid(t, 0) != 0) {
            shard_sinks_.push_back(
                std::make_unique<trace::OffsetSink>(*config_.trace_sink, trace_pid(t, 0)));
            cfg.trace_sink = shard_sinks_.back().get();
        }
        if (const auto byz = config_.byzantine.find(t); byz != config_.byzantine.end()) {
            for (const auto& [node, behavior] : byz->second) cfg.byzantine[node] = behavior;
        }
        if (const auto plan = config_.faults.trains.find(t);
            plan != config_.faults.trains.end()) {
            static_cast<runtime::FaultPlan&>(cfg) = plan->second;
        }

        runtime::ShardEnv env;
        env.sim = queue;
        env.net = networks_.back().get();
        env.provider = provider_.get();
        shards_.push_back(std::make_unique<runtime::TrainShard>(std::move(cfg), env));
    }

    // The shared steps go onto the clock in a fixed order — audit tick,
    // liveness tick, DCs, fault plans, bus start — because the event queue
    // breaks time ties by insertion order: a one-train fleet replays the
    // single consist's event sequence exactly.
    if (!auditors_.empty() && tmpl.audit_period > Duration::zero()) {
        sim_.schedule(tmpl.audit_period, [this] { audit_tick(); });
    }

    // Liveness auditor (one-train fleets): lower the train's fault plan
    // into dark spans (the windows where the model itself excuses a
    // stall) and sample cluster progress on a fixed cadence. The caller
    // configures n/f/thresholds before construction; finish() is the
    // harness's job after the run.
    if (tmpl.liveness != nullptr && tmpl.liveness_period > Duration::zero()) {
        tmpl.liveness->set_trace({config_.trace_sink, kNoNode, sim_.now_handle()});
        const Duration horizon = config_.warmup + config_.duration;
        runtime::FaultPlan::DownSpans spans = shards_[0]->config().down_spans(horizon);
        std::vector<faults::NodeDarkSpan> dark = std::move(spans.crashed);
        dark.insert(dark.end(), spans.isolated.begin(), spans.isolated.end());
        tmpl.liveness->set_schedule(std::move(dark), std::move(spans.uplink), horizon);
        sim_.schedule(tmpl.liveness_period, [this] { liveness_tick(); });
    }

    // Shared data centers: each attaches one port per shard network and
    // one export core per train.
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        FleetDcConfig dcfg;
        dcfg.core.id = d;
        dcfg.core.n = tmpl.n;
        dcfg.core.f = tmpl.f;
        dcfg.core.checkpoint_interval = tmpl.block_size;
        for (DataCenterId other = 0; other < config_.dc_count; ++other) {
            if (other != d) dcfg.core.peers.push_back(other);
        }
        dcfg.core.reply_timeout = tmpl.export_timeout;
        dcfg.core.max_retries = tmpl.export_max_retries;
        dcfg.core.retry_backoff = tmpl.export_retry_backoff;
        dcfg.core.retry_backoff_max = tmpl.export_retry_backoff_max;
        dcfg.ingest_cores = config_.dc_ingest_cores;
        dcfg.ingest_queue = config_.dc_ingest_queue;
        dcs_.push_back(
            std::make_unique<FleetDataCenter>(dcfg, sim_, *provider_, index_, config_.trace_sink));
        for (TrainId t = 0; t < config_.trains; ++t) dcs_.back()->add_shard(t, *shards_[t]);
    }

    // Fault plans: each shard drives its own, then the shared DC outages.
    for (auto& shard : shards_) shard->schedule_faults();
    for (const DcOutage& o : config_.faults.dc_outages) {
        sim_.schedule(o.at, [this, o] { dcs_[o.dc]->set_down(true); });
        if (o.duration > Duration::zero()) {
            sim_.schedule(o.at + o.duration, [this, o] { dcs_[o.dc]->set_down(false); });
        }
    }

    // Staggered periodic exports.
    if (config_.dc_count > 0 && config_.export_period > Duration::zero()) {
        const Duration stagger =
            config_.export_period / static_cast<std::int64_t>(config_.trains);
        for (TrainId t = 0; t < config_.trains; ++t) {
            sim_.schedule(config_.warmup + stagger * static_cast<std::int64_t>(t),
                          [this, t] { export_tick(t); });
        }
    }

    for (TrainId t = 0; t < config_.trains; ++t) shards_[t]->start();

    // Health: per-shard watchdogs on one lock-step cadence + the rollup.
    if (config_.monitors) {
        health::MonitorConfig mc = config_.monitor;
        mc.watch_export = config_.dc_count > 0;
        if (config_.dc_count > 0) {
            // A train legitimately backs up one export period of blocks
            // between rounds; alarm only when several periods pile up.
            const std::int64_t blocks_per_period =
                config_.export_period.count() /
                std::max<std::int64_t>(
                    tmpl.bus_cycle.count() * static_cast<std::int64_t>(tmpl.block_size), 1);
            mc.export_backlog_min_blocks =
                std::max<std::uint64_t>(mc.export_backlog_min_blocks,
                                        static_cast<std::uint64_t>(4 * blocks_per_period));
        }
        for (TrainId t = 0; t < config_.trains; ++t) {
            monitors_.push_back(std::make_unique<health::HealthMonitor>(mc));
        }
    }
    if (config_.sample_period > Duration::zero()) {
        sim_.schedule(config_.sample_period, [this] { sample_tick(); });
    }
}

void Fleet::export_tick(TrainId train) {
    // Prefer "our" company's DC, fail over to the next one that is up.
    for (std::uint32_t k = 0; k < config_.dc_count; ++k) {
        const DataCenterId d = (train + k) % config_.dc_count;
        if (dcs_[d]->down()) continue;
        if (!dcs_[d]->exporting(train)) dcs_[d]->start_export(train);
        break;
    }
    sim_.schedule(config_.export_period, [this, train] { export_tick(train); });
}

void Fleet::sample_tick() {
    if (stop_sampling_) return;
    for (auto& dc : dcs_) dc->observe_all();

    FleetSample row;
    row.at = sim_.now();
    row.trains = config_.trains;
    std::vector<health::NodeSample> samples;
    for (TrainId t = 0; t < config_.trains; ++t) {
        samples.clear();
        Height head = 0;
        Height base = 0;
        std::uint64_t logged = 0;
        for (std::size_t i = 0; i < shards_[t]->node_count(); ++i) {
            samples.push_back(shards_[t]->snapshot_node(i));
            const health::NodeSample& s = samples.back();
            if (s.alive) row.nodes_alive += 1;
            if (s.head_height >= head) {
                head = s.head_height;
                base = std::max<Height>(base, s.base_height);
            }
            logged = std::max(logged, s.logged);
        }
        if (!monitors_.empty()) monitors_[t]->sample(sim_.now(), samples);
        row.head_sum += head;
        row.logged_sum += logged;
        row.backlog_sum += head - std::min(base, head);
    }
    row.exported_sum = index_.unique_blocks();
    for (const auto& monitor : monitors_) {
        for (const health::Alarm& a : monitor->alarms()) {
            if (!a.cleared) row.active_alarms += 1;
        }
    }
    for (const auto& dc : dcs_) {
        row.ingest_depth += dc->ingest_queue_depth();
        row.ingest_dropped += dc->ingest_dropped();
    }
    rollup_.add(row);
    sim_.schedule(config_.sample_period, [this] { sample_tick(); });
}

void Fleet::for_each_train(const std::function<void(TrainId)>& fn) {
    if (workers_ == 1) {
        for (TrainId t = 0; t < config_.trains; ++t) fn(t);
        return;
    }
    if (!pool_) pool_ = std::make_unique<WorkerPool>(workers_, config_.trains);
    pool_->run(fn);
}

void Fleet::advance_to(TimePoint horizon) {
    if (queues_.empty()) {
        sim_.run_until(horizon);
        return;
    }
    // Sim progress is accounted once for the whole call, as a lone
    // queue's run_until does.
    prof::Profiler* const prof = sim_.profiler();
    const std::uint64_t wall0 = prof != nullptr ? prof->clock_now() : 0;
    const TimePoint virt0 = sim_.now();
    if (prof != nullptr) prof->begin(prof::Subsystem::kEventLoop);

    for (;;) {
        TimePoint barrier = horizon - sim_.now() > lookahead_ ? sim_.now() + lookahead_ : horizon;
        if (const auto next = sim_.next_time(); next && *next < barrier) barrier = *next;
        for_each_train([this, barrier](TrainId t) { queues_[t]->drain_until(barrier); });
        for (auto& net : networks_) net->flush_outbox(barrier);
        sim_.drain_until(barrier);
        if (barrier >= horizon) break;
    }

    if (prof != nullptr) {
        prof->end();
        prof->add_sim_progress((sim_.now() - virt0).count(), prof->clock_now() - wall0);
    }
}

std::size_t Fleet::pending_events() const noexcept {
    std::size_t n = sim_.pending_events();
    for (const auto& q : queues_) n += q->pending_events();
    for (const auto& net : networks_) n += net->outbox_size();
    return n;
}

void Fleet::audit_shard(TrainId train) {
    ZC_PROF_SCOPE(kAudit);
    std::vector<faults::ReplicaView> replicas = shards_[train]->replica_views();
    std::vector<faults::DataCenterView> dcs;
    dcs.reserve(dcs_.size());
    for (std::uint32_t d = 0; d < config_.dc_count; ++d) {
        faults::DataCenterView view;
        view.id = d;
        view.store = &dcs_[d]->core(train).store();
        view.proof = dcs_[d]->core(train).last_proof();
        dcs.push_back(view);
    }
    auditors_[train]->audit(replicas, dcs);
}

std::uint64_t Fleet::run_audit() {
    if (auditors_.empty()) return 0;
    for_each_train([this](TrainId t) { audit_shard(t); });
    std::uint64_t violations = 0;
    for (const faults::SafetyAuditor* a : auditors_) violations += a->report().violations.size();
    return violations;
}

void Fleet::audit_tick() {
    // Each pass reads only its own shard and the DCs' cores for that
    // train, so the passes run on the pool while the trains are paused.
    for_each_train([this](TrainId t) { audit_shard(t); });
    sim_.schedule(config_.train.audit_period, [this] { audit_tick(); });
}

void Fleet::liveness_tick() {
    const runtime::TrainShard& shard = *shards_[0];
    faults::LivenessObs obs;
    std::vector<faults::LivenessNodeObs> nodes;
    nodes.reserve(shard.node_count());
    for (std::size_t i = 0; i < shard.node_count(); ++i) {
        const health::NodeSample s = shard.snapshot_node(i);
        obs.decided = std::max(obs.decided, s.decided);
        const std::uint64_t backlog = s.head_height - std::min(s.head_height, s.base_height);
        obs.backlog_blocks = std::max(obs.backlog_blocks, backlog);
        nodes.push_back({s.node, s.alive, s.head_height});
    }
    for (const auto& dc : dcs_) obs.exports_completed += dc->core(0).stats().exports_completed;
    config_.train.liveness->observe(sim_.now(), obs, nodes);
    sim_.schedule(config_.train.liveness_period, [this] { liveness_tick(); });
}

void Fleet::run() {
    advance_to(config_.warmup + config_.duration);
    stop_sampling_ = true;
    for (auto& dc : dcs_) dc->observe_all();
    run_audit();
}

void Fleet::run_for(Duration d) { advance_to(sim_.now() + d); }

const health::HealthMonitor* Fleet::monitor(TrainId t) const {
    return monitors_.empty() ? nullptr : monitors_.at(t).get();
}

FleetReport Fleet::report() {
    FleetReport out;
    out.trains = config_.trains;
    out.dc_count = config_.dc_count;
    out.elapsed_s = to_seconds(sim_.now());
    out.exported_unique = index_.unique_blocks();
    out.exported_duplicates = index_.duplicate_blocks();
    out.cross_shard_collisions = index_.cross_shard_collisions();
    for (const auto& dc : dcs_) {
        const FleetDataCenter::Totals t = dc->totals();
        out.exports_completed += t.exports_completed;
        out.exports_failed += t.exports_failed;
        out.ingest_dropped += dc->ingest_dropped();
    }

    std::vector<const health::HealthMonitor*> monitor_views;
    for (const auto& m : monitors_) monitor_views.push_back(m.get());
    out.alarms = FleetRollup::summarize(monitor_views);

    for (TrainId t = 0; t < config_.trains; ++t) {
        TrainReport tr;
        tr.train = t;
        for (std::size_t i = 0; i < shards_[t]->node_count(); ++i) {
            const health::NodeSample s = shards_[t]->snapshot_node(i);
            if (s.alive) tr.nodes_alive += 1;
            tr.head = std::max<Height>(tr.head, s.head_height);
            tr.logged = std::max(tr.logged, s.logged);
        }
        const auto entry = index_.trains().find(t);
        if (entry != index_.trains().end()) tr.exported_head = entry->second.head;
        for (const auto& dc : dcs_) {
            const exporter::DcStats& s = dc->core(t).stats();
            tr.exports_completed += s.exports_completed;
            tr.exports_failed += s.exports_failed;
        }
        if (!monitors_.empty()) {
            for (const health::Alarm& a : monitors_[t]->alarms()) {
                if (!a.cleared) tr.active_alarms += 1;
            }
        }
        if (!auditors_.empty()) {
            tr.audit_violations = auditors_[t]->report().violations.size();
        }
        out.audit_violations += tr.audit_violations;
        out.head_sum += tr.head;
        out.logged_sum += tr.logged;
        out.per_train.push_back(tr);
    }
    return out;
}

std::string FleetReport::json() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"trains\":%u,\"dc_count\":%u,\"elapsed_s\":%.3f", trains, dc_count,
                  elapsed_s);
    std::string out = buf;
    out += ",\"logged_sum\":" + std::to_string(logged_sum);
    out += ",\"head_sum\":" + std::to_string(head_sum);
    out += ",\"exported_unique\":" + std::to_string(exported_unique);
    out += ",\"exported_duplicates\":" + std::to_string(exported_duplicates);
    out += ",\"cross_shard_collisions\":" + std::to_string(cross_shard_collisions);
    out += ",\"exports_completed\":" + std::to_string(exports_completed);
    out += ",\"exports_failed\":" + std::to_string(exports_failed);
    out += ",\"ingest_dropped\":" + std::to_string(ingest_dropped);
    out += ",\"audit_violations\":" + std::to_string(audit_violations);
    out += ",\"alarms\":" + alarms.json();
    out += ",\"per_train\":[";
    bool first = true;
    for (const TrainReport& t : per_train) {
        if (!first) out += ",";
        first = false;
        out += "{\"train\":" + std::to_string(t.train);
        out += ",\"nodes_alive\":" + std::to_string(t.nodes_alive);
        out += ",\"head\":" + std::to_string(t.head);
        out += ",\"logged\":" + std::to_string(t.logged);
        out += ",\"exported_head\":" + std::to_string(t.exported_head);
        out += ",\"exports_completed\":" + std::to_string(t.exports_completed);
        out += ",\"exports_failed\":" + std::to_string(t.exports_failed);
        out += ",\"active_alarms\":" + std::to_string(t.active_alarms);
        out += ",\"audit_violations\":" + std::to_string(t.audit_violations);
        out += "}";
    }
    out += "]}";
    return out;
}

}  // namespace zc::fleet
