#include "runtime/train_shard.hpp"

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "export/data_center.hpp"
#include "export/messages.hpp"
#include "prof/prof.hpp"
#include "runtime/scenario.hpp"

namespace zc::runtime {

/// Adapts a secondary bus tap to a node input source.
struct TrainShard::SourceTap final : bus::BusTap {
    SourceTap(Node& node, std::uint32_t source) : node(node), source(source) {}
    void on_telegram(const bus::Telegram& telegram) override {
        node.on_telegram_from(source, telegram);
    }
    Node& node;
    std::uint32_t source;
};

TrainShard::TrainShard(ScenarioConfig config, ShardEnv env)
    : config_(std::make_unique<ScenarioConfig>(std::move(config))), env_(env) {
    build();
}

TrainShard::~TrainShard() = default;

void TrainShard::build() {
    ZC_PROF_SCOPE(kSetup);
    sim::Simulation& sim = *env_.sim;
    const ScenarioConfig& cfg = *config_;

    // Network topology: full mesh of train Ethernet between nodes; LTE
    // between train and data centers; fast interconnect between DCs.
    // (Profile setup consumes no randomness, so it can precede the keys.)
    net::Network& net = *env_.net;
    net.set_default_profile(cfg.train_link);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
        for (std::uint32_t d = 0; d < cfg.dc_count; ++d) {
            net.set_profile(i, kDcEndpointBase + d, cfg.lte_link);
            net.set_profile(kDcEndpointBase + d, i, cfg.lte_link);
        }
    }
    for (std::uint32_t a = 0; a < cfg.dc_count; ++a) {
        for (std::uint32_t b = 0; b < cfg.dc_count; ++b) {
            if (a != b) net.set_profile(kDcEndpointBase + a, kDcEndpointBase + b, cfg.dc_link);
        }
    }

    // Keys for nodes and data centers (the permissioned membership). Each
    // shard draws its own DC keypairs: a data center's port on this
    // consist signs with this consist's key.
    Rng keyrng = sim.rng().fork("keys");
    std::vector<crypto::KeyPair> node_keys;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
        node_keys.push_back(env_.provider->generate(keyrng));
        directory_.register_key(i, node_keys.back().pub);
    }
    for (std::uint32_t d = 0; d < cfg.dc_count; ++d) {
        dc_keys_.push_back(env_.provider->generate(keyrng));
        directory_.register_key(exporter::dc_key_id(d), dc_keys_.back().pub);
    }

    // Safety auditor: an observer outside the deployment with its own key
    // (drawn after the membership keys so node/dc key streams are
    // unchanged) and read access to the shared key directory.
    if (cfg.auditor != nullptr) {
        audit_crypto_ = std::make_unique<crypto::CryptoContext>(
            *env_.provider, directory_, env_.provider->generate(keyrng), node_costs_,
            audit_meter_);
        cfg.auditor->configure(
            cfg.f, cfg.block_size,
            [this](std::uint32_t signer, BytesView message, const crypto::Signature& sig) {
                return audit_crypto_->verify(signer, message, sig);
            });
        for (const auto& [id, byz] : cfg.byzantine) {
            if (byz.any()) cfg.auditor->set_compromised(id);
        }
        if (cfg.trace_sink != nullptr) {
            cfg.auditor->set_trace({cfg.trace_sink, kNoNode, sim.now_handle()});
        }
    }

    // Signal source and bus.
    train::GeneratorConfig gen_cfg;
    gen_cfg.payload_size = cfg.payload_size;
    generator_ = std::make_unique<train::SignalGenerator>(
        gen_cfg, sim.rng().fork("atp"));
    bus_ = std::make_unique<bus::Bus>(sim, cfg.bus_cycle, *generator_);

    // Timetable-driven telegram-rate windows: the bus master retunes its
    // basic period at each window edge (clamped to the MVB minimum) and
    // falls back to the configured base cycle when the window closes.
    for (const auto& w : cfg.rate_windows) {
        const Duration scaled = Duration(static_cast<Duration::rep>(
            static_cast<double>(cfg.bus_cycle.count()) * w.cycle_scale));
        sim.schedule(w.at, [this, scaled] { bus_->set_cycle_time(scaled); });
        sim.schedule(w.at + w.duration,
                     [this] { bus_->set_cycle_time(config().bus_cycle); });
    }

    // Nodes.
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
        NodeOptions opts;
        opts.id = i;
        opts.n = cfg.n;
        opts.f = cfg.f;
        opts.mode = cfg.mode;
        opts.block_size = cfg.block_size;
        opts.soft_timeout = cfg.soft_timeout;
        opts.hard_timeout = cfg.hard_timeout;
        opts.max_open_per_origin = cfg.max_open_per_origin;
        opts.client_timeout = cfg.client_timeout;
        opts.request_timeout = cfg.request_timeout;
        opts.view_change_timeout = cfg.view_change_timeout;
        opts.adaptive_timeouts = cfg.adaptive_timeouts;
        opts.batch_max_requests = cfg.batch_max_requests;
        opts.batch_max_bytes = cfg.batch_max_bytes;
        opts.batch_linger = cfg.batch_linger;
        opts.device_cores = cfg.device_cores;
        opts.protocol_cores = cfg.protocol_cores;
        opts.rx_queue_limit = cfg.rx_queue_limit;
        opts.delete_quorum = cfg.delete_quorum;
        opts.trace = cfg.trace_sink;
        opts.auditor = cfg.auditor;
        const auto byz = cfg.byzantine.find(i);
        if (byz != cfg.byzantine.end()) opts.byzantine = byz->second;
        if (cfg.store_root) {
            opts.store_dir = *cfg.store_root / ("node-" + std::to_string(i));
        }

        // Degraded-device profile: a scaled cost table owned by the shard
        // (Node keeps a reference, so the copy must outlive it).
        const metrics::CostModel* costs = &node_costs_;
        const auto profile = cfg.cpu_profiles.find(i);
        if (profile != cfg.cpu_profiles.end() && profile->second != 1.0) {
            degraded_costs_.push_back(
                std::make_unique<metrics::CostModel>(node_costs_.scaled(profile->second)));
            costs = degraded_costs_.back().get();
        }

        nodes_.push_back(std::make_unique<Node>(opts, sim, *env_.net, *env_.provider,
                                                directory_, node_keys[i], *costs));
        env_.net->attach(i, nodes_.back().get());

        const auto faults = cfg.tap_faults.find(i);
        bus_->attach_tap(*nodes_.back(), faults != cfg.tap_faults.end()
                                             ? faults->second
                                             : cfg.default_tap_faults);
    }

    // Additional input sources (each an independent bus + generator).
    for (std::size_t b = 0; b < cfg.extra_buses.size(); ++b) {
        const auto& spec = cfg.extra_buses[b];
        ExtraBusRig rig;
        train::GeneratorConfig extra_gen;
        extra_gen.payload_size = spec.payload_size;
        rig.generator = std::make_unique<train::SignalGenerator>(
            extra_gen, sim.rng().fork("extra-bus-" + std::to_string(b)));
        rig.bus = std::make_unique<bus::Bus>(sim, spec.cycle, *rig.generator);
        for (auto& node : nodes_) {
            rig.taps.push_back(
                std::make_unique<SourceTap>(*node, static_cast<std::uint32_t>(b + 1)));
            rig.bus->attach_tap(*rig.taps.back(), cfg.default_tap_faults);
        }
        rig.bus->start();
        extra_buses_.push_back(std::move(rig));
    }

    for (auto& node : nodes_) install_state_fetcher(*node);
}

void TrainShard::schedule_faults() {
    sim::Simulation& sim = *env_.sim;
    const ScenarioConfig& cfg = *config_;
    for (const auto& c : cfg.crash_schedule) {
        const NodeId id = c.node;
        sim.schedule(c.at, [this, id] { crash_node(id); });
        if (c.restart_after > Duration::zero()) {
            sim.schedule(c.at + c.restart_after, [this, id] { restart_node(id); });
        }
    }
    for (const auto& [when, id] : cfg.restart_schedule) {
        const NodeId node = id;
        sim.schedule(when, [this, node] { restart_node(node); });
    }
    for (const auto& flap : cfg.link_flaps) {
        sim.schedule(flap.at, [this, flap] { apply_flap(flap, true); });
        sim.schedule(flap.at + flap.duration, [this, flap] { apply_flap(flap, false); });
    }

    // Gray degradation ramps install up front: the LinkRamp start time is
    // absolute, so the network computes the drift lazily per send.
    for (const auto& r : cfg.egress_ramps) {
        net::LinkRamp ramp;
        ramp.start = TimePoint{r.at.count()};
        ramp.duration = r.ramp;
        ramp.bandwidth_scale_end = r.bandwidth_scale_end;
        ramp.latency_scale_end = r.latency_scale_end;
        ramp.loss_end = r.loss_end;
        ramp.hold = r.hold;
        env_.net->set_egress_ramp(r.node, ramp);
    }
}

void TrainShard::apply_flap(const FaultPlan::LinkFlap& flap, bool blocked) {
    const ScenarioConfig& cfg = *config_;
    net::Network& net = *env_.net;
    if (flap.link == FaultPlan::LinkFlap::Link::kLte) {
        // The whole LTE uplink (a tunnel: the consist's dead zone).
        for (std::uint32_t i = 0; i < cfg.n; ++i) {
            for (std::uint32_t d = 0; d < cfg.dc_count; ++d) {
                net.set_blocked(i, kDcEndpointBase + d, blocked);
                net.set_blocked(kDcEndpointBase + d, i, blocked);
            }
        }
    } else {
        // Transient partition: one node cut off from peers and DCs. An
        // asymmetric flap cuts only the node's outbound direction (dead
        // TX): it keeps hearing the cluster but nobody hears it.
        for (std::uint32_t i = 0; i < cfg.n; ++i) {
            if (i == flap.node) continue;
            net.set_blocked(flap.node, i, blocked);
            if (!flap.asymmetric) net.set_blocked(i, flap.node, blocked);
        }
        for (std::uint32_t d = 0; d < cfg.dc_count; ++d) {
            net.set_blocked(flap.node, kDcEndpointBase + d, blocked);
            if (!flap.asymmetric) net.set_blocked(kDcEndpointBase + d, flap.node, blocked);
        }
    }
    if (cfg.trace_sink != nullptr) {
        const NodeId who = flap.link == FaultPlan::LinkFlap::Link::kLte ? kNoNode : flap.node;
        cfg.trace_sink->event(who, env_.sim->now(),
                              blocked ? trace::Phase::kLinkDown : trace::Phase::kLinkUp,
                              static_cast<std::uint64_t>(who),
                              static_cast<std::uint64_t>(flap.duration.count()));
    }
}

void TrainShard::start() { bus_->start(); }

void TrainShard::install_state_fetcher(Node& node) {
    // State transfer (paper §III-D discussion (ii)): a lagging replica
    // fetches missing blocks from a peer and adopts them only through
    // chain::BlockStore::adopt, which validates the staged range —
    // contiguity, parent links, payload roots and the final head hash
    // against the quorum-certified checkpoint digest — before anything
    // touches the durable store or the layer's logged set. A peer serving
    // a forged-but-hash-linked range is rejected at the digest check and
    // the fetcher moves to the next peer. Modelled as a validated
    // in-process copy; the bulk-transfer cost is charged to the CPU model
    // (bandwidth cost is covered by the export experiments). Re-installed
    // after a restart (the chain app is rebuilt).
    Node* self = &node;
    self->chain_app().set_state_fetcher([this, self](SeqNo seq, const crypto::Digest& state) {
        const ScenarioConfig& cfg = *config_;
        const Height target = seq / cfg.block_size;
        if (self->store().head_height() >= target) {
            const chain::BlockHeader* h = self->store().header(target);
            return h != nullptr && h->hash() == state;
        }
        const chain::ChargeFn charge = [self](std::size_t bytes) {
            self->crypto().charge_hash(bytes);
        };
        // Adopted requests count as logged without a DECIDE.
        const auto mark_logged = [self, &cfg](const chain::Block& b) {
            for (const chain::LoggedRequest& req : b.requests) {
                const crypto::Digest d = crypto::sha256(req.payload);
                if (self->layer() != nullptr) self->layer()->mark_logged(d);
                if (cfg.auditor != nullptr) cfg.auditor->note_logged(self->id(), d);
            }
        };
        const auto reject = [this, self, &cfg, seq, target](const char* what, Height lo,
                                                            NodeId peer) {
            ZC_WARN("scenario", "node {} rejected {} range [{}, {}] from node {}", self->id(),
                    what, lo, target, peer);
            state_transfer_rejected_ += 1;
            if (cfg.trace_sink != nullptr) {
                cfg.trace_sink->event(self->id(), env_.sim->now(),
                                      trace::Phase::kStateTransferRejected, seq, peer);
            }
        };
        const auto accept = [this, self, &cfg, seq](std::uint64_t copied) {
            state_transfer_fetches_ += 1;
            state_transfer_blocks_ += copied;
            if (cfg.trace_sink != nullptr) {
                cfg.trace_sink->event(self->id(), env_.sim->now(), trace::Phase::kStateTransfer,
                                      seq, copied);
            }
            return true;
        };
        const Height from = self->store().head_height() + 1;
        for (const auto& peer : nodes_) {
            if (peer.get() == self || !peer->alive()) continue;
            chain::BlockStore& src = peer->store();
            if (src.head_height() < target) continue;
            if (from < src.base_height()) {
                // The peer pruned past the range we need. The missing
                // prefix is archived at the data centers — that is exactly
                // what the peer's prune anchor attests, with a delete
                // quorum of DC signatures over the base block. Adopt the
                // anchor: verify the evidence, validate the retained tail
                // up to the quorum-certified checkpoint digest, then
                // discard our stale prefix and rebase on the peer's base.
                // Without this, a diskless restart after an export prune
                // can never catch up (and a node that rebuilt from genesis
                // would fork the chain).
                const std::optional<chain::PruneAnchor>& anchor = src.anchor();
                if (!anchor || anchor->base_height != src.base_height()) continue;
                if (target < anchor->base_height) continue;  // stale checkpoint

                const auto deletes = exporter::decode_delete_evidence(anchor->evidence);
                std::set<DataCenterId> signers;
                if (deletes) {
                    for (const exporter::DeleteCmd& cmd : *deletes) {
                        if (cmd.height != anchor->base_height ||
                            cmd.block_hash != anchor->base_hash) {
                            continue;
                        }
                        if (!self->crypto().verify(exporter::dc_key_id(cmd.dc),
                                                   cmd.signing_bytes(), cmd.sig)) {
                            continue;
                        }
                        signers.insert(cmd.dc);
                    }
                }
                if (signers.size() < cfg.delete_quorum) {
                    state_transfer_rejected_ += 1;
                    ZC_WARN("scenario",
                            "node {} rejected prune anchor at {} from node {} "
                            "({} valid delete signature(s), quorum {})",
                            self->id(), anchor->base_height, peer->id(), signers.size(),
                            cfg.delete_quorum);
                    continue;
                }

                const chain::Block* base = src.get(anchor->base_height);
                std::vector<chain::Block> tail = src.range(anchor->base_height + 1, target);
                if (base == nullptr || base->hash() != anchor->base_hash ||
                    !base->payload_valid() ||
                    !chain::extends(anchor->base_height, anchor->base_hash, tail, target, state,
                                    charge)) {
                    reject("rebase", anchor->base_height, peer->id());
                    continue;
                }

                mark_logged(*base);
                for (const chain::Block& b : tail) mark_logged(b);
                self->store().rebase(*base, anchor->evidence);
                for (chain::Block& b : tail) self->store().append(std::move(b));
                return accept(tail.size() + 1);
            }

            // A compromised peer may serve a forged-but-hash-linked range
            // instead of its real chain (state-transfer poisoning).
            std::vector<chain::Block> staged;
            faults::Adversary* adv = peer->adversary();
            if (adv != nullptr && adv->config().poison_state_transfer) {
                staged = adv->forged_range(self->store().head_hash(), from, target);
                adv->stats_mut().st_poisonings += 1;
            } else {
                staged = src.range(from, target);
            }
            if (!self->store().adopt(staged, target, state, charge, mark_logged)) {
                reject("state-transfer", from, peer->id());
                continue;  // try the next peer
            }
            return accept(target - from + 1);
        }
        return false;
    });
}

void TrainShard::crash_node(NodeId id) { nodes_.at(id)->crash(); }

void TrainShard::restart_node(NodeId id) {
    Node& target = *nodes_.at(id);
    if (target.alive()) return;
    // Rejoin in the highest view any surviving replica runs; the durable
    // chain and checkpoint-driven state transfer handle the rest.
    View view = 0;
    for (const auto& peer : nodes_) {
        if (peer->alive()) view = std::max(view, peer->replica().view());
    }
    target.restart(view);
    install_state_fetcher(target);
}

health::NodeSample TrainShard::snapshot_node(std::size_t i) const {
    Node& node = *nodes_.at(i);
    health::NodeSample s;
    s.node = node.id();
    s.alive = node.alive();
    const pbft::ReplicaStats& rs = node.replica().stats();
    s.decided = rs.decided;
    s.view_changes = rs.new_views_installed;
    if (node.layer() != nullptr) {
        const zugchain::LayerStats& ls = node.layer()->stats();
        s.logged = ls.logged;
        s.soft_timeouts = ls.soft_timeouts;
        s.hard_timeouts = ls.hard_timeouts;
    } else {
        s.logged = rs.decided;  // baseline mode: every decide is a log
    }
    s.head_height = node.store().head_height();
    s.stable_height = node.replica().last_stable() / config_->block_size;
    s.base_height = node.store().base_height();
    s.rx_dropped = node.rx_dropped();
    s.mem_mb = static_cast<double>(node.memory().total_bytes()) / (1024.0 * 1024.0);
    s.timeout_thrash = rs.timeout_thrash;
    const net::TrafficStats& ns = env_.net->stats(node.id());
    s.net_dropped_loss = ns.dropped_loss;
    s.net_dropped_partition = ns.dropped_partition;
    s.net_dropped_overflow = ns.dropped_nic_overflow;
    s.net_dropped_corrupt = ns.dropped_corrupt;
    return s;
}

std::vector<faults::ReplicaView> TrainShard::replica_views() {
    std::vector<faults::ReplicaView> replicas;
    replicas.reserve(nodes_.size());
    for (auto& node : nodes_) {
        faults::ReplicaView view;
        view.id = node->id();
        view.alive = node->alive();
        view.compromised = node->adversary() != nullptr;
        view.store = &node->store();
        view.layer = node->layer();
        replicas.push_back(view);
    }
    return replicas;
}

}  // namespace zc::runtime
