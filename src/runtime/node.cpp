#include "runtime/node.hpp"

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "zugchain/wire.hpp"

namespace zc::runtime {

// ---- adapters -----------------------------------------------------------

struct Node::PbftTransportAdapter final : pbft::Transport {
    explicit PbftTransportAdapter(Node& node) : node(node) {}

    void send(NodeId to, const pbft::Message& m) override {
        // A compromised node's consensus traffic goes through the adversary
        // pipeline, which owns suppression, delay (delayed messages re-enter
        // the pipeline, they do not bypass it), tampering and emission.
        if (node.adversary_ != nullptr) {
            node.adversary_->pbft_send(to, m);
            return;
        }
        node.send_enveloped(to, Channel::kPbft, pbft::encode_message(m));
    }

    void broadcast(const pbft::Message& m) override {
        // The adversary may tamper per recipient, so its traffic stays
        // per peer; an honest broadcast is encoded once.
        if (node.adversary_ != nullptr) {
            for (std::uint32_t i = 0; i < node.config_.n; ++i) {
                if (i != node.id_) send(i, m);
            }
            return;
        }
        node.broadcast_enveloped(Channel::kPbft, pbft::encode_message(m));
    }

    Node& node;
};

struct Node::LayerTransportAdapter final : zugchain::LayerTransport {
    explicit LayerTransportAdapter(Node& node) : node(node) {}

    void broadcast(const pbft::Request& request) override {
        pbft::Request r = request;
        if (node.adversary_ != nullptr && !node.adversary_->mutate_layer(r)) return;
        const Bytes body =
            zugchain::encode_peer_request(zugchain::PeerRequest{r, /*forwarded=*/false});
        const int copies =
            node.adversary_ != nullptr && node.adversary_->replay_layer() ? 2 : 1;
        for (int c = 0; c < copies; ++c) node.broadcast_enveloped(Channel::kLayer, body);
    }

    void forward(NodeId to, const pbft::Request& request) override {
        if (to == node.id_) return;
        pbft::Request r = request;
        if (node.adversary_ != nullptr && !node.adversary_->mutate_layer(r)) return;
        node.send_enveloped(
            to, Channel::kLayer,
            zugchain::encode_peer_request(zugchain::PeerRequest{r, /*forwarded=*/true}));
    }

    Node& node;
};

struct Node::ConsensusAdapter final : zugchain::ConsensusHandle {
    explicit ConsensusAdapter(Node& node) : node(node) {}
    bool propose(const pbft::Request& request) override { return node.replica_->propose(request); }
    void suspect() override { node.replica_->suspect(); }
    std::vector<pbft::Request> inflight_requests() const override {
        return node.replica_->inflight_requests();
    }
    Node& node;
};

/// LOG sink for ZugChain mode: records latency, feeds the chain.
struct Node::LogShim final : zugchain::LogSink {
    explicit LogShim(Node& node) : node(node) {}
    void log(const pbft::Request& request, const crypto::Digest& payload_digest, NodeId origin,
             SeqNo seq) override {
        node.record_logged(request, payload_digest);
        node.chain_app_->log(request, origin, seq);
    }
    Node& node;
};

/// The replica's application in both modes: routes upcalls to the layer or
/// the baseline stack and keeps the export server informed of new blocks.
struct Node::AppShim final : pbft::Application {
    explicit AppShim(Node& node) : node(node) {}

    void deliver(const pbft::Request& request, SeqNo seq) override {
        if (node.config_.mode == Mode::kZugChain) {
            node.layer_->deliver(request, seq);
        } else {
            if (!request.is_null()) node.record_logged(request, request.payload_digest());
            node.baseline_app_->deliver(request, seq);
        }
    }

    crypto::Digest state_digest(SeqNo seq) override {
        const crypto::Digest digest = node.chain_app_->state_digest(seq);
        node.export_server_->on_new_block();
        return digest;
    }

    void new_primary(View view, NodeId primary) override {
        if (node.config_.mode == Mode::kZugChain) {
            node.layer_->new_primary(view, primary);
        } else {
            node.baseline_app_->new_primary(view, primary);
        }
    }

    void stable_checkpoint(SeqNo seq, const pbft::CheckpointProof& proof) override {
        if (node.config_.mode == Mode::kZugChain) node.layer_->stable_checkpoint(seq, proof);
    }

    void preprepared(const pbft::Request& request) override {
        if (node.config_.mode == Mode::kZugChain) node.layer_->preprepared(request);
    }

    void sync_state(SeqNo seq, const crypto::Digest& state) override {
        node.chain_app_->sync_state(seq, state);
    }

    Node& node;
};

struct Node::ExportTransportAdapter final : exporter::ServerTransport {
    explicit ExportTransportAdapter(Node& node) : node(node) {}
    void to_data_center(DataCenterId dc, const exporter::ExportMessage& m) override {
        if (node.adversary_ != nullptr) {
            exporter::ExportMessage tampered = m;
            if (!node.adversary_->mutate_export(tampered)) return;
            node.send_enveloped(kDcEndpointBase + dc, Channel::kExport,
                                exporter::encode_export_message(tampered));
            return;
        }
        node.send_enveloped(kDcEndpointBase + dc, Channel::kExport,
                            exporter::encode_export_message(m));
    }
    Node& node;
};

struct Node::ClientSenderAdapter final : baseline::ClientSender {
    explicit ClientSenderAdapter(Node& node) : node(node) {}

    void to_primary(const pbft::Request& request) override {
        const NodeId primary = node.replica_->primary();
        if (primary == node.id_) {
            node.replica_->propose(request);
        } else {
            node.send_enveloped(primary, Channel::kPbft,
                                pbft::encode_message(pbft::Message{request}));
        }
    }

    void to_all(const pbft::Request& request) override {
        const Bytes body = pbft::encode_message(pbft::Message{request});
        for (std::uint32_t i = 0; i < node.config_.n; ++i) {
            if (i == node.id_) {
                node.replica_->propose(request);
            } else {
                node.send_enveloped(i, Channel::kPbft, body);
            }
        }
    }

    Node& node;
};

// ---- Node ---------------------------------------------------------------

namespace {

/// The protocol stack handles messages on one thread of the quad-core
/// M-COM (ScenarioConfig::device_cores).
constexpr int kProtocolCores = 1;

/// Bounded receive buffer (messages); overflow drops.
constexpr std::size_t kRxQueueLimit = 2048;

}  // namespace

Node::Node(const ScenarioConfig& config, NodeId id, sim::Simulation& sim, net::Network& network,
           crypto::CryptoProvider& provider, const crypto::KeyDirectory& directory,
           crypto::KeyPair key, const metrics::CostModel& costs)
    : config_(config), id_(id),
      byzantine_(config.byzantine.contains(id) ? config.byzantine.at(id) : ByzantineBehavior{}),
      sim_(sim), network_(network), costs_(costs), store_(memory_.gauge("chain"), store_dir()),
      byz_rng_(sim.rng().fork("byz-" + std::to_string(id))) {
    crypto_ = std::make_unique<crypto::CryptoContext>(provider, directory, std::move(key), costs,
                                                      meter_);
    executor_ = std::make_unique<sim::MeteredExecutor>(sim, kProtocolCores, kRxQueueLimit);
    rx_gauge_ = memory_.gauge("rx-queue");

    if (byzantine_.any()) {
        adversary_ =
            std::make_unique<faults::Adversary>(byzantine_, id_, config_.n, sim_, *crypto_);
        adversary_->set_pbft_emit([this](NodeId to, const pbft::Message& m) {
            send_enveloped(to, Channel::kPbft, pbft::encode_message(m));
        });
    }

    pbft_transport_ = std::make_unique<PbftTransportAdapter>(*this);
    export_transport_ = std::make_unique<ExportTransportAdapter>(*this);
    app_shim_ = std::make_unique<AppShim>(*this);
    if (config_.mode == Mode::kZugChain) {
        layer_transport_ = std::make_unique<LayerTransportAdapter>(*this);
        consensus_adapter_ = std::make_unique<ConsensusAdapter>(*this);
        log_shim_ = std::make_unique<LogShim>(*this);
    } else {
        client_sender_ = std::make_unique<ClientSenderAdapter>(*this);
    }

    build_stack(/*start_view=*/0, /*start_seq=*/0);
}

std::optional<std::filesystem::path> Node::store_dir() const {
    if (!config_.store_root) return std::nullopt;
    return *config_.store_root / ("node-" + std::to_string(id_));
}

void Node::build_stack(View start_view, SeqNo start_seq) {
    chain_app_ = std::make_unique<zugchain::ChainApp>(store_, *crypto_, config_.block_size);

    pbft::ReplicaConfig rcfg;
    rcfg.id = id_;
    rcfg.n = config_.n;
    rcfg.f = config_.f;
    rcfg.checkpoint_interval = config_.block_size;
    rcfg.adaptive = config_.adaptive_timeouts;
    rcfg.request_timeout =
        config_.mode == Mode::kBaseline ? baseline::kRequestTimeout : Duration::zero();
    rcfg.dedup_proposals = byzantine_.duplicate_rate <= 0.0;
    rcfg.max_batch_requests = config_.batch_max_requests;
    rcfg.batch_linger = config_.batch_linger;
    rcfg.start_view = start_view;
    rcfg.start_seq = start_seq;

    replica_ = std::make_unique<pbft::Replica>(rcfg, sim_, *crypto_, *pbft_transport_,
                                               *app_shim_, memory_.gauge("pbft-log"));
    replica_->set_trace(config_.trace_sink);
    store_.set_trace({config_.trace_sink, id_, sim_.now_handle()});

    if (config_.mode == Mode::kZugChain) {
        zugchain::LayerConfig lcfg;
        lcfg.id = id_;
        lcfg.soft_timeout = config_.soft_timeout;
        lcfg.hard_timeout = config_.hard_timeout;
        lcfg.adaptive = config_.adaptive_timeouts;
        lcfg.max_open_per_origin = config_.max_open_per_origin;
        layer_ = std::make_unique<zugchain::CommunicationLayer>(
            lcfg, sim_, *crypto_, *layer_transport_, *log_shim_, memory_.gauge("layer-queue"));
        layer_->attach_consensus(*consensus_adapter_);
        layer_->set_trace(config_.trace_sink);
    } else {
        client_ = std::make_unique<baseline::BaselineClient>(id_, sim_, *crypto_,
                                                             *client_sender_);
        baseline_app_ = std::make_unique<baseline::BaselineApp>(*chain_app_, *client_);
    }

    // A rejoining replica must agree with the cluster about who leads the
    // current view before it can route requests.
    if (start_view > 0) app_shim_->new_primary(start_view, replica_->primary_of(start_view));

    exporter::ServerConfig ecfg;
    ecfg.id = id_;
    ecfg.checkpoint_interval = config_.block_size;
    ecfg.delete_quorum = config_.delete_quorum;
    export_server_ =
        std::make_unique<exporter::ExportServer>(ecfg, *crypto_, store_, *export_transport_);
    export_server_->set_proof_provider([this] { return replica_->latest_stable_proof(); });
    export_server_->set_trace({config_.trace_sink, id_, sim_.now_handle()});
}

Node::~Node() = default;

void Node::crash() noexcept {
    if (!alive_) return;
    alive_ = false;
    // A power loss takes the run queue with it: queued protocol jobs are
    // dropped and their buffered bytes leave the rx accounting. In-flight
    // network messages get dropped (and counted) at the receiver NIC.
    executor_->clear_queue();
    rx_gauge_->set(0);
    network_.set_endpoint_down(id_, true);
    // Power loss wipes the RAM verified-signature memo: after restart the
    // node pays full verification cost again, like the real device would.
    crypto_->reset_memo();
    // The replica object survives until restart() rebuilds the stack, but
    // its timers must not: a request timer firing while the node is down
    // (or after rejoin, keyed to a long-gone view) would suspect a primary
    // that was never slow. The same goes for the adversary's delayed sends.
    if (replica_) replica_->cancel_timers();
    if (adversary_) adversary_->cancel_pending();
    if (config_.auditor != nullptr) config_.auditor->note_crashed(id_);
    if (config_.trace_sink != nullptr) {
        config_.trace_sink->event(id_, sim_.now(), trace::Phase::kNodeDown, id_,
                              store_.head_height());
    }
}

void Node::restart(View start_view) {
    if (alive_) return;
    restarts_ += 1;

    // Volatile protocol state dies with the process. Component destructors
    // cancel their pending virtual-time timers so no stale event fires
    // into freed state. Order respects reference dependencies.
    export_server_.reset();
    replica_.reset();
    layer_.reset();
    baseline_app_.reset();
    client_.reset();
    chain_app_.reset();
    parsers_.clear();
    receive_times_.clear();
    recent_payloads_.clear();

    // Reload the durable chain; a torn tail is truncated to the last valid
    // prefix and refilled by state transfer after rejoin. Without a store
    // directory the chain restarts from genesis (pure in-memory deployment).
    last_recovery_ = chain::RecoveryReport{};
    if (const auto dir = store_dir()) {
        store_ = chain::BlockStore::load(*dir, memory_.gauge("chain"), &last_recovery_);
        if (!last_recovery_.clean()) {
            ZC_WARN("node", "node {} store recovery discarded {} block(s), resuming at head {}",
                    id_, last_recovery_.blocks_discarded,
                    last_recovery_.recovered_head);
        }
    } else {
        store_ = chain::BlockStore(memory_.gauge("chain"));
    }

    // Resume consensus at the durable head: the next checkpoint the peers
    // stabilize beyond it triggers sync_state -> state transfer.
    build_stack(start_view, store_.head_height() * config_.block_size);

    alive_ = true;
    network_.set_endpoint_down(id_, false);
    if (config_.trace_sink != nullptr) {
        config_.trace_sink->event(id_, sim_.now(), trace::Phase::kNodeRestart, id_,
                              store_.head_height());
    }
}

void Node::send_enveloped(net::EndpointId to, Channel channel, BytesView body) {
    if (!alive_) return;
    network_.send(id_, to, encode_envelope(channel, body));
}

void Node::broadcast_enveloped(Channel channel, BytesView body) {
    if (!alive_) return;
    const Bytes wire = encode_envelope(channel, body);
    for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (i != id_) network_.send(id_, i, wire);
    }
}

void Node::on_telegram(const bus::Telegram& telegram) { on_telegram_from(0, telegram); }

void Node::on_telegram_from(std::uint32_t source, const bus::Telegram& telegram) {
    if (!alive_) {
        telegrams_missed_ += 1;
        return;
    }
    telegrams_ += 1;
    executor_->submit([this, source, telegram] {
        process_telegram(source, telegram);
        return meter_.take();
    });
}

void Node::process_telegram(std::uint32_t source, const bus::Telegram& telegram) {
    crypto_->charge(costs_.bus_parse(telegram.payload.size()));
    const auto record = parsers_[source].process(telegram.payload);
    if (!record) return;  // corrupt frame: unusable, like a failed bus CRC

    const Bytes payload = codec::encode_to_bytes(*record);
    const crypto::Digest payload_digest = crypto::sha256(payload);
    record_receive_time(payload_digest);
    if (config_.auditor != nullptr) config_.auditor->note_received(id_, payload_digest);
    if (config_.trace_sink != nullptr) {
        config_.trace_sink->event(id_, sim_.now(), trace::Phase::kBusReceive,
                              trace::trace_id_from(payload_digest.data()), payload.size());
    }

    // The uniquifier spans (source, cycle) so two sources with coinciding
    // cycle counters sign distinct requests.
    const std::uint64_t uniquifier =
        (static_cast<std::uint64_t>(source) << 48) | telegram.cycle;
    if (config_.mode == Mode::kZugChain) {
        layer_->receive(payload, payload_digest, uniquifier, source);
    } else {
        client_->receive(payload, uniquifier);
    }

    maybe_fabricate(telegram);
    maybe_duplicate();
}

void Node::request_emergency_trim(Height up_to) {
    if (!alive_) return;
    executor_->submit([this, up_to] {
        const Bytes payload = zugchain::ChainApp::make_trim_request(up_to);
        const std::uint64_t uniquifier = (1ull << 56) + up_to;
        if (config_.mode == Mode::kZugChain) {
            layer_->receive(payload, crypto::sha256(payload), uniquifier);
        } else {
            client_->receive(payload, uniquifier);
        }
        return meter_.take();
    });
}

void Node::maybe_fabricate(const bus::Telegram& telegram) {
    const ByzantineBehavior& byz = byzantine_;
    if (byz.fabricate_rate <= 0.0 || !byz_rng_.chance(byz.fabricate_rate)) return;
    if (config_.mode != Mode::kZugChain) return;

    // Fabricated requests: data never sent on the bus, sized like a real
    // record so the load comparison is fair.
    for (std::uint32_t i = 0; i < std::max(1u, byz.fabricate_burst); ++i) {
        pbft::Request fake;
        fake.payload = byz_rng_.bytes(std::max<std::size_t>(telegram.payload.size() / 2, 48));
        fake.origin = id_;
        fake.origin_seq = (1ull << 48) + fabricate_counter_++;
        fake.sig = crypto_->sign(fake.signing_bytes());
        layer_transport_->broadcast(fake);
        if (adversary_) adversary_->stats_mut().fabricated += 1;
    }
}

void Node::maybe_duplicate() {
    const ByzantineBehavior& byz = byzantine_;
    if (byz.duplicate_rate <= 0.0 || recent_payloads_.empty()) return;
    if (!byz_rng_.chance(byz.duplicate_rate)) return;
    if (replica_->primary() != id_) return;

    // Faulty primary re-proposes an already-logged payload under a fresh
    // uniquifier, bypassing the layer's filtering.
    pbft::Request dup;
    dup.payload = recent_payloads_[byz_rng_.next_below(recent_payloads_.size())];
    dup.origin = id_;
    dup.origin_seq = (1ull << 52) + fabricate_counter_++;
    dup.sig = crypto_->sign(dup.signing_bytes());
    if (adversary_) adversary_->stats_mut().duplicates_proposed += 1;
    replica_->propose(dup);
}

void Node::record_receive_time(const crypto::Digest& payload_digest) {
    receive_times_[payload_digest] = sim_.now();
    // Bound the map: entries for data decided long ago are useless.
    if (receive_times_.size() > 8192) receive_times_.clear();
}

void Node::record_logged(const pbft::Request& request, const crypto::Digest& digest) {
    if (config_.auditor != nullptr) config_.auditor->note_logged(id_, digest);
    const auto it = receive_times_.find(digest);
    if (it != receive_times_.end()) {
        const Duration lat = sim_.now() - it->second;
        if (measuring_) {
            latency_.record(lat);
            latency_series_.add(sim_.now(), to_millis(lat));
        }
        receive_times_.erase(it);
    }
    if (byzantine_.duplicate_rate > 0.0) {
        recent_payloads_.push_back(request.payload);
        if (recent_payloads_.size() > 64) recent_payloads_.pop_front();
    }
}

void Node::deliver(net::EndpointId from, Bytes message) {
    if (!alive_) return;
    const std::size_t size = message.size();
    rx_gauge_->add(static_cast<std::int64_t>(size));
    const bool accepted = executor_->submit([this, from, msg = std::move(message), size] {
        rx_gauge_->add(-static_cast<std::int64_t>(size));
        crypto_->charge(costs_.handle(size));
        dispatch(from, BytesView{msg.data(), msg.size()});
        return meter_.take();
    });
    if (!accepted) rx_gauge_->add(-static_cast<std::int64_t>(size));
}

void Node::dispatch(net::EndpointId from, BytesView raw) {
    const auto envelope = decode_envelope(raw);
    if (!envelope) return;
    const BytesView body = envelope->body;
    switch (envelope->channel) {
        case Channel::kPbft: {
            if (from >= config_.n) return;
            if (const auto m = pbft::decode_message(body)) {
                replica_->on_message(static_cast<NodeId>(from), *m);
            }
            break;
        }
        case Channel::kLayer: {
            if (from >= config_.n || config_.mode != Mode::kZugChain) return;
            if (const auto peer = zugchain::decode_peer_request(body)) {
                layer_->on_peer_request(static_cast<NodeId>(from), peer->request, peer->forwarded);
            }
            break;
        }
        case Channel::kExport: {
            if (const auto m = exporter::decode_export_message(body)) export_server_->on_message(*m);
            break;
        }
    }
}

}  // namespace zc::runtime
