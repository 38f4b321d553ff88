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
            for (std::uint32_t i = 0; i < node.options_.n; ++i) {
                if (i != node.options_.id) send(i, m);
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
        if (to == node.options_.id) return;
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
        if (node.options_.mode == Mode::kZugChain) {
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
        if (node.options_.mode == Mode::kZugChain) {
            node.layer_->new_primary(view, primary);
        } else {
            node.baseline_app_->new_primary(view, primary);
        }
    }

    void stable_checkpoint(SeqNo seq, const pbft::CheckpointProof& proof) override {
        if (node.options_.mode == Mode::kZugChain) node.layer_->stable_checkpoint(seq, proof);
    }

    void preprepared(const pbft::Request& request) override {
        if (node.options_.mode == Mode::kZugChain) node.layer_->preprepared(request);
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
        if (primary == node.options_.id) {
            node.replica_->propose(request);
        } else {
            node.send_enveloped(primary, Channel::kPbft,
                                pbft::encode_message(pbft::Message{request}));
        }
    }

    void to_all(const pbft::Request& request) override {
        const Bytes body = pbft::encode_message(pbft::Message{request});
        for (std::uint32_t i = 0; i < node.options_.n; ++i) {
            if (i == node.options_.id) {
                node.replica_->propose(request);
            } else {
                node.send_enveloped(i, Channel::kPbft, body);
            }
        }
    }

    Node& node;
};

// ---- Node ---------------------------------------------------------------

Node::Node(NodeOptions options, sim::Simulation& sim, net::Network& network,
           crypto::CryptoProvider& provider, const crypto::KeyDirectory& directory,
           crypto::KeyPair key, const metrics::CostModel& costs)
    : options_(options), sim_(sim), network_(network), costs_(costs),
      store_(memory_.gauge("chain"), options.store_dir),
      byz_rng_(sim.rng().fork("byz-" + std::to_string(options.id))) {
    crypto_ = std::make_unique<crypto::CryptoContext>(provider, directory, std::move(key), costs,
                                                      meter_);
    executor_ = std::make_unique<sim::MeteredExecutor>(sim, options_.protocol_cores,
                                                       options_.rx_queue_limit);
    rx_gauge_ = memory_.gauge("rx-queue");

    if (options_.byzantine.any()) {
        adversary_ = std::make_unique<faults::Adversary>(options_.byzantine, options_.id,
                                                         options_.n, sim_, *crypto_);
        adversary_->set_pbft_emit([this](NodeId to, const pbft::Message& m) {
            send_enveloped(to, Channel::kPbft, pbft::encode_message(m));
        });
    }

    pbft_transport_ = std::make_unique<PbftTransportAdapter>(*this);
    export_transport_ = std::make_unique<ExportTransportAdapter>(*this);
    app_shim_ = std::make_unique<AppShim>(*this);
    if (options_.mode == Mode::kZugChain) {
        layer_transport_ = std::make_unique<LayerTransportAdapter>(*this);
        consensus_adapter_ = std::make_unique<ConsensusAdapter>(*this);
        log_shim_ = std::make_unique<LogShim>(*this);
    } else {
        client_sender_ = std::make_unique<ClientSenderAdapter>(*this);
    }

    build_stack(/*start_view=*/0, /*start_seq=*/0);
}

void Node::build_stack(View start_view, SeqNo start_seq) {
    chain_app_ = std::make_unique<zugchain::ChainApp>(store_, *crypto_, options_.block_size);

    pbft::ReplicaConfig rcfg;
    rcfg.id = options_.id;
    rcfg.n = options_.n;
    rcfg.f = options_.f;
    rcfg.checkpoint_interval = options_.block_size;
    rcfg.view_change_timeout = options_.view_change_timeout;
    rcfg.adaptive = options_.adaptive_timeouts;
    rcfg.request_timeout =
        options_.mode == Mode::kBaseline ? options_.request_timeout : Duration::zero();
    rcfg.dedup_proposals = options_.byzantine.duplicate_rate <= 0.0;
    rcfg.max_batch_requests = options_.batch_max_requests;
    rcfg.max_batch_bytes = options_.batch_max_bytes;
    rcfg.batch_linger = options_.batch_linger;
    rcfg.start_view = start_view;
    rcfg.start_seq = start_seq;

    replica_ = std::make_unique<pbft::Replica>(rcfg, sim_, *crypto_, *pbft_transport_,
                                               *app_shim_, memory_.gauge("pbft-log"));
    replica_->set_trace(options_.trace);
    store_.set_trace({options_.trace, options_.id, sim_.now_handle()});

    if (options_.mode == Mode::kZugChain) {
        zugchain::LayerConfig lcfg;
        lcfg.id = options_.id;
        lcfg.soft_timeout = options_.soft_timeout;
        lcfg.hard_timeout = options_.hard_timeout;
        lcfg.adaptive = options_.adaptive_timeouts;
        lcfg.max_open_per_origin = options_.max_open_per_origin;
        layer_ = std::make_unique<zugchain::CommunicationLayer>(
            lcfg, sim_, *crypto_, *layer_transport_, *log_shim_, memory_.gauge("layer-queue"));
        layer_->attach_consensus(*consensus_adapter_);
        layer_->set_trace(options_.trace);
    } else {
        baseline::ClientConfig ccfg;
        ccfg.id = options_.id;
        ccfg.retransmit_timeout = options_.client_timeout;
        client_ = std::make_unique<baseline::BaselineClient>(ccfg, sim_, *crypto_,
                                                             *client_sender_);
        baseline_app_ = std::make_unique<baseline::BaselineApp>(*chain_app_, *client_);
    }

    // A rejoining replica must agree with the cluster about who leads the
    // current view before it can route requests.
    if (start_view > 0) app_shim_->new_primary(start_view, replica_->primary_of(start_view));

    exporter::ServerConfig ecfg;
    ecfg.id = options_.id;
    ecfg.checkpoint_interval = options_.block_size;
    ecfg.delete_quorum = options_.delete_quorum;
    export_server_ =
        std::make_unique<exporter::ExportServer>(ecfg, *crypto_, store_, *export_transport_);
    export_server_->set_proof_provider([this] { return replica_->latest_stable_proof(); });
    export_server_->set_trace({options_.trace, options_.id, sim_.now_handle()});
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
    network_.set_endpoint_down(options_.id, true);
    // Power loss wipes the RAM verified-signature memo: after restart the
    // node pays full verification cost again, like the real device would.
    crypto_->reset_memo();
    // The replica object survives until restart() rebuilds the stack, but
    // its timers must not: a request timer firing while the node is down
    // (or after rejoin, keyed to a long-gone view) would suspect a primary
    // that was never slow. The same goes for the adversary's delayed sends.
    if (replica_) replica_->cancel_timers();
    if (adversary_) adversary_->cancel_pending();
    if (options_.auditor != nullptr) options_.auditor->note_crashed(options_.id);
    if (options_.trace != nullptr) {
        options_.trace->event(options_.id, sim_.now(), trace::Phase::kNodeDown, options_.id,
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
    if (options_.store_dir) {
        store_ = chain::BlockStore::load(*options_.store_dir, memory_.gauge("chain"),
                                         &last_recovery_);
        if (!last_recovery_.clean()) {
            ZC_WARN("node", "node {} store recovery discarded {} block(s), resuming at head {}",
                    options_.id, last_recovery_.blocks_discarded,
                    last_recovery_.recovered_head);
        }
    } else {
        store_ = chain::BlockStore(memory_.gauge("chain"));
    }

    // Resume consensus at the durable head: the next checkpoint the peers
    // stabilize beyond it triggers sync_state -> state transfer.
    build_stack(start_view, store_.head_height() * options_.block_size);

    alive_ = true;
    network_.set_endpoint_down(options_.id, false);
    if (options_.trace != nullptr) {
        options_.trace->event(options_.id, sim_.now(), trace::Phase::kNodeRestart, options_.id,
                              store_.head_height());
    }
}

void Node::send_enveloped(net::EndpointId to, Channel channel, BytesView body) {
    if (!alive_) return;
    network_.send(options_.id, to, encode_envelope(channel, body));
}

void Node::broadcast_enveloped(Channel channel, BytesView body) {
    if (!alive_) return;
    const Bytes wire = encode_envelope(channel, body);
    for (std::uint32_t i = 0; i < options_.n; ++i) {
        if (i != options_.id) network_.send(options_.id, i, wire);
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
    if (options_.auditor != nullptr) options_.auditor->note_received(options_.id, payload_digest);
    if (options_.trace != nullptr) {
        options_.trace->event(options_.id, sim_.now(), trace::Phase::kBusReceive,
                              trace::trace_id_from(payload_digest.data()), payload.size());
    }

    // The uniquifier spans (source, cycle) so two sources with coinciding
    // cycle counters sign distinct requests.
    const std::uint64_t uniquifier =
        (static_cast<std::uint64_t>(source) << 48) | telegram.cycle;
    if (options_.mode == Mode::kZugChain) {
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
        if (options_.mode == Mode::kZugChain) {
            layer_->receive(payload, crypto::sha256(payload), uniquifier);
        } else {
            client_->receive(payload, uniquifier);
        }
        return meter_.take();
    });
}

void Node::maybe_fabricate(const bus::Telegram& telegram) {
    const ByzantineBehavior& byz = options_.byzantine;
    if (byz.fabricate_rate <= 0.0 || !byz_rng_.chance(byz.fabricate_rate)) return;
    if (options_.mode != Mode::kZugChain) return;

    // Fabricated requests: data never sent on the bus, sized like a real
    // record so the load comparison is fair.
    for (std::uint32_t i = 0; i < std::max(1u, byz.fabricate_burst); ++i) {
        pbft::Request fake;
        fake.payload = byz_rng_.bytes(std::max<std::size_t>(telegram.payload.size() / 2, 48));
        fake.origin = options_.id;
        fake.origin_seq = (1ull << 48) + fabricate_counter_++;
        fake.sig = crypto_->sign(fake.signing_bytes());
        layer_transport_->broadcast(fake);
        if (adversary_) adversary_->stats_mut().fabricated += 1;
    }
}

void Node::maybe_duplicate() {
    const ByzantineBehavior& byz = options_.byzantine;
    if (byz.duplicate_rate <= 0.0 || recent_payloads_.empty()) return;
    if (!byz_rng_.chance(byz.duplicate_rate)) return;
    if (replica_->primary() != options_.id) return;

    // Faulty primary re-proposes an already-logged payload under a fresh
    // uniquifier, bypassing the layer's filtering.
    pbft::Request dup;
    dup.payload = recent_payloads_[byz_rng_.next_below(recent_payloads_.size())];
    dup.origin = options_.id;
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
    if (options_.auditor != nullptr) options_.auditor->note_logged(options_.id, digest);
    const auto it = receive_times_.find(digest);
    if (it != receive_times_.end()) {
        const Duration lat = sim_.now() - it->second;
        if (measuring_) {
            latency_.record(lat);
            latency_series_.add(sim_.now(), to_millis(lat));
        }
        receive_times_.erase(it);
    }
    if (options_.byzantine.duplicate_rate > 0.0) {
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
            if (from >= options_.n) return;
            if (const auto m = pbft::decode_message(body)) {
                replica_->on_message(static_cast<NodeId>(from), *m);
            }
            break;
        }
        case Channel::kLayer: {
            if (from >= options_.n || options_.mode != Mode::kZugChain) return;
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
