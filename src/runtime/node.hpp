// One ZugChain node: the full software stack deployed on a shared train
// device (paper Fig. 3) — bus connector with the JRU parse/filter
// transform, the ZugChain communication layer (or, in baseline mode, a
// traditional PBFT client), the PBFT replica, the blockchain application
// with its persistent store, and the export server — all executing on a
// metered virtual CPU and communicating through the simulated network.
//
// Byzantine behaviours used by the evaluation (Fig. 9 and the fault-model
// tests) are injected here, at the node boundary, so the protocol
// libraries stay honest-by-construction.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "baseline/app.hpp"
#include "baseline/client.hpp"
#include "bus/bus.hpp"
#include "export/server.hpp"
#include "faults/adversary.hpp"
#include "faults/auditor.hpp"
#include "metrics/stats.hpp"
#include "net/network.hpp"
#include "pbft/replica.hpp"
#include "runtime/scenario_config.hpp"
#include "runtime/wire.hpp"
#include "sim/executor.hpp"
#include "trace/trace.hpp"
#include "train/jru_parser.hpp"
#include "zugchain/chain_app.hpp"
#include "zugchain/layer.hpp"

namespace zc::runtime {

class Node final : public net::Endpoint, public bus::BusTap {
public:
    /// Node `id` of the consist `config` describes. The node keeps a
    /// reference to `config`, which must outlive it (a TrainShard owns its
    /// consist's copy).
    Node(const ScenarioConfig& config, NodeId id, sim::Simulation& sim, net::Network& network,
         crypto::CryptoProvider& provider, const crypto::KeyDirectory& directory,
         crypto::KeyPair key, const metrics::CostModel& costs);
    ~Node() override;

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    // -- substrate callbacks ---------------------------------------------
    void on_telegram(const bus::Telegram& telegram) override;  // primary bus (source 0)

    /// Input from an additional bus/link (paper §III-C "Multiple Input
    /// Sources"); each source keeps its own queue in the layer.
    void on_telegram_from(std::uint32_t source, const bus::Telegram& telegram);

    void deliver(net::EndpointId from, Bytes message) override;

    /// Proposes the emergency header-only trim agreement (paper error
    /// scenario (v)); once ordered, all replicas trim bodies <= `up_to`.
    void request_emergency_trim(Height up_to);

    // -- control ----------------------------------------------------------

    /// Power loss: stops consuming bus and network input, drops every
    /// queued-but-unprocessed protocol job, and marks the network endpoint
    /// down so in-flight messages are dropped (and counted) at the NIC.
    void crash() noexcept;

    /// Reboot after a crash: reloads the persisted chain (truncating any
    /// torn tail), rebuilds the volatile protocol stack resuming at the
    /// durable head, and re-arms the network endpoint. `start_view` is the
    /// harness's hint of the view the cluster currently runs; catch-up
    /// beyond the durable head happens via checkpoint-driven state
    /// transfer. No-op while the node is alive.
    void restart(View start_view = 0);

    bool alive() const noexcept { return alive_; }

    /// Starts/stops latency recording (scenario warmup control).
    void set_measuring(bool on) noexcept { measuring_ = on; }

    // -- observers ---------------------------------------------------------
    NodeId id() const noexcept { return id_; }
    pbft::Replica& replica() noexcept { return *replica_; }
    zugchain::CommunicationLayer* layer() noexcept { return layer_.get(); }
    baseline::BaselineClient* client() noexcept { return client_.get(); }
    zugchain::ChainApp& chain_app() noexcept { return *chain_app_; }
    chain::BlockStore& store() noexcept { return store_; }
    sim::MeteredExecutor& executor() noexcept { return *executor_; }
    metrics::MemoryTracker& memory() noexcept { return memory_; }
    const metrics::LatencyRecorder& latency() const noexcept { return latency_; }
    const metrics::Series& latency_series() const noexcept { return latency_series_; }
    crypto::CryptoContext& crypto() noexcept { return *crypto_; }

    /// The mutation pipeline of a compromised node (null when honest).
    faults::Adversary* adversary() noexcept { return adversary_.get(); }

    std::uint64_t telegrams_seen() const noexcept { return telegrams_; }
    std::uint64_t rx_dropped() const noexcept { return executor_->dropped(); }
    std::uint64_t restarts() const noexcept { return restarts_; }

    /// Bus telegrams that arrived while the node was down.
    std::uint64_t telegrams_missed() const noexcept { return telegrams_missed_; }

    /// What the last `restart()` found when reloading the store.
    const chain::RecoveryReport& last_recovery() const noexcept { return last_recovery_; }

private:
    struct PbftTransportAdapter;
    struct LayerTransportAdapter;
    struct ConsensusAdapter;
    struct AppShim;
    struct LogShim;
    struct ExportTransportAdapter;
    struct ClientSenderAdapter;

    /// Builds (or rebuilds, on restart) the volatile protocol components
    /// on top of the durable store: chain app, replica, layer or baseline
    /// client, export server. `start_view`/`start_seq` position the
    /// replica for a rejoin (0/0 on first boot).
    void build_stack(View start_view, SeqNo start_seq);

    /// store_root/node-<id>, or none for an in-memory chain.
    std::optional<std::filesystem::path> store_dir() const;

    /// Decodes one inbound envelope and its channel payload, then hands it
    /// to the replica, layer or export server.
    void dispatch(net::EndpointId from, BytesView raw);
    void process_telegram(std::uint32_t source, const bus::Telegram& telegram);
    void maybe_fabricate(const bus::Telegram& telegram);
    void maybe_duplicate();
    void record_receive_time(const crypto::Digest& payload_digest);
    void record_logged(const pbft::Request& request, const crypto::Digest& payload_digest);
    void send_enveloped(net::EndpointId to, Channel channel, BytesView body);
    /// Sends one envelope, encoded once, to every peer replica.
    void broadcast_enveloped(Channel channel, BytesView body);

    const ScenarioConfig& config_;
    const NodeId id_;
    const ByzantineBehavior byzantine_;  ///< this node's entry of config_.byzantine
    sim::Simulation& sim_;
    net::Network& network_;
    const metrics::CostModel& costs_;

    bool alive_ = true;
    bool measuring_ = false;

    crypto::WorkMeter meter_;
    std::unique_ptr<crypto::CryptoContext> crypto_;
    metrics::MemoryTracker memory_;
    std::unique_ptr<sim::MeteredExecutor> executor_;
    metrics::Gauge* rx_gauge_;

    std::map<std::uint32_t, train::JruParser> parsers_;  // one per input source
    chain::BlockStore store_;

    std::unique_ptr<PbftTransportAdapter> pbft_transport_;
    std::unique_ptr<LayerTransportAdapter> layer_transport_;
    std::unique_ptr<ConsensusAdapter> consensus_adapter_;
    std::unique_ptr<AppShim> app_shim_;
    std::unique_ptr<LogShim> log_shim_;
    std::unique_ptr<ExportTransportAdapter> export_transport_;
    std::unique_ptr<ClientSenderAdapter> client_sender_;

    std::unique_ptr<zugchain::ChainApp> chain_app_;
    std::unique_ptr<zugchain::CommunicationLayer> layer_;
    std::unique_ptr<baseline::BaselineClient> client_;
    std::unique_ptr<baseline::BaselineApp> baseline_app_;
    std::unique_ptr<pbft::Replica> replica_;
    std::unique_ptr<exporter::ExportServer> export_server_;

    // latency bookkeeping: payload digest -> bus receive time
    std::unordered_map<crypto::Digest, TimePoint, crypto::DigestHash> receive_times_;
    metrics::LatencyRecorder latency_;
    metrics::Series latency_series_;

    // Byzantine state
    std::unique_ptr<faults::Adversary> adversary_;
    Rng byz_rng_;
    std::uint64_t fabricate_counter_ = 0;
    std::deque<Bytes> recent_payloads_;  // for the duplicate-proposer attack

    std::uint64_t telegrams_ = 0;
    std::uint64_t telegrams_missed_ = 0;
    std::uint64_t restarts_ = 0;
    chain::RecoveryReport last_recovery_;
};

}  // namespace zc::runtime
