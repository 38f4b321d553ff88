#include "fleet/fleet_dc.hpp"

#include <variant>

#include "prof/prof.hpp"
#include "runtime/train_shard.hpp"
#include "runtime/wire.hpp"

namespace zc::fleet {

void FleetIndex::observe(TrainId train, DataCenterId dc, const chain::BlockStore& store) {
    Height& cursor = cursors_[{dc, train}];
    const Height head = store.head_height();
    for (Height h = cursor + 1; h <= head; ++h) {
        const chain::BlockHeader* header = store.header(h);
        if (header == nullptr) continue;
        const crypto::Digest hash = header->hash();
        const auto [it, inserted] = by_hash_.try_emplace(hash, train, h);
        if (inserted) {
            TrainEntry& entry = trains_[train];
            entry.blocks += 1;
            if (h >= entry.head) {
                entry.head = h;
                entry.head_hash = hash;
            }
            unique_blocks_ += 1;
        } else if (it->second.first == train) {
            duplicate_blocks_ += 1;  // replicated via DC-to-DC sync
        } else {
            cross_shard_collisions_ += 1;  // a sibling shard's block — never expected
        }
    }
    if (head > cursor) cursor = head;
}

std::string FleetIndex::json() const {
    std::string out = "{\"unique_blocks\":" + std::to_string(unique_blocks_) +
                      ",\"duplicate_blocks\":" + std::to_string(duplicate_blocks_) +
                      ",\"cross_shard_collisions\":" + std::to_string(cross_shard_collisions_) +
                      ",\"trains\":[";
    bool first = true;
    for (const auto& [train, entry] : trains_) {
        if (!first) out += ",";
        first = false;
        out += "{\"train\":" + std::to_string(train) +
               ",\"head\":" + std::to_string(entry.head) +
               ",\"blocks\":" + std::to_string(entry.blocks) + "}";
    }
    out += "]}";
    return out;
}

/// One train's slice of this data center: the network port on that
/// shard's network, a crypto context bound to the shard's DC key and key
/// directory, and the per-chain export protocol core.
struct FleetDataCenter::ShardRig final : net::Endpoint, exporter::DcTransport {
    ShardRig(FleetDataCenter& host, TrainId train, runtime::TrainShard& shard)
        : host(host), train(train), net(shard.network()),
          crypto(host.provider_, shard.directory(), shard.dc_key(host.id()),
                 host.dc_costs_, meter) {
        core = std::make_unique<exporter::DataCenter>(host.config_.core, host.sim_, crypto, *this);
        if (host.trace_ != nullptr) core->set_trace(host.trace_, kDcEndpointBase + host.id());
    }

    // Inbound (from this shard's replicas or a peer DC's port on the same
    // shard network) funnels through the host's *shared* bounded
    // executor: every train contends for the same ingestion tier.
    void deliver(net::EndpointId from, Bytes message) override {
        (void)from;
        if (host.down_) return;
        // Enqueue time feeds the ingest-queue span: how long this message
        // waited for a shared executor core (arg = wire bytes, trace = train).
        const TimePoint enqueued = host.sim_.now();
        host.executor_.submit([this, enqueued, msg = std::move(message)] {
            ZC_PROF_SCOPE(kDcIngest);
            if (host.trace_ != nullptr) {
                host.trace_->span(kDcEndpointBase + host.id(), enqueued,
                                  host.sim_.now() - enqueued, trace::Phase::kDcIngestQueue,
                                  train, msg.size());
            }
            crypto.charge(host.dc_costs_.handle(msg.size()));
            const auto envelope = runtime::decode_envelope(msg);
            if (envelope && envelope->channel == runtime::Channel::kExport) {
                const auto m = exporter::decode_export_message(envelope->body);
                if (m) {
                    if (std::holds_alternative<exporter::DcSync>(*m)) {
                        ZC_PROF_SCOPE(kDcSync);
                        if (host.trace_ != nullptr) {
                            host.trace_->event(kDcEndpointBase + host.id(), host.sim_.now(),
                                               trace::Phase::kDcSync, train,
                                               envelope->body.size());
                        }
                        core->on_message(*m);
                    } else {
                        core->on_message(*m);
                    }
                }
            }
            return meter.take();
        });
    }

    void to_replica(NodeId replica, const exporter::ExportMessage& m) override {
        net.send(kDcEndpointBase + host.id(), replica,
                 runtime::encode_envelope(runtime::Channel::kExport,
                                          exporter::encode_export_message(m)));
    }
    // Peer DCs are reachable through their port on this same shard
    // network, so per-train sync traffic stays within the shard's
    // addressing plan (peer ports route it to their core for `train`).
    void to_data_center(DataCenterId dc, const exporter::ExportMessage& m) override {
        net.send(kDcEndpointBase + host.id(), kDcEndpointBase + dc,
                 runtime::encode_envelope(runtime::Channel::kExport,
                                          exporter::encode_export_message(m)));
    }

    FleetDataCenter& host;
    TrainId train;
    net::Network& net;
    crypto::WorkMeter meter;
    crypto::CryptoContext crypto;
    std::unique_ptr<exporter::DataCenter> core;
};

FleetDataCenter::FleetDataCenter(FleetDcConfig config, sim::Simulation& sim,
                                 crypto::CryptoProvider& provider, FleetIndex& index,
                                 trace::TraceSink* trace)
    : config_(config), sim_(sim), provider_(provider), index_(index), trace_(trace), dc_costs_(metrics::CostModel::cloud()),
      executor_(sim, config.ingest_cores, config.ingest_queue) {}

FleetDataCenter::~FleetDataCenter() = default;

void FleetDataCenter::add_shard(TrainId train, runtime::TrainShard& shard) {
    if (rigs_.size() != train) {
        throw std::invalid_argument("fleet dc shards must be added in train order");
    }
    rigs_.push_back(std::make_unique<ShardRig>(*this, train, shard));
    // The port runs on this DC's queue (the fleet's), whichever queue the
    // shard's replicas run on.
    shard.network().attach(kDcEndpointBase + id(), rigs_.back().get(), &sim_);
    // Archive growth is indexed as exports complete (plus the periodic
    // observe_all sweep for sync-adopted blocks).
    exporter::DataCenter* core = rigs_.back()->core.get();
    core->set_completion_hook([this, train, core](const exporter::ExportRecord& record) {
        if (record.success) index_.observe(train, id(), core->store());
    });
}

void FleetDataCenter::start_export(TrainId train) {
    if (down_) return;
    rigs_.at(train)->core->start_export();
}

bool FleetDataCenter::exporting(TrainId train) const {
    return rigs_.at(train)->core->exporting();
}

void FleetDataCenter::set_down(bool down) {
    down_ = down;
    for (const auto& rig : rigs_) {
        rig->net.set_endpoint_down(kDcEndpointBase + id(), down);
    }
    if (down) executor_.clear_queue();  // the frontend loses its backlog too
}

void FleetDataCenter::observe_all() {
    for (const auto& rig : rigs_) index_.observe(rig->train, id(), rig->core->store());
}

exporter::DataCenter& FleetDataCenter::core(TrainId train) { return *rigs_.at(train)->core; }

const exporter::DataCenter& FleetDataCenter::core(TrainId train) const {
    return *rigs_.at(train)->core;
}

FleetDataCenter::Totals FleetDataCenter::totals() const {
    Totals t;
    for (const auto& rig : rigs_) {
        const exporter::DcStats& s = rig->core->stats();
        t.exports_completed += s.exports_completed;
        t.exports_failed += s.exports_failed;
        t.retries += s.retries;
        t.blocks_rejected += s.blocks_rejected;
        t.syncs_received += s.syncs_received;
    }
    return t;
}

}  // namespace zc::fleet
