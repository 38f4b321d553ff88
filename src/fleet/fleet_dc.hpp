// Shared data center for a fleet of train shards.
//
// One FleetDataCenter is a single juridical archive serving every train:
// it attaches a port at the canonical DC endpoint (kDcEndpointBase + id)
// on *each* shard's network, runs one exporter::DataCenter protocol core per train
// (export rounds are per-chain; the port signs with the DC key that train
// registered and verifies against that train's key directory), and
// funnels every inbound message through one shared bounded
// MeteredExecutor — the DC frontend. It is the only data-center host: a
// single consist (runtime::Scenario) is a one-train fleet. A fleet
// hammering the same archive therefore contends for ingest capacity:
// when the queue fills, messages drop and the affected shard's export
// retries with backoff, exactly like a overloaded real ingestion tier.
//
// Exported blocks from all shards feed a FleetIndex keyed by train id:
// re-deliveries of a block already archived for the same train (DC-to-DC
// sync replication) are counted as dedup hits, while a block hash ever
// appearing under two different trains is a cross-shard collision — the
// isolation invariant the fleet tests pin to zero.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "export/data_center.hpp"
#include "fleet/chaos.hpp"
#include "net/network.hpp"
#include "sim/executor.hpp"

namespace zc::runtime {
class TrainShard;
}

namespace zc::fleet {

/// Cross-fleet archive index: which block heights are safely exported for
/// each train, deduplicated by block hash across data centers.
class FleetIndex {
public:
    struct TrainEntry {
        Height head = 0;              ///< highest archived height
        std::uint64_t blocks = 0;     ///< unique blocks archived
        crypto::Digest head_hash{};   ///< hash at `head`
    };

    /// Walks `store` forward from this (dc, train) cursor, folding any
    /// newly archived blocks into the index.
    void observe(TrainId train, DataCenterId dc, const chain::BlockStore& store);

    const std::map<TrainId, TrainEntry>& trains() const noexcept { return trains_; }
    std::uint64_t unique_blocks() const noexcept { return unique_blocks_; }

    /// Blocks re-observed for the same (train, height) from another DC —
    /// expected replication, deduplicated away.
    std::uint64_t duplicate_blocks() const noexcept { return duplicate_blocks_; }

    /// Block hashes seen under two different trains. Always 0 unless a
    /// shard's chain leaked into a sibling's archive.
    std::uint64_t cross_shard_collisions() const noexcept { return cross_shard_collisions_; }

    /// Compact deterministic JSON (per-train heads + global counters).
    std::string json() const;

private:
    std::map<crypto::Digest, std::pair<TrainId, Height>> by_hash_;
    std::map<std::pair<DataCenterId, TrainId>, Height> cursors_;
    std::map<TrainId, TrainEntry> trains_;
    std::uint64_t unique_blocks_ = 0;
    std::uint64_t duplicate_blocks_ = 0;
    std::uint64_t cross_shard_collisions_ = 0;
};

struct FleetDcConfig {
    /// The per-train export protocol core (id, peers, timeouts, retries;
    /// the same for every train).
    exporter::DcConfig core;

    /// The shared ingestion tier: cores and bounded queue for *all* shards
    /// together (0 = unbounded queue).
    int ingest_cores = 8;
    std::size_t ingest_queue = 4096;
};

class FleetDataCenter {
public:
    FleetDataCenter(FleetDcConfig config, sim::Simulation& sim,
                    crypto::CryptoProvider& provider, FleetIndex& index,
                    trace::TraceSink* trace = nullptr);
    ~FleetDataCenter();

    FleetDataCenter(const FleetDataCenter&) = delete;
    FleetDataCenter& operator=(const FleetDataCenter&) = delete;

    /// Registers one shard: attaches this DC's port at endpoint kDcEndpointBase + id
    /// on the shard's network and spins up the per-train protocol core,
    /// signing with the shard's key for this DC and verifying against the
    /// shard's key directory. Call once per train, in train order, for
    /// every DC (construction order is part of the deterministic replay).
    void add_shard(TrainId train, runtime::TrainShard& shard);

    /// Starts an export round for one train (no-op while one is running).
    void start_export(TrainId train);
    bool exporting(TrainId train) const;

    /// Outage control: a down DC is unreachable on every shard network
    /// (inbound dropped at the endpoint) and refuses new export rounds.
    void set_down(bool down);
    bool down() const noexcept { return down_; }

    /// Folds every per-train store into the fleet index (cheap:
    /// cursor-incremental). Called on the fleet sampling cadence.
    void observe_all();

    exporter::DataCenter& core(TrainId train);
    const exporter::DataCenter& core(TrainId train) const;
    DataCenterId id() const noexcept { return config_.core.id; }

    std::uint64_t ingest_dropped() const noexcept { return executor_.dropped(); }
    std::size_t ingest_queue_depth() const noexcept { return executor_.queue_depth(); }

    struct Totals {
        std::uint64_t exports_completed = 0;
        std::uint64_t exports_failed = 0;
        std::uint64_t retries = 0;
        std::uint64_t blocks_rejected = 0;
        std::uint64_t syncs_received = 0;
    };
    Totals totals() const;

private:
    struct ShardRig;

    FleetDcConfig config_;
    sim::Simulation& sim_;
    crypto::CryptoProvider& provider_;
    FleetIndex& index_;
    trace::TraceSink* trace_;
    metrics::CostModel dc_costs_;
    sim::MeteredExecutor executor_;
    std::vector<std::unique_ptr<ShardRig>> rigs_;  ///< indexed by train id
    bool down_ = false;
};

}  // namespace zc::fleet
