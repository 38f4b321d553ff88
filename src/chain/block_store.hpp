// Replica-local blockchain storage.
//
// Stores the chain from a base block (genesis, or the last exported block
// after pruning) to the head. Supports:
//   * append with parent-link validation,
//   * pruning after a confirmed export (the evidence — the data centers'
//     signed deletes — is retained so chain verification can anchor at the
//     new base instead of genesis),
//   * header-only trimming (paper error scenario (v): before memory
//     exhaustion, replicas may drop bodies but keep headers so integrity
//     remains verifiable),
//   * optional file-backed persistence (paper: the blockchain is persisted
//     on disk to survive power loss),
//   * full-range validation of hash links and payload roots,
//   * stage-then-adopt of fetched ranges (state transfer, data-center
//     export and sync): nothing is appended until the whole range extends
//     the head and ends at the quorum-certified checkpoint digest.
#pragma once

#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include "chain/block.hpp"
#include "metrics/memory.hpp"
#include "trace/trace.hpp"

namespace zc::chain {

/// Evidence that pruning below a base block was authorized by the data
/// centers (serialized signed deletes; opaque at this layer).
struct PruneAnchor {
    Height base_height = 0;
    crypto::Digest base_hash{};
    Bytes evidence;

    template <class F>
    void fields(F& f) {
        f(base_height, base_hash, evidence);
    }
    ZC_CODEC_FIELDS(PruneAnchor)
};

/// What `BlockStore::load` found (and discarded) while restoring a store
/// from disk after a crash. Load never deletes files — the report lists
/// what an offline repair (`zc_inspect --repair`) should remove.
struct RecoveryReport {
    std::uint64_t blocks_loaded = 0;     ///< valid prefix restored into memory
    std::uint64_t blocks_discarded = 0;  ///< corrupt / torn / unlinked entries
    Height recovered_head = 0;           ///< head height after recovery
    bool unrepairable = false;  ///< block files exist but no valid prefix
    std::vector<std::string> discarded_files;  ///< paths load refused to trust
    std::vector<std::string> notes;            ///< human-readable findings

    bool clean() const noexcept { return blocks_discarded == 0 && !unrepairable; }
};

/// Charges the CPU model for re-hashing one staged block of `bytes`.
using ChargeFn = std::function<void(std::size_t bytes)>;

/// Stage-then-adopt check (paper §III-D): does `blocks` extend the chain
/// whose head is (`from_height`, `from_hash`) up to `target`, ending at
/// `state`, the quorum-certified checkpoint digest? Sorts `blocks` by
/// height and drops duplicates and heights outside (from_height, target];
/// fails without charging unless exactly `target - from_height` blocks
/// remain; then charges each block and checks its height, parent link
/// and payload root, stopping at the first failure; finally compares the
/// last hash with `state`. Leaves the filtered range in `blocks`.
bool extends(Height from_height, const crypto::Digest& from_hash, std::vector<Block>& blocks,
             Height target, const crypto::Digest& state, const ChargeFn& charge);

class BlockStore {
public:
    /// In-memory store, seeded with the genesis block. If `dir` is given,
    /// blocks are additionally persisted there as they are appended.
    explicit BlockStore(metrics::Gauge* gauge = nullptr,
                        std::optional<std::filesystem::path> dir = std::nullopt);

    /// Releases this store's bytes from the memory gauge.
    ~BlockStore();

    BlockStore(BlockStore&& other) noexcept;
    BlockStore& operator=(BlockStore&& other) noexcept;
    BlockStore(const BlockStore&) = delete;
    BlockStore& operator=(const BlockStore&) = delete;

    /// Restores a store from a persistence directory, tolerating a torn,
    /// truncated, or bit-flipped tail: every block file carries a checksum
    /// trailer, and load keeps only the longest prefix whose checksums,
    /// heights, and parent links all verify. Discarded entries are listed
    /// in `report` (if given) and left on disk for offline inspection;
    /// state transfer refills the gap at runtime.
    static BlockStore load(const std::filesystem::path& dir, metrics::Gauge* gauge = nullptr,
                           RecoveryReport* report = nullptr);

    /// Appends a block; throws std::invalid_argument if the height or
    /// parent hash does not extend the current head.
    void append(Block block);

    /// Called once per adopted block, just before it is appended.
    using AdoptedFn = std::function<void(const Block&)>;

    /// Appends `blocks` only if they `extends` this store's head up to
    /// `target` with head hash `state`; returns whether it did. On
    /// failure the store is untouched and `blocks` holds the filtered
    /// range (so callers can count what they rejected); on success it is
    /// left empty. Building with ZC_BREAK_VALIDATION appends each linked
    /// block before the digest check (negative testing only).
    bool adopt(std::vector<Block>& blocks, Height target, const crypto::Digest& state,
               const ChargeFn& charge, const AdoptedFn& on_adopted = {});

    /// Block at height, or nullptr if unknown/pruned/body-trimmed.
    const Block* get(Height height) const;

    /// Header at height, or nullptr if unknown/pruned. Survives body trims.
    const BlockHeader* header(Height height) const;

    Height head_height() const noexcept { return head_height_; }
    const crypto::Digest& head_hash() const noexcept { return head_hash_; }

    /// Lowest retained height (genesis or the prune base).
    Height base_height() const noexcept { return base_height_; }

    /// Number of retained block entries (headers).
    std::size_t size() const noexcept { return entries_.size(); }

    /// Deletes everything below `base`; the block at `base` is kept as the
    /// first block of the pruned chain (paper §III-D step 6). `evidence`
    /// is the serialized delete certificate.
    void prune_to(Height base, Bytes evidence);

    const std::optional<PruneAnchor>& anchor() const noexcept { return anchor_; }

    /// Re-anchors this store on a peer's prune base: discards every
    /// retained block (they are all below `base_block`), installs
    /// `base_block` as the new base == head, and records the delete
    /// certificate as the prune anchor. For a rejoining replica whose
    /// peers pruned past its head — the missing prefix is archived at the
    /// data centers and `evidence` carries the delete-quorum signatures
    /// attesting exactly that. Throws std::invalid_argument unless
    /// `base_block` lies strictly above the current head.
    void rebase(Block base_block, Bytes evidence);

    /// Drops request bodies for heights <= `height`, keeping headers
    /// (emergency space reclamation; must itself be agreed via consensus,
    /// which the caller is responsible for).
    void trim_bodies_to(Height height);

    /// Validates hash links and payload roots over [from, to]. Bodies that
    /// were trimmed validate by header link only.
    bool validate(Height from, Height to) const;

    /// Copies blocks in [from, to] (skipping trimmed bodies).
    std::vector<Block> range(Height from, Height to) const;

    /// Logical bytes held (tracked in the memory gauge as well).
    std::size_t stored_bytes() const noexcept { return stored_bytes_; }

    /// Attaches a trace context (the store holds no simulation reference,
    /// so the context carries the virtual-clock handle).
    void set_trace(trace::TraceContext ctx) noexcept { trace_ = ctx; }

private:
    struct LoadTag {};

    /// Load-path constructor: attaches to `dir` without seeding/persisting
    /// a fresh genesis (the directory's existing contents are authoritative).
    BlockStore(LoadTag, metrics::Gauge* gauge, std::filesystem::path dir);

    struct Entry {
        Block block;
        bool body_present = true;  // false after trim_bodies_to
    };

    void account(std::int64_t delta);
    void release_accounting() noexcept;
    std::filesystem::path block_path(Height height) const;
    void persist(const Block& block) const;
    static std::size_t body_bytes(const Block& block) noexcept;

    std::map<Height, Entry> entries_;
    Height base_height_ = 0;
    Height head_height_ = 0;
    crypto::Digest head_hash_{};
    std::optional<PruneAnchor> anchor_;
    metrics::Gauge* gauge_;
    std::optional<std::filesystem::path> dir_;
    std::size_t stored_bytes_ = 0;
    trace::TraceContext trace_;
};

/// Two replicas of one shard that hold different headers at one height.
struct Fork {
    Height height = 0;  ///< the lowest height both retain where they differ
    std::size_t a = 0;  ///< indices into the replicas given to find_forks
    std::size_t b = 0;
};

/// The auditor's chain_fork rule, run offline over a shard's stores:
/// compares the header hash at every height each pair of `replicas`
/// retains (stores pruned to different bases meet where they overlap)
/// and reports the lowest disagreeing height of each pair, pairs in
/// index order.
std::vector<Fork> find_forks(const std::vector<const BlockStore*>& replicas);

}  // namespace zc::chain
