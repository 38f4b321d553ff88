// Export protocol messages (paper §III-D, Fig. 4).
//
// Export deliberately bypasses consensus: data centers read stable
// checkpoints (whose 2f+1 replica signatures certify the corresponding
// block) directly from individual replicas, so a JRU export can never
// delay or influence agreement.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "chain/block.hpp"
#include "pbft/messages.hpp"

namespace zc::exporter {

/// Data centers address replicas by NodeId; replicas address data centers
/// by DataCenterId. Keys for both live in the shared KeyDirectory, with
/// data-center ids offset by kDcKeyBase.
inline constexpr std::uint32_t kDcKeyBase = 1000;

inline std::uint32_t dc_key_id(DataCenterId dc) { return kDcKeyBase + dc; }

/// Decode bounds on hostile counts.
inline constexpr std::size_t kMaxBlocksPerMessage = 1u << 16;
inline constexpr std::size_t kMaxDeleteEvidence = 1024;  ///< delete commands per anchor

/// (1) read broadcast: asks replicas for their latest stable checkpoint;
/// `full_from` is the randomly chosen replica that also sends full blocks
/// starting after `last_height` (the last block this DC exported).
struct ReadRequest {
    DataCenterId dc = 0;
    Height last_height = 0;
    NodeId full_from = 0;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(dc, last_height, full_from);
    }
    ZC_CODEC_SIGNED(ReadRequest, "exp-read")
    friend bool operator==(const ReadRequest&, const ReadRequest&) = default;
};

/// (2) per-replica reply: latest stable checkpoint proof; the chosen
/// replica piggybacks the full blocks (last_height, covered_height].
struct ReadReply {
    NodeId replica = 0;
    pbft::CheckpointProof proof;
    std::vector<chain::Block> blocks;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(replica, proof, codec::list<kMaxBlocksPerMessage>(blocks));
    }
    ZC_CODEC_SIGNED(ReadReply, "exp-reply")
    friend bool operator==(const ReadReply&, const ReadReply&) = default;
};

/// (4b) second round: fetch specific blocks a reply was missing.
struct BlockFetch {
    DataCenterId dc = 0;
    Height from = 0;
    Height to = 0;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(dc, from, to);
    }
    ZC_CODEC_SIGNED(BlockFetch, "exp-fetch")
    friend bool operator==(const BlockFetch&, const BlockFetch&) = default;
};

struct BlockFetchReply {
    NodeId replica = 0;
    std::vector<chain::Block> blocks;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(replica, codec::list<kMaxBlocksPerMessage>(blocks));
    }
    ZC_CODEC_SIGNED(BlockFetchReply, "exp-fetch-reply")
    friend bool operator==(const BlockFetchReply&, const BlockFetchReply&) = default;
};

/// (3) inter-data-center synchronization: proof + blocks forwarded to the
/// other companies' data centers.
struct DcSync {
    DataCenterId from = 0;
    pbft::CheckpointProof proof;
    std::vector<chain::Block> blocks;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(from, proof, codec::list<kMaxBlocksPerMessage>(blocks));
    }
    ZC_CODEC_SIGNED(DcSync, "exp-sync")
    friend bool operator==(const DcSync&, const DcSync&) = default;
};

/// Data-center-to-data-center block request (paper error scenario (iv): a
/// delayed data center that missed an export recovers the gap from its
/// peers, since replicas may already have pruned those blocks). Answered
/// with a DcSync carrying the requested range.
struct DcFetch {
    DataCenterId from_dc = 0;
    Height from = 0;
    Height to = 0;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(from_dc, from, to);
    }
    ZC_CODEC_SIGNED(DcFetch, "exp-dcfetch")
    friend bool operator==(const DcFetch&, const DcFetch&) = default;
};

/// (5) signed delete: authorizes pruning up to (and excluding) the block
/// at `height` with hash `block_hash` (which stays as the new chain base).
struct DeleteCmd {
    DataCenterId dc = 0;
    Height height = 0;
    crypto::Digest block_hash{};
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(dc, height, block_hash);
    }
    ZC_CODEC_SIGNED(DeleteCmd, "exp-delete")
    friend bool operator==(const DeleteCmd&, const DeleteCmd&) = default;
};

/// (7) replica acknowledgement of an executed delete.
struct DeleteAck {
    NodeId replica = 0;
    Height height = 0;
    bool executed = false;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(replica, height, executed);
    }
    ZC_CODEC_SIGNED(DeleteAck, "exp-ack")
    friend bool operator==(const DeleteAck&, const DeleteAck&) = default;
};

/// The transport tag is 1 + the index below.
using ExportMessage =
    std::variant<ReadRequest, ReadReply, BlockFetch, BlockFetchReply, DcSync, DeleteCmd,
                 DeleteAck, DcFetch>;

Bytes encode_export_message(const ExportMessage& m);
std::optional<ExportMessage> decode_export_message(BytesView data) noexcept;

/// Serializes a set of delete commands as prune-anchor evidence.
Bytes encode_delete_evidence(const std::vector<DeleteCmd>& deletes);
std::optional<std::vector<DeleteCmd>> decode_delete_evidence(BytesView data) noexcept;

}  // namespace zc::exporter
