// Block structure of the ZugChain ledger.
//
// A block bundles `block_size` totally ordered requests (paper: 10). Each
// logged request carries the id of the node that actually received it from
// the bus, as required for post-incident analysis. Headers are hash-chained
// via the parent digest; the payload set is bound by a Merkle root so a
// single surviving node suffices to prove or disprove tampering.
#pragma once

#include <vector>

#include "codec/codec.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/digest.hpp"
#include "crypto/ed25519.hpp"

namespace zc::chain {

/// Decode bound on a block's request count.
inline constexpr std::size_t kMaxBlockRequests = 1u << 20;

/// A totally ordered, logged request. Carries the origin's request
/// signature so the chain itself is juridical evidence: any party holding
/// the deployment's key directory can re-verify who injected each input
/// without access to consensus transcripts.
struct LoggedRequest {
    Bytes payload;          ///< filtered JRU record bytes
    NodeId origin = 0;      ///< node that received this input from the bus
    SeqNo seq = 0;          ///< consensus sequence number
    std::uint64_t origin_seq = 0;   ///< origin's uniqueifier (bus cycle)
    crypto::Signature sig{};        ///< origin's signature over the request

    /// The origin's signature is a logged field, part of the leaf.
    template <class F>
    void fields(F& f) {
        f(payload, origin, seq, origin_seq, sig.v);
    }
    ZC_CODEC_FIELDS(LoggedRequest)

    /// Digest used as the request's Merkle leaf.
    crypto::Digest digest() const;

    std::size_t size_bytes() const noexcept { return payload.size() + 88; }

    friend bool operator==(const LoggedRequest&, const LoggedRequest&) = default;
};

struct BlockHeader {
    Height height = 0;
    crypto::Digest parent_hash{};
    std::int64_t timestamp_ns = 0;  ///< virtual time of block creation
    crypto::Digest payload_root{};
    std::uint32_t request_count = 0;

    template <class F>
    void fields(F& f) {
        f(height, parent_hash, timestamp_ns, payload_root, request_count);
    }
    ZC_CODEC_FIELDS(BlockHeader)

    /// The block id: SHA-256 over the encoded header.
    crypto::Digest hash() const;

    friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

struct Block {
    BlockHeader header;
    std::vector<LoggedRequest> requests;

    /// Builds a block over `requests`, computing the Merkle root.
    static Block build(Height height, const crypto::Digest& parent, std::int64_t timestamp_ns,
                       std::vector<LoggedRequest> requests);

    /// Recomputes the root and checks it against the header.
    bool payload_valid() const;

    crypto::Digest hash() const { return header.hash(); }

    template <class F>
    void fields(F& f) {
        f(header, codec::list<kMaxBlockRequests>(requests));
    }
    ZC_CODEC_FIELDS(Block)

    std::size_t size_bytes() const noexcept;

    friend bool operator==(const Block&, const Block&) = default;
};

/// Hash value of "no parent", used by the genesis block.
crypto::Digest genesis_parent();

/// Genesis block (height 0, no requests, fixed timestamp).
Block make_genesis();

}  // namespace zc::chain
