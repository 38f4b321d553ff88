// Merkle tree over request digests; the root binds a block's payload set.
#pragma once

#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace zc::chain {

/// Domain-separated leaf hash (0x00 || data).
crypto::Digest merkle_leaf(BytesView data);

/// A hash context already fed the leaf tag: merkle_leaf(data) is
/// merkle_leaf_hasher().update(data).finalize(), so a leaf can be hashed
/// as its bytes are produced, without building them in a buffer.
crypto::Sha256 merkle_leaf_hasher() noexcept;

/// Root of the given leaf digests. Empty input hashes a fixed sentinel so
/// an empty block still has a well-defined root. Odd levels duplicate the
/// trailing node; leaf/interior hashing is domain separated (0x00 / 0x01
/// prefixes) to prevent second-preimage splices.
crypto::Digest merkle_root(std::span<const crypto::Digest> leaves);

/// Inclusion proof: sibling digests bottom-up plus the leaf's index.
struct MerkleProof {
    std::uint64_t index = 0;
    std::vector<crypto::Digest> siblings;
};

/// Builds the proof for leaf `index` (must be < leaves.size()).
MerkleProof merkle_prove(std::span<const crypto::Digest> leaves, std::uint64_t index);

/// Verifies that `leaf` at `proof.index` is included under `root` for a
/// tree of `leaf_count` leaves.
bool merkle_verify(const crypto::Digest& root, std::uint64_t leaf_count,
                   const crypto::Digest& leaf, const MerkleProof& proof);

}  // namespace zc::chain
