#include "chain/merkle.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"

namespace zc::chain {

namespace {

crypto::Digest hash_pair(const crypto::Digest& a, const crypto::Digest& b) {
    crypto::Sha256 h;
    const std::uint8_t tag = 0x01;
    h.update(&tag, 1);
    h.update(a.data(), a.size());
    h.update(b.data(), b.size());
    return h.finalize();
}

crypto::Digest empty_root() {
    return crypto::sha256(to_bytes("zugchain-empty-merkle"));
}

}  // namespace

crypto::Sha256 merkle_leaf_hasher() noexcept {
    crypto::Sha256 h;
    const std::uint8_t tag = 0x00;
    h.update(&tag, 1);
    return h;
}

crypto::Digest merkle_leaf(BytesView data) { return merkle_leaf_hasher().update(data).finalize(); }

crypto::Digest merkle_root(std::span<const crypto::Digest> leaves) {
    if (leaves.empty()) return empty_root();
    std::vector<crypto::Digest> level(leaves.begin(), leaves.end());
    while (level.size() > 1) {
        if (level.size() % 2 != 0) level.push_back(level.back());
        std::vector<crypto::Digest> next;
        next.reserve(level.size() / 2);
        for (std::size_t i = 0; i < level.size(); i += 2) {
            next.push_back(hash_pair(level[i], level[i + 1]));
        }
        level = std::move(next);
    }
    return level.front();
}

MerkleProof merkle_prove(std::span<const crypto::Digest> leaves, std::uint64_t index) {
    if (index >= leaves.size()) throw std::out_of_range("merkle_prove: index out of range");
    MerkleProof proof;
    proof.index = index;

    std::vector<crypto::Digest> level(leaves.begin(), leaves.end());
    std::uint64_t pos = index;
    while (level.size() > 1) {
        if (level.size() % 2 != 0) level.push_back(level.back());
        const std::uint64_t sibling = pos ^ 1;
        proof.siblings.push_back(level[sibling]);
        std::vector<crypto::Digest> next;
        next.reserve(level.size() / 2);
        for (std::size_t i = 0; i < level.size(); i += 2) {
            next.push_back(hash_pair(level[i], level[i + 1]));
        }
        level = std::move(next);
        pos /= 2;
    }
    return proof;
}

bool merkle_verify(const crypto::Digest& root, std::uint64_t leaf_count,
                   const crypto::Digest& leaf, const MerkleProof& proof) {
    if (leaf_count == 0 || proof.index >= leaf_count) return false;

    crypto::Digest acc = leaf;
    std::uint64_t pos = proof.index;
    std::uint64_t width = leaf_count;
    std::size_t level = 0;
    while (width > 1) {
        if (level >= proof.siblings.size()) return false;
        const crypto::Digest& sibling = proof.siblings[level];
        acc = (pos % 2 == 0) ? hash_pair(acc, sibling) : hash_pair(sibling, acc);
        pos /= 2;
        width = (width + 1) / 2;
        ++level;
    }
    return level == proof.siblings.size() && acc == root;
}

}  // namespace zc::chain
