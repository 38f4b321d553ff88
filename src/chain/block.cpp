#include "chain/block.hpp"

#include "chain/merkle.hpp"
#include "crypto/sha256.hpp"

namespace zc::chain {

namespace {

/// Hashes the bytes a codec::Writer would append into a Merkle leaf as
/// they are produced, so a leaf needs no encoded copy of its request.
class LeafHasher {
public:
    void bytes(BytesView v) {
        std::uint8_t len[10] = {};
        h_.update(len, codec::put_varint(v.size(), len));
        h_.update(v);
    }
    void u32(std::uint32_t v) { little_endian(v, 4); }
    void u64(std::uint64_t v) { little_endian(v, 8); }
    template <std::size_t N>
    void raw(const std::array<std::uint8_t, N>& v) {
        h_.update(v.data(), N);
    }
    crypto::Digest finalize() { return h_.finalize(); }

private:
    void little_endian(std::uint64_t v, std::size_t n) {
        std::uint8_t b[8] = {};
        for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        h_.update(b, n);
    }

    crypto::Sha256 h_ = merkle_leaf_hasher();
};

}  // namespace

crypto::Digest LoggedRequest::digest() const {
    LeafHasher h;
    codec::encode(h, *this);
    return h.finalize();
}

crypto::Digest BlockHeader::hash() const {
    return crypto::sha256(codec::encode_to_bytes(*this));
}

Block Block::build(Height height, const crypto::Digest& parent, std::int64_t timestamp_ns,
                   std::vector<LoggedRequest> requests) {
    Block b;
    b.header.height = height;
    b.header.parent_hash = parent;
    b.header.timestamp_ns = timestamp_ns;
    b.header.request_count = static_cast<std::uint32_t>(requests.size());
    std::vector<crypto::Digest> leaves;
    leaves.reserve(requests.size());
    for (const LoggedRequest& req : requests) leaves.push_back(req.digest());
    b.header.payload_root = merkle_root(leaves);
    b.requests = std::move(requests);
    return b;
}

bool Block::payload_valid() const {
    if (requests.size() != header.request_count) return false;
    std::vector<crypto::Digest> leaves;
    leaves.reserve(requests.size());
    for (const LoggedRequest& req : requests) leaves.push_back(req.digest());
    return merkle_root(leaves) == header.payload_root;
}

std::size_t Block::size_bytes() const noexcept {
    std::size_t total = sizeof(BlockHeader);
    for (const LoggedRequest& req : requests) total += req.size_bytes();
    return total;
}

crypto::Digest genesis_parent() {
    return crypto::sha256(to_bytes("zugchain-genesis-parent"));
}

Block make_genesis() {
    return Block::build(0, genesis_parent(), 0, {});
}

}  // namespace zc::chain
