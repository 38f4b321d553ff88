#include "chain/block.hpp"

#include "chain/merkle.hpp"
#include "crypto/sha256.hpp"

namespace zc::chain {

namespace {

/// The one leaf layout, shared by encode() and digest(): `Out` is a
/// codec::Writer or a LeafHasher.
template <typename Out>
void put_fields(const LoggedRequest& req, Out& out) {
    out.bytes(req.payload);
    out.u32(req.origin);
    out.u64(req.seq);
    out.u64(req.origin_seq);
    out.raw(req.sig.v);
}

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

void LoggedRequest::encode(codec::Writer& w) const { put_fields(*this, w); }

LoggedRequest LoggedRequest::decode(codec::Reader& r) {
    LoggedRequest req;
    req.payload = r.bytes();
    req.origin = r.u32();
    req.seq = r.u64();
    req.origin_seq = r.u64();
    req.sig.v = r.raw_array<64>();
    return req;
}

crypto::Digest LoggedRequest::digest() const {
    LeafHasher h;
    put_fields(*this, h);
    return h.finalize();
}

void BlockHeader::encode(codec::Writer& w) const {
    w.u64(height);
    w.raw(parent_hash);
    w.i64(timestamp_ns);
    w.raw(payload_root);
    w.u32(request_count);
}

BlockHeader BlockHeader::decode(codec::Reader& r) {
    BlockHeader h;
    h.height = r.u64();
    h.parent_hash = r.raw_array<32>();
    h.timestamp_ns = r.i64();
    h.payload_root = r.raw_array<32>();
    h.request_count = r.u32();
    return h;
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

void Block::encode(codec::Writer& w) const {
    header.encode(w);
    w.varint(requests.size());
    for (const LoggedRequest& req : requests) req.encode(w);
}

Block Block::decode(codec::Reader& r) {
    Block b;
    b.header = BlockHeader::decode(r);
    const std::uint64_t count = r.varint();
    if (count > 1u << 20) throw codec::DecodeError("implausible request count in block");
    b.requests.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) b.requests.push_back(LoggedRequest::decode(r));
    return b;
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
