#include <gtest/gtest.h>

#include "chain/block.hpp"
#include "chain/merkle.hpp"
#include "common/rng.hpp"

namespace zc::chain {
namespace {

std::vector<LoggedRequest> make_requests(std::size_t n, SeqNo first_seq = 1) {
    std::vector<LoggedRequest> reqs;
    Rng rng(n + 17);
    for (std::size_t i = 0; i < n; ++i) {
        LoggedRequest r;
        r.payload = rng.bytes(64);
        r.origin = static_cast<NodeId>(i % 4);
        r.seq = first_seq + i;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

TEST(Block, BuildComputesValidRoot) {
    const Block b = Block::build(1, genesis_parent(), 100, make_requests(10));
    EXPECT_TRUE(b.payload_valid());
    EXPECT_EQ(b.header.request_count, 10u);
}

TEST(Block, TamperedRequestDetected) {
    Block b = Block::build(1, genesis_parent(), 100, make_requests(10));
    b.requests[4].payload[0] ^= 1;
    EXPECT_FALSE(b.payload_valid());
}

TEST(Block, ReorderedRequestsDetected) {
    Block b = Block::build(1, genesis_parent(), 100, make_requests(10));
    std::swap(b.requests[0], b.requests[1]);
    EXPECT_FALSE(b.payload_valid());
}

TEST(Block, RemovedRequestDetected) {
    Block b = Block::build(1, genesis_parent(), 100, make_requests(10));
    b.requests.pop_back();
    EXPECT_FALSE(b.payload_valid());
}

TEST(Block, ChangedOriginDetected) {
    Block b = Block::build(1, genesis_parent(), 100, make_requests(10));
    b.requests[0].origin = 99;
    EXPECT_FALSE(b.payload_valid());
}

TEST(Block, HashChangesWithAnyHeaderField) {
    const Block base = Block::build(1, genesis_parent(), 100, make_requests(3));
    const auto h0 = base.hash();

    Block b = base;
    b.header.height = 2;
    EXPECT_NE(b.hash(), h0);

    b = base;
    b.header.timestamp_ns = 101;
    EXPECT_NE(b.hash(), h0);

    b = base;
    b.header.parent_hash[0] ^= 1;
    EXPECT_NE(b.hash(), h0);

    b = base;
    b.header.payload_root[0] ^= 1;
    EXPECT_NE(b.hash(), h0);
}

TEST(Block, EncodeDecodeRoundTrip) {
    const Block b = Block::build(7, genesis_parent(), 12345, make_requests(10));
    const Bytes enc = codec::encode_to_bytes(b);
    const Block back = codec::decode_from_bytes<Block>(enc);
    EXPECT_EQ(back, b);
    EXPECT_EQ(back.hash(), b.hash());
    EXPECT_TRUE(back.payload_valid());
}

TEST(Block, GenesisIsStable) {
    const Block a = make_genesis();
    const Block b = make_genesis();
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.header.height, 0u);
    EXPECT_TRUE(a.payload_valid());
}

TEST(Block, EmptyBlockValid) {
    const Block b = Block::build(1, genesis_parent(), 5, {});
    EXPECT_TRUE(b.payload_valid());
}

TEST(LoggedRequest, DigestBindsAllFields) {
    LoggedRequest r;
    r.payload = to_bytes("data");
    r.origin = 1;
    r.seq = 2;
    const auto d0 = r.digest();

    LoggedRequest r2 = r;
    r2.origin = 3;
    EXPECT_NE(r2.digest(), d0);

    LoggedRequest r3 = r;
    r3.seq = 9;
    EXPECT_NE(r3.digest(), d0);
}

TEST(LoggedRequest, StreamedDigestEqualsLeafOfEncoding) {
    // The leaf is hashed as the fields are produced; it must equal the
    // leaf of the encoded request across the varint-width (127/128,
    // 16383/16384) and SHA-256 block (54-56, 63/64) boundaries.
    Rng rng(31);
    for (const std::size_t len : {0, 1, 54, 55, 56, 63, 64, 127, 128, 16383, 16384}) {
        LoggedRequest r;
        r.payload = rng.bytes(len);
        r.origin = 3;
        r.seq = 0x0102030405060708ull;
        r.origin_seq = ~0ull;
        const Bytes sig = rng.bytes(64);
        std::copy(sig.begin(), sig.end(), r.sig.v.begin());
        EXPECT_EQ(r.digest(), merkle_leaf(codec::encode_to_bytes(r))) << len;
    }
}

}  // namespace
}  // namespace zc::chain
