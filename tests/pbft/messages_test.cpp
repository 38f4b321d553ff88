#include <gtest/gtest.h>

#include "pbft/messages.hpp"

namespace zc::pbft {
namespace {

Request sample_request() {
    Request r;
    r.payload = to_bytes("speed=120;brake=0");
    r.origin = 2;
    r.origin_seq = 77;
    r.sig.v.fill(0xab);
    return r;
}

TEST(Messages, RequestRoundTrip) {
    const Request r = sample_request();
    const auto m = decode_message(encode_message(Message{r}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<Request>(*m), r);
}

TEST(Messages, RequestDigestCoversIdentity) {
    const Request r = sample_request();
    Request r2 = r;
    r2.origin = 3;
    EXPECT_NE(r.digest(), r2.digest());
    Request r3 = r;
    r3.origin_seq = 78;
    EXPECT_NE(r.digest(), r3.digest());
    // ...but the payload digest ignores origin: same bus data from two
    // nodes deduplicates in the ZugChain layer.
    EXPECT_EQ(r.payload_digest(), r2.payload_digest());
    EXPECT_EQ(r.payload_digest(), r3.payload_digest());
}

TEST(Messages, SignatureExcludedFromSigningBytes) {
    Request r = sample_request();
    const Bytes sb = r.signing_bytes();
    r.sig.v.fill(0x00);
    EXPECT_EQ(r.signing_bytes(), sb);
}

TEST(Messages, NullRequestIsDistinct) {
    EXPECT_TRUE(Request::null().is_null());
    EXPECT_FALSE(sample_request().is_null());
    EXPECT_NE(Request::null().digest(), sample_request().digest());
}

TEST(Messages, PrePrepareRoundTrip) {
    PrePrepare pp;
    pp.view = 3;
    pp.seq = 42;
    pp.requests = {sample_request()};
    pp.req_digest = PrePrepare::batch_digest(request_digests(pp.requests));
    pp.primary = 3 % 4;
    pp.sig.v.fill(0x11);
    const auto m = decode_message(encode_message(Message{pp}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<PrePrepare>(*m), pp);
}

TEST(Messages, PrepareCommitCheckpointRoundTrip) {
    Prepare p;
    p.view = 1;
    p.seq = 2;
    p.req_digest.fill(0x22);
    p.replica = 3;
    p.sig.v.fill(0x33);
    EXPECT_EQ(std::get<Prepare>(*decode_message(encode_message(Message{p}))), p);

    Commit c;
    c.view = 1;
    c.seq = 2;
    c.req_digest.fill(0x44);
    c.replica = 0;
    c.sig.v.fill(0x55);
    EXPECT_EQ(std::get<Commit>(*decode_message(encode_message(Message{c}))), c);

    Checkpoint ck;
    ck.seq = 10;
    ck.state.fill(0x66);
    ck.replica = 1;
    ck.sig.v.fill(0x77);
    EXPECT_EQ(std::get<Checkpoint>(*decode_message(encode_message(Message{ck}))), ck);
}

TEST(Messages, ViewChangeRoundTrip) {
    ViewChange vc;
    vc.new_view = 2;
    vc.last_stable = 10;
    CheckpointProof proof;
    proof.seq = 10;
    proof.state.fill(0x10);
    for (NodeId i = 0; i < 3; ++i) {
        Checkpoint ck;
        ck.seq = 10;
        ck.state = proof.state;
        ck.replica = i;
        ck.sig.v.fill(static_cast<std::uint8_t>(i));
        proof.messages.push_back(ck);
    }
    vc.stable_proof = proof;

    PreparedProof prepared;
    prepared.preprepare.view = 1;
    prepared.preprepare.seq = 11;
    prepared.preprepare.requests = {sample_request()};
    prepared.preprepare.req_digest =
        PrePrepare::batch_digest(request_digests(prepared.preprepare.requests));
    prepared.preprepare.primary = 1;
    for (NodeId i = 2; i < 4; ++i) {
        Prepare p;
        p.view = 1;
        p.seq = 11;
        p.req_digest = prepared.preprepare.req_digest;
        p.replica = i;
        prepared.prepares.push_back(p);
    }
    vc.prepared.push_back(prepared);
    vc.replica = 2;
    vc.sig.v.fill(0x99);

    const auto m = decode_message(encode_message(Message{vc}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<ViewChange>(*m), vc);
}

TEST(Messages, NewViewRoundTrip) {
    NewView nv;
    nv.view = 5;
    ViewChange vc;
    vc.new_view = 5;
    vc.replica = 0;
    nv.view_changes.push_back(vc);
    PrePrepare pp;
    pp.view = 5;
    pp.seq = 1;
    pp.requests = {Request::null()};
    pp.req_digest = Request::null().digest();
    pp.primary = 1;
    nv.reproposals.push_back(pp);
    nv.primary = 1;
    nv.sig.v.fill(0x01);
    const auto m = decode_message(encode_message(Message{nv}));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<NewView>(*m), nv);
}

TEST(Messages, DecodeRejectsGarbage) {
    EXPECT_FALSE(decode_message(to_bytes("")).has_value());
    EXPECT_FALSE(decode_message(to_bytes("\x63junk")).has_value());
    EXPECT_FALSE(decode_message(Bytes{0}).has_value());
}

TEST(Messages, DecodeRejectsTruncation) {
    const Request r = sample_request();
    Bytes wire = encode_message(Message{r});
    for (std::size_t cut = 1; cut < wire.size(); cut += 13) {
        EXPECT_FALSE(decode_message(BytesView{wire.data(), wire.size() - cut}).has_value());
    }
}

TEST(Messages, DecodeRejectsTrailingBytes) {
    Bytes wire = encode_message(Message{sample_request()});
    wire.push_back(0xff);
    EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Messages, MessageNames) {
    EXPECT_STREQ(message_name(Message{Request{}}), "request");
    EXPECT_STREQ(message_name(Message{NewView{}}), "newview");
}

}  // namespace
}  // namespace zc::pbft
