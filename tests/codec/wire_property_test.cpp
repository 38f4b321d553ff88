// Properties every wire type must keep, checked over the golden samples
// of wire_samples.hpp through the public decoders: round trip, rejection
// of every truncation and of trailing bytes, the count bound declared at
// each list field, and signed bytes that cover every field but the
// signature (and PrePrepare's requests, which req_digest binds).
#include <gtest/gtest.h>

#include <concepts>
#include <functional>

#include "codec/wire_samples.hpp"

namespace zc {
namespace {

namespace ws = wire_samples;

/// A framed encoding and its decoder's verdict: nullopt when rejected,
/// else whether the decoded value equals the sample, or (`reencode`) the
/// decoded value encoded again in the same framing.
struct Case {
    std::string name;
    Bytes wire;
    std::function<std::optional<bool>(BytesView)> decode;
    std::function<std::optional<Bytes>(BytesView)> reencode;
};

template <class T>
bool same(const T& a, const T& b) {
    if constexpr (std::equality_comparable<T>) {
        return a == b;
    } else {
        return codec::encode_to_bytes(a) == codec::encode_to_bytes(b);
    }
}

template <class T, class Encode, class Decode>
Case make_case(std::string name, T sample, Encode encode, Decode decode) {
    Bytes wire = encode(sample);
    return {std::move(name), std::move(wire),
            [sample = std::move(sample), decode](BytesView b) -> std::optional<bool> {
                const auto m = decode(b);
                if (!m) return std::nullopt;
                return same<T>(*m, sample);
            },
            [encode, decode](BytesView b) -> std::optional<Bytes> {
                const auto m = decode(b);
                if (!m) return std::nullopt;
                return encode(*m);
            }};
}

Case pbft_case(std::string name, pbft::Message m) {
    return make_case(std::move(name), std::move(m), pbft::encode_message, pbft::decode_message);
}

Case export_case(std::string name, exporter::ExportMessage m) {
    return make_case(std::move(name), std::move(m), exporter::encode_export_message,
                     exporter::decode_export_message);
}

template <class T>
Case container_case(std::string name, T m) {
    return make_case(std::move(name), std::move(m),
                     [](const T& v) { return codec::encode_to_bytes(v); },
                     [](BytesView b) { return codec::try_decode<T>(b); });
}

std::vector<Case> cases() {
    return {
        pbft_case("Request", ws::request()),
        pbft_case("PrePrepare.legacy", ws::preprepare_legacy()),
        pbft_case("PrePrepare.batched", ws::preprepare_batched()),
        pbft_case("Prepare", ws::prepare()),
        pbft_case("Commit", ws::commit()),
        pbft_case("Checkpoint", ws::checkpoint()),
        pbft_case("ViewChange", ws::view_change()),
        pbft_case("NewView", ws::new_view()),
        export_case("ReadRequest", ws::read_request()),
        export_case("ReadReply", ws::read_reply()),
        export_case("BlockFetch", ws::block_fetch()),
        export_case("BlockFetchReply", ws::block_fetch_reply()),
        export_case("DcSync", ws::dc_sync()),
        export_case("DcFetch", ws::dc_fetch()),
        export_case("DeleteCmd", ws::delete_cmd()),
        export_case("DeleteAck", ws::delete_ack()),
        container_case("PrePrepare.legacy.container", ws::preprepare_legacy()),
        container_case("PrePrepare.batched.container", ws::preprepare_batched()),
        container_case("CheckpointProof", ws::checkpoint_proof()),
        container_case("PreparedProof", ws::prepared_proof()),
        container_case("LoggedRequest", ws::logged_request()),
        container_case("BlockHeader", ws::block_header()),
        container_case("Block", ws::block()),
        container_case("PruneAnchor", ws::prune_anchor()),
        container_case("TelegramContent", ws::telegram_content()),
        container_case("LogRecord", ws::log_record()),
        make_case("PeerRequest", ws::peer_request(), zugchain::encode_peer_request,
                  zugchain::decode_peer_request),
        make_case("DeleteEvidence", ws::delete_evidence(), exporter::encode_delete_evidence,
                  exporter::decode_delete_evidence),
    };
}

TEST(WireProperty, DecodeInvertsEncode) {
    for (const Case& c : cases()) EXPECT_EQ(c.decode(c.wire), std::optional<bool>(true)) << c.name;
}

TEST(WireProperty, EveryTruncationAndATrailingByteIsRejected) {
    for (const Case& c : cases()) {
        for (std::size_t n = 0; n < c.wire.size(); ++n) {
            EXPECT_EQ(c.decode(BytesView(c.wire).first(n)), std::nullopt) << c.name << " prefix " << n;
        }
        Bytes longer = c.wire;
        longer.push_back(0);
        EXPECT_EQ(c.decode(longer), std::nullopt) << c.name << " trailing byte";
    }
}

TEST(WireProperty, EveryDecodableByteMutationReencodesToItself) {
    // A decoder that accepts two encodings of one value lets a relay
    // rewrite bytes under a valid signature (verification re-encodes the
    // decoded value). Every single-byte substitution that still decodes
    // must therefore be the canonical encoding of what it decodes to.
    for (const Case& c : cases()) {
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < c.wire.size(); ++i) {
            const std::uint8_t was = c.wire[i];
            for (const std::uint8_t v : {std::uint8_t{0x00}, std::uint8_t{0x01}, std::uint8_t{0x02},
                                         std::uint8_t{0x7f}, std::uint8_t{0x80}, std::uint8_t{0xff},
                                         static_cast<std::uint8_t>(was ^ 1)}) {
                Bytes mutated = c.wire;
                mutated[i] = v;
                const auto again = c.reencode(mutated);
                if (!again || *again == mutated) continue;
                if (++mismatches == 1) {
                    ADD_FAILURE() << c.name << ": byte " << i << " set to " << int{v}
                                  << " decodes but re-encodes to other bytes";
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << c.name;
    }
}

// ---- List bounds --------------------------------------------------------

/// The bytes in front of one list's count, and the decoder reading them.
struct Bound {
    const char* name;
    Bytes prefix;
    std::uint64_t min;
    std::uint64_t max;
    std::function<void(codec::Reader&)> decode;
};

/// What decoding `prefix` + varint(count) and nothing else throws: a
/// count the decoder accepts runs out of buffer reading its first element.
std::string error_for(const Bound& b, std::uint64_t count) {
    codec::Writer w;
    w.raw(b.prefix);
    w.varint(count);
    codec::Reader r(w.buffer());
    try {
        b.decode(r);
    } catch (const codec::DecodeError& e) {
        return e.what();
    }
    return "accepted";
}

Bytes bytes_of(std::initializer_list<std::function<void(codec::Writer&)>> parts) {
    codec::Writer w;
    for (const auto& part : parts) part(w);
    return w.take();
}

template <class T>
std::function<void(codec::Reader&)> decoder() {
    return [](codec::Reader& r) { (void)T::decode(r); };
}

TEST(WireProperty, EveryListBoundRejectsOneMore) {
    const auto u64 = [](codec::Writer& w) { w.u64(7); };
    const auto u32 = [](codec::Writer& w) { w.u32(7); };
    const auto digest = [](codec::Writer& w) { w.raw(ws::digest_of(1)); };
    const auto empty_proof = [](codec::Writer& w) { pbft::CheckpointProof{}.encode(w); };
    const std::vector<Bound> bounds = {
        {"CheckpointProof.messages", bytes_of({u64, digest}), 0, 256,
         decoder<pbft::CheckpointProof>()},
        {"PreparedProof.prepares", codec::encode_to_bytes(ws::preprepare_legacy()), 0, 256,
         decoder<pbft::PreparedProof>()},
        {"ViewChange.prepared", bytes_of({u64, u64, [](codec::Writer& w) { w.u8(0); }}), 0, 4096,
         decoder<pbft::ViewChange>()},
        {"NewView.view_changes", bytes_of({u64}), 0, 256, decoder<pbft::NewView>()},
        {"NewView.reproposals", bytes_of({u64, [](codec::Writer& w) { w.varint(0); }}), 0, 4096,
         decoder<pbft::NewView>()},
        {"PrePrepare.requests", bytes_of({[](codec::Writer& w) { w.u8(2); }, u64, u64, digest}), 1,
         1024, decoder<pbft::PrePrepare>()},
        {"ReadReply.blocks", bytes_of({u32, empty_proof}), 0, 1u << 16,
         decoder<exporter::ReadReply>()},
        {"BlockFetchReply.blocks", bytes_of({u32}), 0, 1u << 16,
         decoder<exporter::BlockFetchReply>()},
        {"DcSync.blocks", bytes_of({u32, empty_proof}), 0, 1u << 16, decoder<exporter::DcSync>()},
        {"Block.requests", codec::encode_to_bytes(ws::block_header()), 0, 1u << 20,
         decoder<chain::Block>()},
        {"TelegramContent.signals", bytes_of({u64, u64}), 0, 4096,
         decoder<train::TelegramContent>()},
        {"LogRecord.signals", bytes_of({u64, u64}), 0, 4096, decoder<train::LogRecord>()},
    };
    const std::string short_read = "unexpected end of buffer";
    for (const Bound& b : bounds) {
        EXPECT_EQ(error_for(b, b.max), short_read) << b.name << " at its bound";
        EXPECT_NE(error_for(b, b.max + 1), short_read) << b.name << " above its bound";
        if (b.min > 0) {
            EXPECT_EQ(error_for(b, b.min), short_read) << b.name << " at its minimum";
            EXPECT_NE(error_for(b, b.min - 1), short_read) << b.name << " below its minimum";
        }
    }
}

TEST(WireProperty, DeleteEvidenceHoldsAtMost1024Commands) {
    std::vector<exporter::DeleteCmd> deletes(1024, ws::delete_cmd());
    EXPECT_TRUE(exporter::decode_delete_evidence(exporter::encode_delete_evidence(deletes)));
    deletes.push_back(ws::delete_cmd());
    EXPECT_FALSE(exporter::decode_delete_evidence(exporter::encode_delete_evidence(deletes)));
}

// ---- Signed bytes ---------------------------------------------------------

template <class T>
using Mutators = std::vector<std::pair<const char*, std::function<void(T&)>>>;

/// Each mutator changes one field: the signed bytes and the encoding must
/// both change. Changing the signature changes neither signed bytes.
template <class T>
void expect_signs_every_field(const char* type, const T& sample, const Mutators<T>& mutators) {
    const Bytes signed_bytes = sample.signing_bytes();
    const Bytes wire = codec::encode_to_bytes(sample);
    for (const auto& [field, mutate] : mutators) {
        T m = sample;
        mutate(m);
        EXPECT_NE(m.signing_bytes(), signed_bytes) << type << "." << field << " is not signed";
        EXPECT_NE(codec::encode_to_bytes(m), wire) << type << "." << field << " is not encoded";
    }
    T resigned = sample;
    resigned.sig.v[5] ^= 0x40;
    EXPECT_EQ(resigned.signing_bytes(), signed_bytes) << type << ".sig is signed";
    EXPECT_NE(codec::encode_to_bytes(resigned), wire) << type << ".sig is not encoded";
}

void flip(crypto::Digest& d) { d[3] ^= 1; }

TEST(WireProperty, SignedBytesCoverEveryFieldButTheSignature) {
    expect_signs_every_field<pbft::Request>("Request", ws::request(),
        {{"payload", [](auto& m) { m.payload.push_back(9); }},
         {"origin", [](auto& m) { ++m.origin; }},
         {"origin_seq", [](auto& m) { ++m.origin_seq; }}});
    for (const pbft::PrePrepare& pp : {ws::preprepare_legacy(), ws::preprepare_batched()}) {
        expect_signs_every_field<pbft::PrePrepare>("PrePrepare", pp,
            {{"view", [](auto& m) { ++m.view; }},
             {"seq", [](auto& m) { ++m.seq; }},
             {"req_digest", [](auto& m) { flip(m.req_digest); }},
             {"primary", [](auto& m) { ++m.primary; }}});
    }
    expect_signs_every_field<pbft::Prepare>("Prepare", ws::prepare(),
        {{"view", [](auto& m) { ++m.view; }},
         {"seq", [](auto& m) { ++m.seq; }},
         {"req_digest", [](auto& m) { flip(m.req_digest); }},
         {"replica", [](auto& m) { ++m.replica; }}});
    expect_signs_every_field<pbft::Commit>("Commit", ws::commit(),
        {{"view", [](auto& m) { ++m.view; }},
         {"seq", [](auto& m) { ++m.seq; }},
         {"req_digest", [](auto& m) { flip(m.req_digest); }},
         {"replica", [](auto& m) { ++m.replica; }}});
    expect_signs_every_field<pbft::Checkpoint>("Checkpoint", ws::checkpoint(),
        {{"seq", [](auto& m) { ++m.seq; }},
         {"state", [](auto& m) { flip(m.state); }},
         {"replica", [](auto& m) { ++m.replica; }}});
    expect_signs_every_field<pbft::ViewChange>("ViewChange", ws::view_change(),
        {{"new_view", [](auto& m) { ++m.new_view; }},
         {"last_stable", [](auto& m) { ++m.last_stable; }},
         {"stable_proof", [](auto& m) { m.stable_proof.reset(); }},
         {"stable_proof.messages.sig", [](auto& m) { m.stable_proof->messages[0].sig.v[0] ^= 1; }},
         {"prepared", [](auto& m) { m.prepared.clear(); }},
         {"prepared.preprepare.requests",
          [](auto& m) { m.prepared[0].preprepare.requests[0].payload.push_back(9); }},
         {"replica", [](auto& m) { ++m.replica; }}});
    expect_signs_every_field<pbft::NewView>("NewView", ws::new_view(),
        {{"view", [](auto& m) { ++m.view; }},
         {"view_changes", [](auto& m) { ++m.view_changes[0].replica; }},
         {"reproposals", [](auto& m) { ++m.reproposals[1].requests[0].origin_seq; }},
         {"primary", [](auto& m) { ++m.primary; }}});
    expect_signs_every_field<exporter::ReadRequest>("ReadRequest", ws::read_request(),
        {{"dc", [](auto& m) { ++m.dc; }},
         {"last_height", [](auto& m) { ++m.last_height; }},
         {"full_from", [](auto& m) { ++m.full_from; }}});
    expect_signs_every_field<exporter::ReadReply>("ReadReply", ws::read_reply(),
        {{"replica", [](auto& m) { ++m.replica; }},
         {"proof", [](auto& m) { ++m.proof.seq; }},
         {"blocks", [](auto& m) { m.blocks[0].requests[0].payload.push_back(9); }}});
    expect_signs_every_field<exporter::BlockFetch>("BlockFetch", ws::block_fetch(),
        {{"dc", [](auto& m) { ++m.dc; }},
         {"from", [](auto& m) { ++m.from; }},
         {"to", [](auto& m) { ++m.to; }}});
    expect_signs_every_field<exporter::BlockFetchReply>("BlockFetchReply", ws::block_fetch_reply(),
        {{"replica", [](auto& m) { ++m.replica; }},
         {"blocks", [](auto& m) { ++m.blocks[0].header.height; }}});
    expect_signs_every_field<exporter::DcSync>("DcSync", ws::dc_sync(),
        {{"from", [](auto& m) { ++m.from; }},
         {"proof", [](auto& m) { flip(m.proof.state); }},
         {"blocks", [](auto& m) { m.blocks.clear(); }}});
    expect_signs_every_field<exporter::DcFetch>("DcFetch", ws::dc_fetch(),
        {{"from_dc", [](auto& m) { ++m.from_dc; }},
         {"from", [](auto& m) { ++m.from; }},
         {"to", [](auto& m) { ++m.to; }}});
    expect_signs_every_field<exporter::DeleteCmd>("DeleteCmd", ws::delete_cmd(),
        {{"dc", [](auto& m) { ++m.dc; }},
         {"height", [](auto& m) { ++m.height; }},
         {"block_hash", [](auto& m) { flip(m.block_hash); }}});
    expect_signs_every_field<exporter::DeleteAck>("DeleteAck", ws::delete_ack(),
        {{"replica", [](auto& m) { ++m.replica; }},
         {"height", [](auto& m) { ++m.height; }},
         {"executed", [](auto& m) { m.executed = !m.executed; }}});
}

TEST(WireProperty, PrePrepareRequestsAreBoundByTheDigestNotTheSignature) {
    for (const pbft::PrePrepare& pp : {ws::preprepare_legacy(), ws::preprepare_batched()}) {
        pbft::PrePrepare m = pp;
        m.requests[0].payload.push_back(9);
        EXPECT_EQ(m.signing_bytes(), pp.signing_bytes());
        EXPECT_NE(codec::encode_to_bytes(m), codec::encode_to_bytes(pp));
    }
}

TEST(WireProperty, RequestSigningBytesMatchTheAuditorsForm) {
    const pbft::Request r = ws::request();
    EXPECT_EQ(pbft::request_signing_bytes(r.payload, r.origin, r.origin_seq), r.signing_bytes());
}

}  // namespace
}  // namespace zc
