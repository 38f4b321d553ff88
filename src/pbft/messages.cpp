#include "pbft/messages.hpp"

#include <type_traits>

#include "crypto/sha256.hpp"

namespace zc::pbft {

namespace {

constexpr std::size_t kMaxProofMessages = 256;
constexpr std::size_t kMaxPrepared = 4096;
constexpr std::size_t kMaxBatchRequests = 1024;

/// Transport tag for a multi-request preprepare; tag 2 keeps the legacy
/// single-request layout so batch-of-one traffic is byte-identical to the
/// pre-batching wire format.
constexpr std::uint8_t kBatchedPrePrepareTag = 8;

void encode_sig(codec::Writer& w, const crypto::Signature& sig) { w.raw(sig.v); }

crypto::Signature decode_sig(codec::Reader& r) {
    crypto::Signature sig;
    sig.v = r.raw_array<64>();
    return sig;
}

crypto::Digest decode_digest(codec::Reader& r) { return r.raw_array<32>(); }

}  // namespace

// ---- Request ----------------------------------------------------------

Bytes request_signing_bytes(BytesView payload, NodeId origin, std::uint64_t origin_seq) {
    codec::Writer w(payload.size() + 32);
    w.str("req");
    w.bytes(payload);
    w.u32(origin);
    w.u64(origin_seq);
    return w.take();
}

Bytes Request::signing_bytes() const {
    return request_signing_bytes(payload, origin, origin_seq);
}

void Request::encode(codec::Writer& w) const {
    w.bytes(payload);
    w.u32(origin);
    w.u64(origin_seq);
    encode_sig(w, sig);
}

Request Request::decode(codec::Reader& r) {
    Request req;
    req.payload = r.bytes();
    req.origin = r.u32();
    req.origin_seq = r.u64();
    req.sig = decode_sig(r);
    return req;
}

crypto::Digest Request::digest() const { return crypto::sha256(signing_bytes()); }

crypto::Digest Request::payload_digest() const { return crypto::sha256(payload); }

// ---- PrePrepare -------------------------------------------------------

std::vector<crypto::Digest> request_digests(const std::vector<Request>& requests) {
    std::vector<crypto::Digest> out;
    out.reserve(requests.size());
    for (const Request& req : requests) out.push_back(req.digest());
    return out;
}

crypto::Digest PrePrepare::batch_digest(const std::vector<crypto::Digest>& digests) {
    if (digests.size() == 1) return digests.front();
    codec::Writer w(8 + 32 * digests.size());
    w.str("ppb");
    w.varint(digests.size());
    for (const crypto::Digest& d : digests) w.raw(d);
    return crypto::sha256(w.take());
}

std::size_t PrePrepare::requests_bytes() const noexcept {
    std::size_t total = 0;
    for (const Request& req : requests) total += req.size_bytes();
    return total;
}

Bytes PrePrepare::signing_bytes() const {
    codec::Writer w(96);
    w.str("pp");
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.u32(primary);
    return w.take();
}

void PrePrepare::encode(codec::Writer& w) const {
    if (requests.size() == 1) {
        w.u8(1);
        encode_legacy(w);
    } else {
        w.u8(2);
        encode_batched(w);
    }
}

PrePrepare PrePrepare::decode(codec::Reader& r) {
    switch (r.u8()) {
        case 1: return decode_legacy(r);
        case 2: return decode_batched(r);
        default: throw codec::DecodeError("unknown preprepare format");
    }
}

void PrePrepare::encode_legacy(codec::Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    requests.front().encode(w);
    w.u32(primary);
    encode_sig(w, sig);
}

PrePrepare PrePrepare::decode_legacy(codec::Reader& r) {
    PrePrepare pp;
    pp.view = r.u64();
    pp.seq = r.u64();
    pp.req_digest = decode_digest(r);
    pp.requests.push_back(Request::decode(r));
    pp.primary = r.u32();
    pp.sig = decode_sig(r);
    return pp;
}

void PrePrepare::encode_batched(codec::Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.varint(requests.size());
    for (const Request& req : requests) req.encode(w);
    w.u32(primary);
    encode_sig(w, sig);
}

PrePrepare PrePrepare::decode_batched(codec::Reader& r) {
    PrePrepare pp;
    pp.view = r.u64();
    pp.seq = r.u64();
    pp.req_digest = decode_digest(r);
    const std::uint64_t count = r.varint();
    if (count == 0 || count > kMaxBatchRequests) throw codec::DecodeError("bad preprepare batch");
    pp.requests.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) pp.requests.push_back(Request::decode(r));
    pp.primary = r.u32();
    pp.sig = decode_sig(r);
    return pp;
}

// ---- Prepare / Commit -------------------------------------------------

Bytes Prepare::signing_bytes() const {
    codec::Writer w(96);
    w.str("p");
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.u32(replica);
    return w.take();
}

void Prepare::encode(codec::Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.u32(replica);
    encode_sig(w, sig);
}

Prepare Prepare::decode(codec::Reader& r) {
    Prepare p;
    p.view = r.u64();
    p.seq = r.u64();
    p.req_digest = decode_digest(r);
    p.replica = r.u32();
    p.sig = decode_sig(r);
    return p;
}

Bytes Commit::signing_bytes() const {
    codec::Writer w(96);
    w.str("c");
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.u32(replica);
    return w.take();
}

void Commit::encode(codec::Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.raw(req_digest);
    w.u32(replica);
    encode_sig(w, sig);
}

Commit Commit::decode(codec::Reader& r) {
    Commit c;
    c.view = r.u64();
    c.seq = r.u64();
    c.req_digest = decode_digest(r);
    c.replica = r.u32();
    c.sig = decode_sig(r);
    return c;
}

// ---- Checkpoint -------------------------------------------------------

Bytes Checkpoint::signing_bytes() const {
    codec::Writer w(64);
    w.str("ckpt");
    w.u64(seq);
    w.raw(state);
    w.u32(replica);
    return w.take();
}

void Checkpoint::encode(codec::Writer& w) const {
    w.u64(seq);
    w.raw(state);
    w.u32(replica);
    encode_sig(w, sig);
}

Checkpoint Checkpoint::decode(codec::Reader& r) {
    Checkpoint c;
    c.seq = r.u64();
    c.state = decode_digest(r);
    c.replica = r.u32();
    c.sig = decode_sig(r);
    return c;
}

void CheckpointProof::encode(codec::Writer& w) const {
    w.u64(seq);
    w.raw(state);
    w.varint(messages.size());
    for (const Checkpoint& c : messages) c.encode(w);
}

CheckpointProof CheckpointProof::decode(codec::Reader& r) {
    CheckpointProof proof;
    proof.seq = r.u64();
    proof.state = decode_digest(r);
    const std::uint64_t count = r.varint();
    if (count > kMaxProofMessages) throw codec::DecodeError("oversized checkpoint proof");
    proof.messages.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) proof.messages.push_back(Checkpoint::decode(r));
    return proof;
}

// ---- View change ------------------------------------------------------

void PreparedProof::encode(codec::Writer& w) const {
    preprepare.encode(w);
    w.varint(prepares.size());
    for (const Prepare& p : prepares) p.encode(w);
}

PreparedProof PreparedProof::decode(codec::Reader& r) {
    PreparedProof proof;
    proof.preprepare = PrePrepare::decode(r);
    const std::uint64_t count = r.varint();
    if (count > kMaxProofMessages) throw codec::DecodeError("oversized prepared proof");
    proof.prepares.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) proof.prepares.push_back(Prepare::decode(r));
    return proof;
}

Bytes ViewChange::signing_bytes() const {
    codec::Writer w(256);
    w.str("vc");
    w.u64(new_view);
    w.u64(last_stable);
    w.u8(stable_proof.has_value() ? 1 : 0);
    if (stable_proof) stable_proof->encode(w);
    w.varint(prepared.size());
    for (const PreparedProof& p : prepared) p.encode(w);
    w.u32(replica);
    return w.take();
}

void ViewChange::encode(codec::Writer& w) const {
    w.u64(new_view);
    w.u64(last_stable);
    w.u8(stable_proof.has_value() ? 1 : 0);
    if (stable_proof) stable_proof->encode(w);
    w.varint(prepared.size());
    for (const PreparedProof& p : prepared) p.encode(w);
    w.u32(replica);
    encode_sig(w, sig);
}

ViewChange ViewChange::decode(codec::Reader& r) {
    ViewChange vc;
    vc.new_view = r.u64();
    vc.last_stable = r.u64();
    if (r.u8() != 0) vc.stable_proof = CheckpointProof::decode(r);
    const std::uint64_t count = r.varint();
    if (count > kMaxPrepared) throw codec::DecodeError("oversized view change");
    vc.prepared.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) vc.prepared.push_back(PreparedProof::decode(r));
    vc.replica = r.u32();
    vc.sig = decode_sig(r);
    return vc;
}

Bytes NewView::signing_bytes() const {
    codec::Writer w(512);
    w.str("nv");
    w.u64(view);
    w.varint(view_changes.size());
    for (const ViewChange& vc : view_changes) vc.encode(w);
    w.varint(reproposals.size());
    for (const PrePrepare& pp : reproposals) pp.encode(w);
    w.u32(primary);
    return w.take();
}

void NewView::encode(codec::Writer& w) const {
    w.u64(view);
    w.varint(view_changes.size());
    for (const ViewChange& vc : view_changes) vc.encode(w);
    w.varint(reproposals.size());
    for (const PrePrepare& pp : reproposals) pp.encode(w);
    w.u32(primary);
    encode_sig(w, sig);
}

NewView NewView::decode(codec::Reader& r) {
    NewView nv;
    nv.view = r.u64();
    const std::uint64_t vcs = r.varint();
    if (vcs > kMaxProofMessages) throw codec::DecodeError("oversized new view");
    nv.view_changes.reserve(vcs);
    for (std::uint64_t i = 0; i < vcs; ++i) nv.view_changes.push_back(ViewChange::decode(r));
    const std::uint64_t pps = r.varint();
    if (pps > kMaxPrepared) throw codec::DecodeError("oversized new view reproposals");
    nv.reproposals.reserve(pps);
    for (std::uint64_t i = 0; i < pps; ++i) nv.reproposals.push_back(PrePrepare::decode(r));
    nv.primary = r.u32();
    nv.sig = decode_sig(r);
    return nv;
}

// ---- Transport framing ------------------------------------------------

namespace {

template <typename T>
constexpr std::uint8_t tag_of();
template <>
constexpr std::uint8_t tag_of<Request>() { return 1; }
template <>
constexpr std::uint8_t tag_of<PrePrepare>() { return 2; }
template <>
constexpr std::uint8_t tag_of<Prepare>() { return 3; }
template <>
constexpr std::uint8_t tag_of<Commit>() { return 4; }
template <>
constexpr std::uint8_t tag_of<Checkpoint>() { return 5; }
template <>
constexpr std::uint8_t tag_of<ViewChange>() { return 6; }
template <>
constexpr std::uint8_t tag_of<NewView>() { return 7; }

}  // namespace

Bytes encode_message(const Message& m) {
    codec::Writer w(128);
    std::visit(
        [&w](const auto& msg) {
            using T = std::decay_t<decltype(msg)>;
            if constexpr (std::is_same_v<T, PrePrepare>) {
                if (msg.requests.size() == 1) {
                    w.u8(tag_of<PrePrepare>());
                    msg.encode_legacy(w);
                } else {
                    w.u8(kBatchedPrePrepareTag);
                    msg.encode_batched(w);
                }
            } else {
                w.u8(tag_of<T>());
                msg.encode(w);
            }
        },
        m);
    return w.take();
}

std::optional<Message> decode_message(BytesView data) noexcept {
    try {
        codec::Reader r(data);
        const std::uint8_t tag = r.u8();
        Message m;
        switch (tag) {
            case 1: m = Request::decode(r); break;
            case 2: m = PrePrepare::decode_legacy(r); break;
            case 3: m = Prepare::decode(r); break;
            case 4: m = Commit::decode(r); break;
            case 5: m = Checkpoint::decode(r); break;
            case 6: m = ViewChange::decode(r); break;
            case 7: m = NewView::decode(r); break;
            case kBatchedPrePrepareTag: m = PrePrepare::decode_batched(r); break;
            default: return std::nullopt;
        }
        r.expect_done();
        return m;
    } catch (const codec::DecodeError&) {
        return std::nullopt;
    }
}

const char* message_name(const Message& m) noexcept {
    struct Visitor {
        const char* operator()(const Request&) { return "request"; }
        const char* operator()(const PrePrepare&) { return "preprepare"; }
        const char* operator()(const Prepare&) { return "prepare"; }
        const char* operator()(const Commit&) { return "commit"; }
        const char* operator()(const Checkpoint&) { return "checkpoint"; }
        const char* operator()(const ViewChange&) { return "viewchange"; }
        const char* operator()(const NewView&) { return "newview"; }
    };
    return std::visit(Visitor{}, m);
}

}  // namespace zc::pbft
