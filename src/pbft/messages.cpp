#include "pbft/messages.hpp"

#include "crypto/sha256.hpp"

namespace zc::pbft {

// ---- Request ----------------------------------------------------------

Bytes request_signing_bytes(BytesView payload, NodeId origin, std::uint64_t origin_seq) {
    codec::Writer w(payload.size() + 32);
    w.str(Request::kSigLabel);
    w.bytes(payload);
    w.u32(origin);
    w.u64(origin_seq);
    return w.take();
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

// ---- Transport framing ------------------------------------------------

Bytes encode_message(const Message& m) {
    const auto* pp = std::get_if<PrePrepare>(&m);
    const bool batched = pp != nullptr && pp->format() == PrePrepare::kBatched;
    return codec::encode_tagged(m, batched ? kBatchedPrePrepareTag : codec::tag_of(m), 128);
}

std::optional<Message> decode_message(BytesView data) noexcept {
    if (!data.empty() && data[0] == kBatchedPrePrepareTag) {
        return codec::decode_as<Message, PrePrepare>(data.subspan(1), PrePrepare::kBatched);
    }
    return codec::decode_tagged<Message>(data);
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
