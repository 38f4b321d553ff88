// PBFT protocol messages (Castro & Liskov, OSDI'99), adapted as in the
// paper: requests originate from ZugChain nodes reading the bus (or from
// baseline clients), carry the origin node id, and are signed with
// asymmetric cryptography; checkpoints are per-block and their 2f+1
// signature sets double as export proofs.
//
// Every message declares its fields once (`fields()`, see codec.hpp);
// encode, decode and, for signed messages, `signing_bytes()` — a label,
// then the fields without the signature — derive from that list, so
// signing and verification cover identical bytes.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "codec/codec.hpp"
#include "common/ids.hpp"
#include "crypto/context.hpp"
#include "crypto/digest.hpp"

namespace zc::pbft {

/// Decode bounds on hostile counts, each named at its field below.
inline constexpr std::size_t kMaxProofMessages = 256;  ///< checkpoints, prepares, view changes
inline constexpr std::size_t kMaxPrepared = 4096;      ///< prepared proofs, reproposals
inline constexpr std::size_t kMaxBatchRequests = 1024;

/// A client/bus request submitted for total ordering.
///
/// Identity (for PBFT-level dedup) is the full digest over
/// (payload, origin, origin_seq) — NOT the payload alone. This mirrors
/// standard PBFT, where "duplication is avoided only on complete requests
/// including client ids and sequence numbers, not on payloads"; payload-
/// level dedup is ZugChain's communication layer's job.
struct Request {
    Bytes payload;
    NodeId origin = kNoNode;        ///< node that received the data from the bus
    std::uint64_t origin_seq = 0;   ///< per-origin uniqueifier (bus cycle / client ctr)
    crypto::Signature sig{};

    /// The null request used to fill sequence gaps during view changes.
    static Request null() { return Request{}; }
    bool is_null() const noexcept { return origin == kNoNode; }

    template <class F>
    void fields(F& f) {
        f(payload, origin, origin_seq);
    }
    ZC_CODEC_SIGNED(Request, "req")

    /// Full-request digest (payload + origin + origin_seq).
    crypto::Digest digest() const;

    /// Payload-only digest, used by the ZugChain layer's dedup.
    crypto::Digest payload_digest() const;

    std::size_t size_bytes() const noexcept { return payload.size() + 80; }

    friend bool operator==(const Request&, const Request&) = default;
};

/// The bytes an origin signs for a request: `Request::signing_bytes()`,
/// and the auditor's check of a logged request's origin signature.
Bytes request_signing_bytes(BytesView payload, NodeId origin, std::uint64_t origin_seq);

/// `Request::digest()` of each request, in order.
std::vector<crypto::Digest> request_digests(const std::vector<Request>& requests);

struct PrePrepare {
    View view = 0;
    SeqNo seq = 0;
    crypto::Digest req_digest{};     ///< batch digest binding `requests`
    std::vector<Request> requests;   ///< ordered batch, piggybacked in full
    NodeId primary = kNoNode;
    crypto::Signature sig{};

    /// Digest the primary commits to for an ordered batch, from the
    /// batch's request digests in order (`request_digests`). A batch of
    /// one is the request's own digest — identical to the pre-batching
    /// format, so single-request instances stay wire- and proof-compatible.
    /// Larger batches hash the concatenated inner digests under a domain
    /// prefix. Taking digests rather than requests lets a caller that
    /// already holds them skip re-hashing every payload.
    static crypto::Digest batch_digest(const std::vector<crypto::Digest>& digests);

    std::size_t requests_bytes() const noexcept;

    /// Wire layouts: a batch of one keeps the pre-batching layout, a bare
    /// Request (kSingle); any other size is a counted list (kBatched).
    /// Containers (PreparedProof, NewView reproposals) lead with this byte;
    /// the transport tag stands for it instead (2 single / 8 batched), so a
    /// single-request preprepare on the wire is byte-identical to the
    /// pre-batching format.
    static constexpr std::uint8_t kSingle = 1;
    static constexpr std::uint8_t kBatched = 2;
    std::uint8_t format() const noexcept { return requests.size() == 1 ? kSingle : kBatched; }

    /// The one field codec with two layouts, chosen by `format`.
    struct Requests {
        std::vector<Request>& requests;
        const std::uint8_t& format;

        template <class F>
        void fields(F& f) {
            if (format == kSingle) {
                if (requests.empty()) requests.emplace_back();  // decoding
                f(requests.front());
            } else if (format == kBatched) {
                f(codec::list<kMaxBatchRequests, 1>(requests));
            } else {
                throw codec::DecodeError("unknown preprepare format");
            }
        }
    };

    /// `requests` is outside the signed bytes: `req_digest` binds it.
    template <class F>
    void fields(F& f) {
        std::uint8_t layout = format();
        f(codec::format(layout), view, seq, req_digest,
          codec::unsigned_field(Requests{requests, layout}), primary);
    }
    ZC_CODEC_SIGNED(PrePrepare, "pp")
    friend bool operator==(const PrePrepare&, const PrePrepare&) = default;
};

struct Prepare {
    View view = 0;
    SeqNo seq = 0;
    crypto::Digest req_digest{};
    NodeId replica = kNoNode;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(view, seq, req_digest, replica);
    }
    ZC_CODEC_SIGNED(Prepare, "p")
    friend bool operator==(const Prepare&, const Prepare&) = default;
};

struct Commit {
    View view = 0;
    SeqNo seq = 0;
    crypto::Digest req_digest{};
    NodeId replica = kNoNode;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(view, seq, req_digest, replica);
    }
    ZC_CODEC_SIGNED(Commit, "c")
    friend bool operator==(const Commit&, const Commit&) = default;
};

/// Signed application snapshot after executing `seq` (paper: one per
/// block; the digest is the chain head hash, so a stable checkpoint's
/// 2f+1 signatures certify the block for export).
struct Checkpoint {
    SeqNo seq = 0;
    crypto::Digest state{};
    NodeId replica = kNoNode;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(seq, state, replica);
    }
    ZC_CODEC_SIGNED(Checkpoint, "ckpt")
    friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// 2f+1 matching checkpoint messages: proof of a stable checkpoint.
struct CheckpointProof {
    SeqNo seq = 0;
    crypto::Digest state{};
    std::vector<Checkpoint> messages;

    template <class F>
    void fields(F& f) {
        f(seq, state, codec::list<kMaxProofMessages>(messages));
    }
    ZC_CODEC_FIELDS(CheckpointProof)
    friend bool operator==(const CheckpointProof&, const CheckpointProof&) = default;
};

/// Evidence that a request prepared at (view, seq): the preprepare plus 2f
/// matching prepares from distinct backups.
struct PreparedProof {
    PrePrepare preprepare;
    std::vector<Prepare> prepares;

    template <class F>
    void fields(F& f) {
        f(preprepare, codec::list<kMaxProofMessages>(prepares));
    }
    ZC_CODEC_FIELDS(PreparedProof)
    friend bool operator==(const PreparedProof&, const PreparedProof&) = default;
};

struct ViewChange {
    View new_view = 0;
    SeqNo last_stable = 0;
    std::optional<CheckpointProof> stable_proof;  ///< absent when last_stable == 0
    std::vector<PreparedProof> prepared;
    NodeId replica = kNoNode;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(new_view, last_stable, stable_proof, codec::list<kMaxPrepared>(prepared), replica);
    }
    ZC_CODEC_SIGNED(ViewChange, "vc")
    friend bool operator==(const ViewChange&, const ViewChange&) = default;
};

struct NewView {
    View view = 0;
    std::vector<ViewChange> view_changes;   ///< the 2f+1 justifying VCs
    std::vector<PrePrepare> reproposals;    ///< O: re-proposed + null preprepares
    NodeId primary = kNoNode;
    crypto::Signature sig{};

    template <class F>
    void fields(F& f) {
        f(view, codec::list<kMaxProofMessages>(view_changes), codec::list<kMaxPrepared>(reproposals),
          primary);
    }
    ZC_CODEC_SIGNED(NewView, "nv")
    friend bool operator==(const NewView&, const NewView&) = default;
};

/// Transport-level union of all PBFT messages. The transport tag is 1 +
/// the index below; a batched PrePrepare takes kBatchedPrePrepareTag.
using Message =
    std::variant<Request, PrePrepare, Prepare, Commit, Checkpoint, ViewChange, NewView>;

inline constexpr std::uint8_t kBatchedPrePrepareTag = 8;

/// Serializes with a leading type tag.
Bytes encode_message(const Message& m);

/// Returns nullopt on any malformed input (treated as a corrupt/Byzantine
/// message and dropped by the transport).
std::optional<Message> decode_message(BytesView data) noexcept;

/// Short human-readable name for logs.
const char* message_name(const Message& m) noexcept;

}  // namespace zc::pbft
