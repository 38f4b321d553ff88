// Wire format for layer-to-layer traffic (Alg. 1 BROADCAST and its
// forward-to-primary relay).
#pragma once

#include <optional>

#include "pbft/messages.hpp"

namespace zc::zugchain {

/// A request broadcast by a node whose soft timeout expired, or the relay
/// of such a broadcast to the primary.
struct PeerRequest {
    pbft::Request request;
    bool forwarded = false;  ///< true when relayed; relays are not re-relayed

    template <class F>
    void fields(F& f) {
        f(request, forwarded);
    }
    ZC_CODEC_FIELDS(PeerRequest)
    friend bool operator==(const PeerRequest&, const PeerRequest&) = default;
};

Bytes encode_peer_request(const PeerRequest& m);
std::optional<PeerRequest> decode_peer_request(BytesView data) noexcept;

}  // namespace zc::zugchain
