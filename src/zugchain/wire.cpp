#include "zugchain/wire.hpp"

namespace zc::zugchain {

Bytes encode_peer_request(const PeerRequest& m) { return codec::encode_to_bytes(m); }

std::optional<PeerRequest> decode_peer_request(BytesView data) noexcept {
    return codec::try_decode<PeerRequest>(data);
}

}  // namespace zc::zugchain
