// Top-level wire envelope multiplexing the three protocol channels over
// one network endpoint per node: PBFT consensus, ZugChain layer traffic,
// and the export protocol.
//
// Layout: [u8 channel][varint body length][body]. Encoding writes it into
// one buffer sized up front; decoding returns a view of the body inside
// the received buffer instead of copying it.
#pragma once

#include <optional>

#include "codec/codec.hpp"
#include "common/bytes.hpp"

namespace zc::runtime {

enum class Channel : std::uint8_t {
    kPbft = 1,
    kLayer = 2,
    kExport = 3,
};

/// A decoded envelope. `body` points into the buffer it was decoded from
/// and is valid only as long as that buffer is.
struct EnvelopeView {
    Channel channel = Channel::kPbft;
    BytesView body;
};

inline Bytes encode_envelope(Channel channel, BytesView body) {
    ZC_PROF_SCOPE(kCodecEncode);
    codec::Writer w(1 + codec::varint_size(body.size()) + body.size());
    w.u8(static_cast<std::uint8_t>(channel));
    w.bytes(body);
    return w.take();
}

/// Nullopt for an unknown channel, a malformed or oversized length, or
/// trailing bytes after the body.
inline std::optional<EnvelopeView> decode_envelope(BytesView data) noexcept {
    ZC_PROF_SCOPE(kCodecDecode);
    if (data.empty()) return std::nullopt;
    const std::uint8_t c = data[0];
    if (c < 1 || c > 3) return std::nullopt;
    codec::Reader r(data.subspan(1));
    const auto body = r.try_bytes_view();
    if (!body || !r.done()) return std::nullopt;
    return EnvelopeView{static_cast<Channel>(c), *body};
}

}  // namespace zc::runtime
