// Compact binary wire format (protobuf-style primitives: LEB128 varints,
// fixed-width little-endian integers, length-delimited byte strings).
//
// Every protocol message implements
//     void encode(codec::Writer&) const;
//     static T decode(codec::Reader&);
// Decoding malformed input throws codec::DecodeError, which the transport
// layer treats as a Byzantine/corrupt message and drops.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "prof/prof.hpp"

namespace zc::codec {

/// Thrown when decoding runs past the buffer or violates a limit.
class DecodeError : public std::runtime_error {
public:
    explicit DecodeError(const std::string& what);

    /// Process-wide number of DecodeErrors constructed so far. A clean
    /// run's hot paths decode without throwing; tests pin that this does
    /// not move.
    static std::uint64_t constructed() noexcept;
};

/// Writes `v` as an LEB128 varint to `out` (room for 10 bytes) and
/// returns its length: the encoding Writer::varint appends.
inline std::size_t put_varint(std::uint64_t v, std::uint8_t* out) noexcept {
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/// Length of put_varint's encoding of `v` (1-10).
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
}

/// Appends primitives to a growing byte buffer.
class Writer {
public:
    Writer() = default;
    explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);

    /// LEB128 unsigned varint (1-10 bytes).
    void varint(std::uint64_t v);

    /// Length-delimited byte string (varint length + raw bytes).
    void bytes(BytesView v);
    void str(std::string_view v);

    /// Raw bytes without a length prefix (fixed-size fields: digests, keys,
    /// signatures).
    void raw(BytesView v);
    template <std::size_t N>
    void raw(const std::array<std::uint8_t, N>& v) {
        raw(BytesView{v.data(), v.size()});
    }

    const Bytes& buffer() const noexcept { return buf_; }
    Bytes take() noexcept { return std::move(buf_); }
    std::size_t size() const noexcept { return buf_.size(); }

private:
    Bytes buf_;
};

/// Reads primitives from a byte view with bounds checking.
class Reader {
public:
    explicit Reader(BytesView data) noexcept : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();

    std::uint64_t varint();

    /// Length-delimited byte string. `max_len` guards against hostile
    /// lengths claiming gigabytes.
    Bytes bytes(std::size_t max_len = kDefaultMaxLen);
    std::string str(std::size_t max_len = kDefaultMaxLen);

    /// Non-throwing bytes() for hot receive paths: nullopt exactly where
    /// bytes() would throw (the position is then unspecified). The view
    /// points into the reader's buffer; nothing is copied.
    std::optional<BytesView> try_bytes_view(std::size_t max_len = kDefaultMaxLen) noexcept;

    /// Fixed-size raw read.
    void raw(std::uint8_t* out, std::size_t n);
    template <std::size_t N>
    std::array<std::uint8_t, N> raw_array() {
        std::array<std::uint8_t, N> out;
        raw(out.data(), N);
        return out;
    }

    std::size_t remaining() const noexcept { return data_.size() - pos_; }
    bool done() const noexcept { return remaining() == 0; }

    /// Throws unless the whole buffer has been consumed (trailing garbage is
    /// treated as corruption).
    void expect_done() const;

    static constexpr std::size_t kDefaultMaxLen = 64u << 20;  // 64 MiB

private:
    void need(std::size_t n) const;
    // The one definition of each rule: null on success, else the error.
    const char* read_varint(std::uint64_t& out) noexcept;
    const char* read_view(std::size_t max_len, BytesView& out) noexcept;

    BytesView data_;
    std::size_t pos_ = 0;
};

/// Round-trip helpers for message types with encode/decode members.
/// These are the codec choke points every wire message funnels through,
/// so they carry the host-profiler attribution scopes (one branch when
/// profiling is off).
template <typename T>
Bytes encode_to_bytes(const T& msg) {
    ZC_PROF_SCOPE(kCodecEncode);
    Writer w;
    msg.encode(w);
    return w.take();
}

template <typename T>
T decode_from_bytes(BytesView data) {
    ZC_PROF_SCOPE(kCodecDecode);
    Reader r(data);
    T msg = T::decode(r);
    r.expect_done();
    return msg;
}

/// Decode variant returning nullopt instead of throwing; used on network
/// receive paths where corruption is an expected fault.
template <typename T>
std::optional<T> try_decode(BytesView data) noexcept {
    try {
        return decode_from_bytes<T>(data);
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

}  // namespace zc::codec
