// Compact binary wire format (protobuf-style primitives: LEB128 varints,
// fixed-width little-endian integers, length-delimited byte strings) and
// the field visitors every wire message is built from.
//
// A wire type declares its fields once, in order:
//     template <class F> void fields(F& f) { f(view, seq, req_digest, replica); }
// plus ZC_CODEC_FIELDS(T), or ZC_CODEC_SIGNED(T, "label") for a type with a
// trailing `sig`. Encoder, Decoder and signing_bytes below derive
//     void encode(codec::Writer&) const;
//     static T decode(codec::Reader&);
//     Bytes signing_bytes() const;   // signed types: str(label) + fields
// from that one list; a signed type's signature follows its fields on the
// wire and is never part of them. Decoding malformed input throws
// codec::DecodeError, which the transport layer treats as a
// Byzantine/corrupt message and drops.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

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

// ---- Field declarations ---------------------------------------------------
//
// A field's C++ type picks its wire form:
//   bool, std::uint8_t, a one-byte enum    1 byte (a bool decodes non-zero as true)
//   std::uint32_t, std::uint64_t, int64_t  fixed-width little endian
//   std::array<std::uint8_t, N>            N raw bytes (digests, signatures)
//   Bytes                                  varint length + bytes
//   std::optional<T>                       u8 presence flag, then T
//   a type with fields()                   its full encoding, signature included
//   list<Max, Min>(vector)                 varint count + elements; decoding
//                                          rejects a count outside [Min, Max]
//   unsigned_field(x)                      x, but left out of signing_bytes()
//   format(selector)                       a layout byte; see Format

/// A counted list whose decode bound is declared at the field.
template <std::size_t Min, std::size_t Max, class V>
struct List {
    V& items;
};
template <std::size_t Max, std::size_t Min = 0, class V>
List<Min, Max, V> list(V& items) {
    return {items};
}

/// A field encoded and decoded as usual but not covered by the signature
/// (something else signed binds it).
template <class T>
struct Unsigned {
    T field;
};
template <class T>
Unsigned<T> unsigned_field(T&& field) {
    return {std::forward<T>(field)};
}

/// A leading byte choosing between a type's layouts, which later fields
/// read. Containers write it; a transport tag stands for it instead
/// (Framing::kTagged); signed bytes leave it out.
struct Format {
    std::uint8_t& selector;
};
inline Format format(std::uint8_t& selector) { return {selector}; }

namespace detail {
template <class T>
inline constexpr bool is_byte_array = false;
template <std::size_t N>
inline constexpr bool is_byte_array<std::array<std::uint8_t, N>> = true;
}  // namespace detail

/// A type declared with ZC_CODEC_SIGNED: a label and a trailing `sig`.
template <class T>
concept SignedWireType = requires { T::kSigLabel; };

/// Where an encoding goes: a container (every field), behind a transport
/// tag (no Format byte), or into signed bytes (no Format, no Unsigned).
enum class Framing : std::uint8_t { kContainer, kTagged, kSigned };

template <class Out>
void encode(Out& out, const auto& m, Framing framing = Framing::kContainer);

/// Appends fields to a sink with Writer's primitives (a Writer, a Sizer,
/// a streaming hasher).
template <class Out>
class Encoder {
public:
    explicit Encoder(Out& out, Framing framing = Framing::kContainer)
        : out_(out), framing_(framing) {}

    template <class... Ts>
    void operator()(const Ts&... fields) {
        (put(fields), ...);
    }

private:
    template <class T>
    void put(const T& v) {
        if constexpr (std::is_same_v<T, bool>) out_.u8(v ? 1 : 0);
        else if constexpr (std::is_enum_v<T>) put(static_cast<std::underlying_type_t<T>>(v));
        else if constexpr (std::is_same_v<T, std::uint8_t>) out_.u8(v);
        else if constexpr (std::is_same_v<T, std::uint32_t>) out_.u32(v);
        else if constexpr (std::is_same_v<T, std::uint64_t>) out_.u64(v);
        else if constexpr (std::is_same_v<T, std::int64_t>) out_.u64(static_cast<std::uint64_t>(v));
        else if constexpr (detail::is_byte_array<T>) out_.raw(v);
        else if constexpr (std::is_same_v<T, Bytes>) out_.bytes(v);
        else encode(out_, v);
    }
    template <class T>
    void put(const std::optional<T>& v) {
        out_.u8(v ? 1 : 0);
        if (v) put(*v);
    }
    template <std::size_t Min, std::size_t Max, class V>
    void put(const List<Min, Max, V>& list) {
        out_.varint(list.items.size());
        for (const auto& item : list.items) put(item);
    }
    template <class T>
    void put(const Unsigned<T>& v) {
        if (framing_ != Framing::kSigned) put(v.field);
    }
    void put(const Format& v) {
        if (framing_ == Framing::kContainer) out_.u8(v.selector);
    }

    Out& out_;
    Framing framing_;
};

/// Encodes `m`: its fields, then its signature if it is a signed type. A
/// nested message is always encoded whole, whatever the outer framing.
template <class Out>
void encode(Out& out, const auto& m, Framing framing) {
    using T = std::remove_cvref_t<decltype(m)>;
    Encoder<Out> enc(out, framing);
    // fields() is non-const so that Decoder can share it; an Encoder
    // only reads the members it is handed.
    const_cast<T&>(m).fields(enc);
    if constexpr (SignedWireType<T>) {
        if (framing != Framing::kSigned) out.raw(m.sig.v);
    }
}

/// A sink that only counts the bytes a Writer would append.
struct Sizer {
    std::size_t size = 0;
    void u8(std::uint8_t) { size += 1; }
    void u32(std::uint32_t) { size += 4; }
    void u64(std::uint64_t) { size += 8; }
    void varint(std::uint64_t v) { size += varint_size(v); }
    void bytes(BytesView v) { size += varint_size(v.size()) + v.size(); }
    void str(std::string_view v) { size += varint_size(v.size()) + v.size(); }
    template <std::size_t N>
    void raw(const std::array<std::uint8_t, N>&) {
        size += N;
    }
};

/// The bytes a signed type's signature covers: str(kSigLabel), then the
/// fields without Format and Unsigned ones, in a buffer sized up front.
template <SignedWireType T>
Bytes signing_bytes(const T& m) {
    Sizer sizer;
    sizer.str(T::kSigLabel);
    encode(sizer, m, Framing::kSigned);
    Writer w(sizer.size);
    w.str(T::kSigLabel);
    encode(w, m, Framing::kSigned);
    return w.take();
}

/// Reads fields in declaration order, each in place.
class Decoder {
public:
    /// `format` is the Format selector a transport tag stood for.
    explicit Decoder(Reader& r, std::optional<std::uint8_t> format = std::nullopt)
        : r_(r), format_(format) {}

    template <class... Ts>
    void operator()(Ts&&... fields) {
        (get(fields), ...);
    }

    /// Decodes `m` in place: fields, then the signature of a signed type.
    template <class T>
    static void read(Reader& r, T& m, std::optional<std::uint8_t> format = std::nullopt) {
        Decoder dec(r, format);
        m.fields(dec);
        if constexpr (SignedWireType<T>) r.raw(m.sig.v.data(), m.sig.v.size());
    }

private:
    template <class T>
    void get(T& v) {
        if constexpr (std::is_same_v<T, bool>) v = r_.u8() != 0;
        else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            get(raw);
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, std::uint8_t>) v = r_.u8();
        else if constexpr (std::is_same_v<T, std::uint32_t>) v = r_.u32();
        else if constexpr (std::is_same_v<T, std::uint64_t>) v = r_.u64();
        else if constexpr (std::is_same_v<T, std::int64_t>) v = r_.i64();
        else if constexpr (detail::is_byte_array<T>) r_.raw(v.data(), v.size());
        else if constexpr (std::is_same_v<T, Bytes>) v = r_.bytes();
        else read(r_, v);
    }
    template <class T>
    void get(std::optional<T>& v) {
        if (r_.u8() != 0) read(r_, v.emplace());
    }
    template <std::size_t Min, std::size_t Max, class V>
    void get(List<Min, Max, V>& list) {
        const std::uint64_t count = r_.varint();
        if (count < Min || count > Max) throw DecodeError("list count out of bounds");
        list.items.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) get(list.items.emplace_back());
    }
    template <class T>
    void get(Unsigned<T>& v) {
        get(v.field);
    }
    void get(Format& v) { v.selector = format_ ? *format_ : r_.u8(); }

    Reader& r_;
    std::optional<std::uint8_t> format_;
};

template <class T>
T decode(Reader& r, std::optional<std::uint8_t> format = std::nullopt) {
    T m;
    Decoder::read(r, m, format);
    return m;
}

// ---- Transport framing -----------------------------------------------------
//
// [u8 tag][message] over a std::variant of wire types. A message's tag is
// 1 + its index in the variant and stands for Format selector 1; a channel
// may give another layout of one alternative a tag of its own.

template <class V>
std::uint8_t tag_of(const V& m) {
    return static_cast<std::uint8_t>(m.index() + 1);
}

template <class V>
Bytes encode_tagged(const V& m, std::uint8_t tag, std::size_t reserve) {
    Writer w(reserve);
    w.u8(tag);
    std::visit([&w](const auto& msg) { encode(w, msg, Framing::kTagged); }, m);
    return w.take();
}

/// Decodes `body` as a T in layout `format`, held in a V; nullopt on
/// malformed input or trailing bytes.
template <class V, class T>
std::optional<V> decode_as(BytesView body, std::uint8_t format) noexcept {
    try {
        Reader r(body);
        T m = decode<T>(r, format);
        r.expect_done();
        return V{std::move(m)};
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

/// Decodes [tag][message] for the tags tag_of assigns.
template <class V, std::size_t I = 0>
std::optional<V> decode_tagged(BytesView data) noexcept {
    if constexpr (I == std::variant_size_v<V>) {
        return std::nullopt;
    } else {
        if (data.empty()) return std::nullopt;
        if (data[0] != I + 1) return decode_tagged<V, I + 1>(data);
        return decode_as<V, std::variant_alternative_t<I, V>>(data.subspan(1), 1);
    }
}

/// Declares a wire type's encode/decode members, derived from its fields().
#define ZC_CODEC_FIELDS(T)                                                           \
    void encode(::zc::codec::Writer& w) const { ::zc::codec::encode(w, *this); }    \
    static T decode(::zc::codec::Reader& r) { return ::zc::codec::decode<T>(r); }

/// ZC_CODEC_FIELDS plus a signed type's label and signing_bytes().
#define ZC_CODEC_SIGNED(T, label)                                                    \
    ZC_CODEC_FIELDS(T)                                                               \
    static constexpr std::string_view kSigLabel = label;                             \
    ::zc::Bytes signing_bytes() const { return ::zc::codec::signing_bytes(*this); }

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
