#include "codec/codec.hpp"

#include <atomic>
#include <cstring>

namespace zc::codec {

namespace {
std::atomic<std::uint64_t> g_decode_errors{0};
}  // namespace

DecodeError::DecodeError(const std::string& what) : std::runtime_error(what) {
    ++g_decode_errors;
}

std::uint64_t DecodeError::constructed() noexcept {
    return g_decode_errors.load();
}

void Writer::u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void Writer::varint(std::uint64_t v) {
    std::uint8_t out[10] = {};
    buf_.insert(buf_.end(), out, out + put_varint(v, out));
}

void Writer::bytes(BytesView v) {
    varint(v.size());
    raw(v);
}

void Writer::str(std::string_view v) {
    varint(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Reader::need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("unexpected end of buffer");
}

std::uint8_t Reader::u8() {
    need(1);
    return data_[pos_++];
}

std::uint16_t Reader::u16() {
    need(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>(data_[pos_] | (std::uint16_t(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
}

std::uint32_t Reader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
}

std::uint64_t Reader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
}

double Reader::f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

const char* Reader::read_varint(std::uint64_t& out) noexcept {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (remaining() < 1) return "unexpected end of buffer";
        const std::uint8_t b = data_[pos_++];
        if (shift == 63 && (b & 0x7e) != 0) return "varint overflow";
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            // A zero last byte after the first adds nothing: the value has
            // a shorter encoding, and only the shortest one is accepted.
            if (b == 0 && shift > 0) return "non-minimal varint";
            out = v;
            return nullptr;
        }
        shift += 7;
        if (shift > 63) return "varint too long";
    }
}

const char* Reader::read_view(std::size_t max_len, BytesView& out) noexcept {
    std::uint64_t len = 0;
    if (const char* err = read_varint(len)) return err;
    if (len > max_len) return "length-delimited field too large";
    if (remaining() < len) return "unexpected end of buffer";
    out = data_.subspan(pos_, len);
    pos_ += len;
    return nullptr;
}

std::uint64_t Reader::varint() {
    std::uint64_t v = 0;
    if (const char* err = read_varint(v)) throw DecodeError(err);
    return v;
}

Bytes Reader::bytes(std::size_t max_len) {
    BytesView v;
    if (const char* err = read_view(max_len, v)) throw DecodeError(err);
    return Bytes(v.begin(), v.end());
}

std::optional<BytesView> Reader::try_bytes_view(std::size_t max_len) noexcept {
    BytesView v;
    if (read_view(max_len, v) != nullptr) return std::nullopt;
    return v;
}

std::string Reader::str(std::size_t max_len) {
    const Bytes b = bytes(max_len);
    return std::string(b.begin(), b.end());
}

void Reader::raw(std::uint8_t* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
}

void Reader::expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after message");
}

}  // namespace zc::codec
