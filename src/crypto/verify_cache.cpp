#include "crypto/verify_cache.hpp"

#include <cstring>

namespace zc::crypto {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mixer.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

// Two-lane multiply-xor accumulator, one pass over the input, word at a
// time. Each segment is terminated by its length, so field boundaries in
// a concatenation are unambiguous. Not cryptographic — see the header for
// why the key only needs collision resistance against honest traffic.
class KeyMixer {
public:
    void segment(const void* data, std::size_t len) noexcept {
        const auto* p = static_cast<const std::uint8_t*>(data);
        std::size_t n = len;
        while (n >= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            feed(w);
            p += 8;
            n -= 8;
        }
        if (n > 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            feed(w);
        }
        feed(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(len));
    }

    Digest finalize() const noexcept {
        Digest out;
        const std::uint64_t words[4] = {
            mix64(a_ + 0x2545f4914f6cdd1dULL),
            mix64(b_ + 0x9e3779b97f4a7c15ULL),
            mix64(a_ ^ (b_ << 32 | b_ >> 32)),
            mix64(b_ ^ (a_ << 32 | a_ >> 32)),
        };
        std::memcpy(out.data(), words, sizeof words);
        return out;
    }

private:
    void feed(std::uint64_t w) noexcept {
        a_ = (a_ ^ w) * 0xff51afd7ed558ccdULL;
        b_ = (b_ ^ w) * 0xc4ceb9fe1a85ec53ULL + 0x9e3779b97f4a7c15ULL;
    }

    std::uint64_t a_ = 0x6a09e667f3bcc908ULL;
    std::uint64_t b_ = 0xbb67ae8584caa73bULL;
};

}  // namespace

Digest verify_cache_key(const char* provider_name, const PublicKey& pub, BytesView message,
                        const Signature& sig) noexcept {
    KeyMixer m;
    m.segment(provider_name, std::strlen(provider_name));
    m.segment(pub.v.data(), pub.v.size());
    m.segment(sig.v.data(), sig.v.size());
    m.segment(message.data(), message.size());
    return m.finalize();
}

bool VerifyCache::lookup(const Digest& key, bool& ok) const noexcept {
    if (!enabled_) return false;
    const Slot* set = &slots_[set_of(bits_of(key))];
    for (std::size_t w = 0; w < kWays; ++w) {
        if (set[w].used && set[w].key == key) {
            ++hits_;
            ok = set[w].ok;
            return true;
        }
    }
    ++misses_;
    return false;
}

void VerifyCache::insert(const Digest& key, bool ok) {
    if (!enabled_) return;
    const std::uint64_t bits = bits_of(key);
    Slot* set = &slots_[set_of(bits)];
    Slot* target = nullptr;
    for (std::size_t w = 0; w < kWays; ++w) {
        if (set[w].used && set[w].key == key) return;
        if (!set[w].used && target == nullptr) target = &set[w];
    }
    if (target == nullptr) target = &set[(bits >> 32) & (kWays - 1)];
    target->key = key;
    target->ok = ok;
    target->used = true;
    ++inserts_;
}

void VerifyCache::clear() {
    for (Slot& slot : slots_) slot.used = false;
    hits_ = 0;
    misses_ = 0;
    inserts_ = 0;
}

VerifyCache& global_verify_cache() noexcept {
    thread_local VerifyCache cache;
    return cache;
}

}  // namespace zc::crypto
