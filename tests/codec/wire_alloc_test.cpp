// Allocation bound of decoding a hostile list count: the decoder may not
// reserve memory for elements the message cannot hold. This binary
// replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "codec/wire_samples.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated{0};

}  // namespace

void* operator new(std::size_t n) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocated.fetch_add(n, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
// GCC cannot see that this operator new allocates with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace zc {
namespace {

/// Bytes allocated through operator new while `f` runs.
template <class F>
std::size_t allocated_by(F&& f) {
    g_allocated = 0;
    g_counting = true;
    f();
    g_counting = false;
    return g_allocated;
}

TEST(WireAlloc, HostileBlockCountAllocatesLittle) {
    // An 84-byte header followed by a count of 2^20 requests (the bound,
    // so the count itself is accepted) and nothing else: 87 bytes.
    codec::Writer w;
    w.raw(codec::encode_to_bytes(wire_samples::block_header()));
    w.varint(chain::kMaxBlockRequests);
    const Bytes hostile = w.take();
    ASSERT_EQ(hostile.size(), 87u);

    bool decoded = true;
    const std::size_t bytes =
        allocated_by([&] { decoded = codec::try_decode<chain::Block>(hostile).has_value(); });
    EXPECT_FALSE(decoded);
    EXPECT_LT(bytes, std::size_t{1} << 20) << "bytes allocated decoding an 87-byte block";
}

}  // namespace
}  // namespace zc
