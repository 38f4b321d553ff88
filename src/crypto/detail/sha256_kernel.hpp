// SHA-256 compression kernels behind crypto::Sha256. Internal: library
// code hashes through Sha256/sha256(); this header exists so tests and the
// micro benchmark can reach each kernel directly and cross-check them.
//
// Two kernels compute the same function: the portable C++ round loop, and
// on x86-64 hosts whose CPU reports the SHA extensions, one built on
// sha256rnds2/sha256msg1/sha256msg2. The choice is made once per process
// from cpuid, never from a build flag, so one binary runs everywhere.
#pragma once

#include <cstddef>
#include <cstdint>

namespace zc::crypto::detail {

/// Folds `nblocks` consecutive 64-byte blocks into the eight-word state.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                                std::size_t nblocks) noexcept;

/// The portable kernel; available on every host.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks) noexcept;

/// The SHA-NI kernel, or nullptr when this build does not target x86-64
/// or this CPU lacks SHA, SSSE3 or SSE4.1.
Sha256Compress sha256_shani_kernel() noexcept;

/// The kernel every Sha256 in this process uses: SHA-NI when available,
/// the portable one otherwise.
Sha256Compress sha256_active_kernel() noexcept;

/// "sha-ni" or "portable", naming sha256_active_kernel().
const char* sha256_kernel_name() noexcept;

}  // namespace zc::crypto::detail
