// Strongly-typed identifiers used across the system.
#pragma once

#include <cstdint>

namespace zc {

/// ZugChain node / BFT replica identifier (0..n-1, fixed at deployment).
using NodeId = std::uint32_t;

/// Data-center identifier for the export protocol.
using DataCenterId = std::uint32_t;

/// Consensus view number (primary = view mod n).
using View = std::uint64_t;

/// Consensus sequence number assigned by ordering.
using SeqNo = std::uint64_t;

/// Block height in the chain (genesis = 0).
using Height = std::uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = 0xffffffffu;

/// Data center d is endpoint kDcEndpointBase + d on a consist network
/// (replicas are 0..n-1). Trace pids and audit reports use the same
/// numbering.
inline constexpr std::uint32_t kDcEndpointBase = 100;

}  // namespace zc
