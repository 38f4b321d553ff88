// Adaptive timeout estimation (Jacobson/Karn, RFC 6298 style) on virtual
// time. A fixed view-change or suspicion timeout thrashes under gray
// failures: a limping-but-correct primary (degraded CPU, creeping link) is
// repeatedly indicted even though it makes progress, and every indictment
// costs a view change. The estimator tracks the observed round-trip of the
// protocol it guards (preprepare -> execute for the replica, request ->
// logged for the communication layer) as a smoothed mean plus variance and
// derives the timeout from it:
//
//     rto  = srtt + 4 * rttvar
//     base = clamp(rtt_factor * rto, floor, cap)
//
// with exponential backoff across consecutive failed attempts, capped.
// All arithmetic is integer nanoseconds on virtual time — no wall clock,
// no floating point in the update path — so same-seed runs stay
// byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/time.hpp"

namespace zc::pbft {

inline constexpr Duration kAdaptiveFloor = milliseconds(100);  ///< lower clamp on the base
inline constexpr Duration kAdaptiveCap = seconds(60);  ///< upper clamp (also bounds backoff)
inline constexpr std::int64_t kRttFactor = 4;  ///< budget in units of (srtt + 4*rttvar)

struct AdaptiveTimeoutConfig {
    bool enabled = false;
};

class AdaptiveTimeout {
public:
    AdaptiveTimeout(AdaptiveTimeoutConfig config, Duration fixed)
        : config_(config), fixed_(fixed) {}

    /// Feeds one observed round trip (Jacobson update, integer shifts:
    /// srtt gains 1/8 of the error, rttvar 1/4 of the deviation).
    void observe(Duration sample) {
        const std::int64_t s = std::max<std::int64_t>(sample.count(), 0);
        if (samples_ == 0) {
            srtt_ns_ = s;
            rttvar_ns_ = s / 2;
        } else {
            const std::int64_t err = s - srtt_ns_;
            srtt_ns_ += err / 8;
            const std::int64_t dev = err < 0 ? -err : err;
            rttvar_ns_ += (dev - rttvar_ns_) / 4;
        }
        samples_ += 1;
    }

    /// The un-backed-off timeout: adaptive base once samples exist, the
    /// fixed configured value otherwise (and always when disabled).
    Duration base() const {
        if (!config_.enabled || samples_ == 0) return fixed_;
        const std::int64_t rto = srtt_ns_ + 4 * rttvar_ns_;
        return Duration{std::clamp(rto * kRttFactor, kAdaptiveFloor.count(), kAdaptiveCap.count())};
    }

    /// Base with exponential backoff for the given consecutive-failure
    /// count (exponent capped at 6). The adaptive path additionally clamps
    /// to kAdaptiveCap; the disabled path reproduces the legacy fixed schedule
    /// exactly (fixed * 2^exponent, uncapped).
    Duration with_backoff(std::uint32_t attempts) const {
        const int exponent = static_cast<int>(std::min<std::uint32_t>(attempts, 6));
        if (!config_.enabled || samples_ == 0) {
            return fixed_ * (1ll << exponent);
        }
        const std::int64_t backed = base().count() << exponent;
        return Duration{std::min(backed, kAdaptiveCap.count())};
    }

    bool enabled() const noexcept { return config_.enabled; }
    std::uint64_t samples() const noexcept { return samples_; }
    Duration srtt() const noexcept { return Duration{srtt_ns_}; }
    Duration rttvar() const noexcept { return Duration{rttvar_ns_}; }

private:
    AdaptiveTimeoutConfig config_;
    Duration fixed_;
    std::int64_t srtt_ns_ = 0;
    std::int64_t rttvar_ns_ = 0;
    std::uint64_t samples_ = 0;
};

}  // namespace zc::pbft
