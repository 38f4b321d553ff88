// ATP/train signal generator.
//
// Substitutes the paper's DDC signal generator for JRU test systems: it
// produces the per-cycle process-data telegrams the bus master polls,
// following a plausible drive profile (accelerate, cruise, brake into
// stations, occasional emergency events, door activity while stopped).
// A configurable opaque-telemetry channel pads telegrams to a target
// payload size so benchmarks can sweep payload as in Figs. 6/7.
#pragma once

#include <cstddef>

#include "bus/bus.hpp"
#include "common/rng.hpp"
#include "train/signal.hpp"

namespace zc::train {

class SignalGenerator final : public bus::PayloadSource {
public:
    /// Pads each telegram to `payload_size` encoded bytes through the
    /// opaque channel (0 = no padding).
    SignalGenerator(std::size_t payload_size, Rng rng);

    Bytes payload_for_cycle(std::uint64_t cycle, TimePoint at) override;

    /// The most recently generated content (tests inspect this).
    const TelegramContent& last_content() const noexcept { return last_; }

    double speed_kmh() const noexcept { return speed_kmh_; }

private:
    enum class Phase { kAccelerating, kCruising, kBraking, kStopped };

    void step_dynamics(Duration dt);
    TelegramContent snapshot(std::uint64_t cycle, TimePoint at);

    std::size_t payload_size_;
    Rng rng_;
    Phase phase_ = Phase::kStopped;
    double speed_kmh_ = 0.0;
    double odometer_m_ = 0.0;
    double segment_start_m_ = 0.0;
    Duration stop_remaining_{seconds(5)};
    TimePoint last_at_{0};
    bool first_cycle_ = true;
    std::int64_t doors_ = 0;
    std::int64_t emergency_ = 0;
    std::int64_t atp_code_ = 0;
    TelegramContent last_;
};

}  // namespace zc::train
