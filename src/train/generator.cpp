#include "train/generator.hpp"

#include <algorithm>
#include <cmath>

namespace zc::train {

namespace {

// Drive dynamics.
constexpr double kMaxSpeedKmh = 160.0;
constexpr double kAccelMs2 = 0.7;
constexpr double kBrakeMs2 = 1.0;
constexpr Duration kStationDwell = seconds(45);
constexpr double kInterstationM = 8000.0;

// Rare events (per cycle).
constexpr double kEmergencyBrakeChance = 0.0005;
constexpr double kAtpInterventionChance = 0.001;
constexpr double kHornChance = 0.002;

}  // namespace

SignalGenerator::SignalGenerator(std::size_t payload_size, Rng rng)
    : payload_size_(payload_size), rng_(rng) {}

void SignalGenerator::step_dynamics(Duration dt) {
    const double dt_s = to_seconds(dt);
    const double speed_ms = speed_kmh_ / 3.6;
    odometer_m_ += speed_ms * dt_s;

    switch (phase_) {
        case Phase::kAccelerating: {
            speed_kmh_ = std::min(kMaxSpeedKmh, speed_kmh_ + kAccelMs2 * 3.6 * dt_s);
            if (speed_kmh_ >= kMaxSpeedKmh) phase_ = Phase::kCruising;
            break;
        }
        case Phase::kCruising: {
            // Begin braking so we stop at the next station.
            const double remaining = segment_start_m_ + kInterstationM - odometer_m_;
            const double brake_dist = (speed_ms * speed_ms) / (2.0 * kBrakeMs2);
            if (remaining <= brake_dist) phase_ = Phase::kBraking;
            break;
        }
        case Phase::kBraking: {
            const double decel = emergency_ != 0 ? 2.5 : kBrakeMs2;
            speed_kmh_ = std::max(0.0, speed_kmh_ - decel * 3.6 * dt_s);
            if (speed_kmh_ == 0.0) {
                phase_ = Phase::kStopped;
                stop_remaining_ = kStationDwell;
                doors_ = 0b01;  // platform side released
                emergency_ = 0;
            }
            break;
        }
        case Phase::kStopped: {
            stop_remaining_ -= dt;
            if (stop_remaining_ <= Duration::zero()) {
                phase_ = Phase::kAccelerating;
                doors_ = 0;
                segment_start_m_ = odometer_m_;
            }
            break;
        }
    }

    // Rare events.
    if (phase_ != Phase::kStopped && rng_.chance(kEmergencyBrakeChance)) {
        emergency_ = 1;
        phase_ = Phase::kBraking;
    }
    atp_code_ = rng_.chance(kAtpInterventionChance) ? rng_.next_range(1, 9) : 0;
}

TelegramContent SignalGenerator::snapshot(std::uint64_t cycle, TimePoint at) {
    TelegramContent t;
    t.cycle = cycle;
    t.timestamp_ns = at.count();
    t.signals = {
        Signal{SignalKind::kSpeed, static_cast<std::int64_t>(std::lround(speed_kmh_ * 100))},
        Signal{SignalKind::kOdometer, static_cast<std::int64_t>(std::lround(odometer_m_))},
        Signal{SignalKind::kBrakePressure,
               phase_ == Phase::kBraking ? rng_.next_range(3200, 3600) : 5000},
        Signal{SignalKind::kEmergencyBrake, emergency_},
        Signal{SignalKind::kDoorState, doors_},
        Signal{SignalKind::kAtpIntervention, atp_code_},
        Signal{SignalKind::kTractionCommand,
               phase_ == Phase::kAccelerating ? 800 : (phase_ == Phase::kBraking ? -600 : 0)},
        Signal{SignalKind::kHorn, rng_.chance(kHornChance) ? 1 : 0},
        Signal{SignalKind::kCabSignal, phase_ == Phase::kBraking ? 2 : 1},
    };
    return t;
}

Bytes SignalGenerator::payload_for_cycle(std::uint64_t cycle, TimePoint at) {
    if (!first_cycle_) step_dynamics(at - last_at_);
    first_cycle_ = false;
    last_at_ = at;

    TelegramContent content = snapshot(cycle, at);

    // Size the opaque channel so the encoded telegram hits the target.
    codec::Writer probe;
    content.encode(probe);
    const std::size_t base = probe.size();
    if (payload_size_ > base) {
        content.opaque = rng_.bytes(payload_size_ - base);
    }

    last_ = content;
    codec::Writer w(payload_size_ + 16);
    content.encode(w);
    return w.take();
}

}  // namespace zc::train
