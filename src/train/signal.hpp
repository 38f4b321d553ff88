// Train signal model.
//
// The signal classes follow what IEC 62625-1 requires a juridical recorder
// to capture: speed, odometry, brake state, emergency interventions, door
// activity, driver commands and automatic-train-protection events, plus an
// opaque channel for data that arrives pre-encrypted at the source and is
// logged as-is (the paper handles such data identically to the JRU).
#pragma once

#include <cstdint>
#include <vector>

#include "codec/codec.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"

namespace zc::train {

/// Decode bound on a telegram's or record's signal count.
inline constexpr std::size_t kMaxSignals = 4096;

enum class SignalKind : std::uint8_t {
    kSpeed = 1,           ///< centi-km/h
    kOdometer = 2,        ///< metres since trip start
    kBrakePressure = 3,   ///< brake pipe pressure, millibar
    kEmergencyBrake = 4,  ///< 0/1
    kDoorState = 5,       ///< bitmask: released/open per side
    kAtpIntervention = 6, ///< ATP intervention code, 0 = none
    kTractionCommand = 7, ///< driver traction/brake lever position, permille
    kHorn = 8,            ///< 0/1
    kCabSignal = 9,       ///< displayed cab signal aspect
};

/// One sampled value of one signal.
struct Signal {
    SignalKind kind{};
    std::int64_t value = 0;

    template <class F>
    void fields(F& f) {
        f(kind, value);
    }
    friend bool operator==(const Signal&, const Signal&) = default;
};

/// Full decoded content of one bus telegram: the periodic process-data
/// snapshot plus the opaque (encrypted-at-source) telemetry channel.
struct TelegramContent {
    std::uint64_t cycle = 0;
    std::int64_t timestamp_ns = 0;
    std::vector<Signal> signals;
    Bytes opaque;  ///< encrypted telemetry, logged unmodified

    template <class F>
    void fields(F& f) {
        f(cycle, timestamp_ns, codec::list<kMaxSignals>(signals), opaque);
    }
    ZC_CODEC_FIELDS(TelegramContent)
};

/// The filtered record a node submits for logging: cycle, timestamp, the
/// signals that are juridically relevant this cycle, and the opaque channel.
struct LogRecord {
    std::uint64_t cycle = 0;
    std::int64_t timestamp_ns = 0;
    std::vector<Signal> signals;
    Bytes opaque;

    template <class F>
    void fields(F& f) {
        f(cycle, timestamp_ns, codec::list<kMaxSignals>(signals), opaque);
    }
    ZC_CODEC_FIELDS(LogRecord)

    friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

}  // namespace zc::train
