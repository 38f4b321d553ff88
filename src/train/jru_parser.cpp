#include "train/jru_parser.hpp"

#include <cstdlib>

namespace zc::train {

std::optional<TelegramContent> JruParser::parse(BytesView raw) {
    return codec::try_decode<TelegramContent>(raw);
}

namespace {

/// Minimum speed delta to log, centi-km/h (100 = 1 km/h).
constexpr std::int64_t kSpeedDelta = 100;
/// Minimum odometer delta to log, metres.
constexpr std::int64_t kOdometerDelta = 10;
/// Minimum brake pressure delta to log, millibar.
constexpr std::int64_t kPressureDelta = 100;

/// Floor division (buckets must be monotone across zero, e.g. for the
/// traction lever).
std::int64_t floor_div(std::int64_t value, std::int64_t divisor) {
    std::int64_t q = value / divisor;
    if ((value % divisor != 0) && ((value < 0) != (divisor < 0))) --q;
    return q;
}

}  // namespace

std::int64_t JruParser::quantize(const Signal& s) {
    // Analog channels are quantized to absolute buckets so that every node
    // logs at the same value boundaries: a node that missed a cycle
    // realigns with its peers at the next boundary instead of drifting on
    // a private "delta since my last log" reference (which would make its
    // records diverge — and be redundantly ordered — indefinitely).
    switch (s.kind) {
        case SignalKind::kSpeed:
            return floor_div(s.value, kSpeedDelta);
        case SignalKind::kOdometer:
            return floor_div(s.value, kOdometerDelta);
        case SignalKind::kBrakePressure:
            return floor_div(s.value, kPressureDelta);
        // Discrete safety signals: the raw value is the bucket.
        case SignalKind::kEmergencyBrake:
        case SignalKind::kDoorState:
        case SignalKind::kAtpIntervention:
        case SignalKind::kTractionCommand:
        case SignalKind::kHorn:
        case SignalKind::kCabSignal:
            return s.value;
    }
    return s.value;
}

bool JruParser::relevant(const Signal& now) const {
    const auto it = last_logged_.find(now.kind);
    if (it == last_logged_.end()) return true;  // first sighting is always logged
    return quantize(now) != it->second;
}

LogRecord JruParser::filter(const TelegramContent& telegram) {
    LogRecord rec;
    rec.cycle = telegram.cycle;
    rec.timestamp_ns = telegram.timestamp_ns;
    for (const Signal& s : telegram.signals) {
        if (relevant(s)) {
            rec.signals.push_back(s);
            last_logged_[s.kind] = quantize(s);
        }
    }
    rec.opaque = telegram.opaque;  // encrypted at source, logged as-is
    return rec;
}

std::optional<LogRecord> JruParser::process(BytesView raw) {
    auto telegram = parse(raw);
    if (!telegram) return std::nullopt;
    return filter(*telegram);
}

}  // namespace zc::train
