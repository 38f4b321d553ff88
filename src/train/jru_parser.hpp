// Node-side JRU transform: parse a raw bus telegram and filter it to the
// juridically relevant record.
//
// Mirrors the paper's "From Signals to Blocks": the transformation uses
// the same verified steps as the JRU — parse, then filter by relevance
// ("e.g., to log the speed only upon changes"). Discrete safety events
// (emergency brake, ATP intervention, doors, horn, cab signal changes) are
// always logged; continuously varying channels are quantized to absolute
// buckets (1 km/h, 10 m, 100 mbar) and logged on bucket crossings, so a
// slow drift is still captured once it accumulates. The opaque encrypted
// channel is logged as-is.
//
// Bucketing makes the filter self-realigning: nodes that observed the same
// telegrams derive byte-identical records (the precondition for ZugChain's
// payload dedup), and a node that missed a cycle diverges for at most the
// cycles until the next bucket crossing — not indefinitely, as a
// delta-since-my-last-log filter would.
#pragma once

#include <map>
#include <optional>

#include "train/signal.hpp"

namespace zc::train {

class JruParser {
public:
    /// Parses a raw telegram payload. Returns nullopt for malformed input
    /// (a corrupted frame that does not decode is unusable and counts as a
    /// lost cycle, like a failed bus CRC).
    static std::optional<TelegramContent> parse(BytesView raw);

    /// Applies the relevance filter against this parser's state and
    /// advances the state. Always produces a record (cycle and timestamp
    /// are juridically relevant on their own), matching the paper where a
    /// request is submitted per bus cycle.
    LogRecord filter(const TelegramContent& telegram);

    /// Convenience: parse + filter; nullopt if parsing failed.
    std::optional<LogRecord> process(BytesView raw);

private:
    bool relevant(const Signal& now) const;
    static std::int64_t quantize(const Signal& s);

    /// Last logged quantized value per signal (absolute buckets for analog
    /// channels, raw values for discrete ones).
    std::map<SignalKind, std::int64_t> last_logged_;
};

}  // namespace zc::train
