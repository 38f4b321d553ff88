#include <gtest/gtest.h>

#include "train/generator.hpp"
#include "train/jru_parser.hpp"

namespace zc::train {
namespace {

TelegramContent make_telegram(std::uint64_t cycle, std::int64_t speed, std::int64_t doors) {
    TelegramContent t;
    t.cycle = cycle;
    t.timestamp_ns = static_cast<std::int64_t>(cycle) * 64'000'000;
    t.signals = {
        Signal{SignalKind::kSpeed, speed},
        Signal{SignalKind::kDoorState, doors},
        Signal{SignalKind::kEmergencyBrake, 0},
    };
    t.opaque = to_bytes("enc");
    return t;
}

TEST(JruParser, ParseRejectsGarbage) {
    EXPECT_FALSE(JruParser::parse(to_bytes("\xff\x01garbage")).has_value());
}

TEST(JruParser, ParseRoundTripsGeneratorOutput) {
    SignalGenerator gen(512, Rng(1));
    const Bytes raw = gen.payload_for_cycle(3, milliseconds(192));
    const auto parsed = JruParser::parse(raw);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cycle, 3u);
    EXPECT_EQ(parsed->signals.size(), 9u);
}

TEST(JruParser, FirstTelegramLogsAllSignals) {
    JruParser parser;
    const LogRecord rec = parser.filter(make_telegram(0, 1000, 0));
    EXPECT_EQ(rec.signals.size(), 3u);
    EXPECT_EQ(rec.opaque, to_bytes("enc"));
}

TEST(JruParser, UnchangedSpeedFilteredOut) {
    JruParser parser;
    parser.filter(make_telegram(0, 1000, 0));
    const LogRecord rec = parser.filter(make_telegram(1, 1000, 0));
    for (const Signal& s : rec.signals) EXPECT_NE(s.kind, SignalKind::kSpeed);
}

TEST(JruParser, SmallSpeedChangeFilteredLargeKept) {
    JruParser parser;  // default threshold: 100 centi-km/h
    parser.filter(make_telegram(0, 1000, 0));

    const LogRecord small = parser.filter(make_telegram(1, 1050, 0));
    bool has_speed = false;
    for (const Signal& s : small.signals) has_speed |= (s.kind == SignalKind::kSpeed);
    EXPECT_FALSE(has_speed);

    // The threshold compares against the last *logged* value (1000), so a
    // slow drift is captured once it accumulates to the threshold.
    const LogRecord large = parser.filter(make_telegram(2, 1099, 0));
    has_speed = false;
    for (const Signal& s : large.signals) has_speed |= (s.kind == SignalKind::kSpeed);
    EXPECT_FALSE(has_speed);  // 99 < 100: still filtered

    const LogRecord drifted = parser.filter(make_telegram(3, 1101, 0));
    has_speed = false;
    for (const Signal& s : drifted.signals) has_speed |= (s.kind == SignalKind::kSpeed);
    EXPECT_TRUE(has_speed);  // accumulated drift of 101 crossed the threshold
}

TEST(JruParser, SlowDriftEventuallyLogged) {
    // Regression: with per-telegram comparison a gradual acceleration
    // (sub-threshold per cycle) was never logged at all.
    JruParser parser;
    parser.filter(make_telegram(0, 0, 0));
    int speed_logs = 0;
    std::int64_t speed = 0;
    for (std::uint64_t c = 1; c <= 100; ++c) {
        speed += 16;  // 0.16 km/h per cycle, like 0.7 m/s^2 at 64 ms
        const LogRecord rec = parser.filter(make_telegram(c, speed, 0));
        for (const Signal& s : rec.signals) speed_logs += (s.kind == SignalKind::kSpeed);
    }
    // 1600 centi-km/h of accumulated change at a 100-threshold: ~16 logs.
    EXPECT_GE(speed_logs, 14);
    EXPECT_LE(speed_logs, 17);
}

TEST(JruParser, DiscreteChangeAlwaysLogged) {
    JruParser parser;
    parser.filter(make_telegram(0, 1000, 0));
    const LogRecord rec = parser.filter(make_telegram(1, 1000, 1));  // doors opened
    ASSERT_EQ(rec.signals.size(), 1u);
    EXPECT_EQ(rec.signals[0].kind, SignalKind::kDoorState);
    EXPECT_EQ(rec.signals[0].value, 1);
}

TEST(JruParser, RecordAlwaysCarriesCycleTimestampOpaque) {
    JruParser parser;
    parser.filter(make_telegram(0, 1000, 0));
    const LogRecord rec = parser.filter(make_telegram(1, 1000, 0));
    EXPECT_EQ(rec.cycle, 1u);
    EXPECT_GT(rec.timestamp_ns, 0);
    EXPECT_EQ(rec.opaque, to_bytes("enc"));
}

TEST(JruParser, IdenticalHistoryYieldsIdenticalRecords) {
    JruParser p1, p2;
    for (std::uint64_t c = 0; c < 50; ++c) {
        const TelegramContent t = make_telegram(c, static_cast<std::int64_t>(1000 + c * 37), 0);
        const LogRecord r1 = p1.filter(t);
        const LogRecord r2 = p2.filter(t);
        EXPECT_EQ(codec::encode_to_bytes(r1), codec::encode_to_bytes(r2));
    }
}

TEST(JruParser, MissedCycleYieldsSupersetRecord) {
    JruParser full, gappy;
    const auto t0 = make_telegram(0, 1000, 0);
    const auto t1 = make_telegram(1, 1200, 0);
    const auto t2 = make_telegram(2, 1250, 0);

    full.filter(t0);
    full.filter(t1);
    const LogRecord full_rec = full.filter(t2);  // speed delta 50: filtered

    gappy.filter(t0);  // missed t1
    const LogRecord gappy_rec = gappy.filter(t2);  // delta vs t0 = 250: logged

    bool full_has_speed = false, gappy_has_speed = false;
    for (const Signal& s : full_rec.signals) full_has_speed |= (s.kind == SignalKind::kSpeed);
    for (const Signal& s : gappy_rec.signals) gappy_has_speed |= (s.kind == SignalKind::kSpeed);
    EXPECT_FALSE(full_has_speed);
    EXPECT_TRUE(gappy_has_speed);
}

TEST(JruParser, ProcessComposesParseAndFilter) {
    JruParser parser;
    const Bytes raw = codec::encode_to_bytes(make_telegram(5, 900, 0));
    const auto rec = parser.process(raw);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->cycle, 5u);
    EXPECT_FALSE(parser.process(to_bytes("junk")).has_value());
}

TEST(JruParser, LogRecordRoundTrip) {
    JruParser parser;
    const LogRecord rec = parser.filter(make_telegram(9, 1234, 1));
    const Bytes enc = codec::encode_to_bytes(rec);
    const LogRecord back = codec::decode_from_bytes<LogRecord>(enc);
    EXPECT_EQ(back, rec);
}

}  // namespace
}  // namespace zc::train
