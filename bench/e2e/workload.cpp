#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fleet/fleet.hpp"
#include "metrics/stats.hpp"
#include "prof/prof.hpp"
#include "runtime/scenario.hpp"
#include "trace/trace.hpp"

namespace zc::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using fleet::TrainId;

constexpr int kSetups = 15;  ///< constructions timed per repetition
constexpr Duration kWarmup = seconds(2);
constexpr Duration kMinHorizon = seconds(8);  ///< floor of a scaled (smoke) horizon
constexpr Duration kProbePeriod = milliseconds(100);
/// Telegrams younger than this at the end of a run may legitimately still
/// be in flight; the lost-telegram gate only judges older ones.
constexpr Duration kInFlightTail = seconds(1);
constexpr double kBudgetMs = 500.0;  ///< juridical logging budget (paper §V-B)
constexpr std::uint64_t kCycleMask = (std::uint64_t{1} << 48) - 1;

const std::vector<WorkloadInfo> kWorkloads = {
    {"consist_rush",
     "62.5 telegrams/s of 256 B, batches of up to 10: per-message cost in sim, pbft, "
     "zugchain, crypto and codec; bypasses export, fleet and audit",
     2.1},
    {"consist_bulk",
     "the paper's 64 ms cycle with 8 KiB telegrams, batch 1: per-byte cost (hashing, copies, "
     "chain append) dominates; bypasses export, fleet and audit",
     6.0},
    {"fleet_export",
     "16 trains export every 5 s into 2 shared data centers under per-shard auditors: reads "
     "beside writes, DC ingest, the archive index, time-to-archive",
     5.8},
    {"failover",
     "one-shot export at 20 s, then the view-0 primary crashes at 30 s and rejoins at 50 s "
     "across the prune base, safety and liveness auditors on: view change, state transfer, audit",
     2.5},
};

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string digest_hex(std::string_view text) {
    const crypto::Digest d = crypto::sha256(
        BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
    return to_hex(BytesView(d.data(), 16));
}

// ---------------------------------------------------------------------------
// Workload plans

/// One concrete instance of a workload at a given seed and scale.
struct Plan {
    bool fleet = false;
    /// The single consist, or the fleet's per-train template.
    runtime::ScenarioConfig consist;
    std::uint32_t trains = 1;
    std::uint32_t fleet_dcs = 0;
    Duration export_period{0};          ///< fleet: periodic export cadence
    std::optional<Duration> export_at;  ///< consist: one-shot export by DC 0
    std::optional<Duration> restart_at; ///< node 0 restart (rejoin probe)
    bool audit = false;
    bool liveness = false;
    Duration drain{0};

    Duration horizon() const { return consist.warmup + consist.duration; }
};

Duration scaled(Duration d, int scale, Duration floor) {
    return std::max(Duration{d.count() / scale}, floor);
}

Plan make_plan(std::string_view name, std::uint64_t seed, int scale) {
    Plan p;
    runtime::ScenarioConfig& c = p.consist;
    c.n = 4;
    c.f = 1;
    c.seed = seed;
    // Every telegram reaches every node, so the lost-telegram gate can
    // demand that each bus cycle is logged exactly as emitted.
    c.default_tap_faults = {};
    c.adaptive_timeouts.enabled = true;
    c.warmup = kWarmup;

    // The 16 ms / 256 B / batch 10 operating point of the fleet scaling
    // bench: the fastest cadence the modelled device sustains.
    const auto rush_point = [&c] {
        c.bus_cycle = milliseconds(16);
        c.payload_size = 256;
        c.batch_max_requests = 10;
        c.batch_linger = milliseconds(2);
    };

    if (name == "consist_rush") {
        rush_point();
        c.duration = scaled(seconds(150), scale, kMinHorizon);
    } else if (name == "consist_bulk") {
        c.bus_cycle = milliseconds(64);
        c.payload_size = 8192;
        c.duration = scaled(seconds(160), scale, kMinHorizon);
    } else if (name == "fleet_export") {
        rush_point();
        p.fleet = true;
        p.trains = 16;
        p.fleet_dcs = 2;
        p.export_period = seconds(5);
        p.audit = true;
        c.duration = scaled(seconds(20), scale, kMinHorizon);
    } else if (name == "failover") {
        c.bus_cycle = milliseconds(32);
        c.payload_size = 1024;
        c.dc_count = 2;
        p.audit = true;
        p.liveness = true;
        c.duration = scaled(seconds(90), scale, kMinHorizon);
        // Fault times are fractions of the measured horizon: at full scale
        // the export is at 20 s, the crash at 30 s and the restart at 50 s,
        // so the restarted node rejoins across the export's prune base.
        // The export runs with all replicas up: one that prunes while a
        // replica is down can wedge the cluster for good (seeds 17 and
        // 109000 with the export at 40 s).
        const auto at = [&c](std::int64_t s) { return c.warmup + c.duration * s / 90; };
        p.export_at = at(18);
        c.crash_schedule.emplace_back(at(28), NodeId{0}, at(48) - at(28));
        p.restart_at = at(48);
        p.drain = scaled(seconds(10), scale, seconds(1));
    } else {
        throw std::invalid_argument("unknown workload " + std::string(name));
    }
    return p;
}

// ---------------------------------------------------------------------------
// Construction

/// One constructed workload plus the auditors its configuration points to.
struct Rig {
    faults::SafetyAuditor auditor;
    faults::LivenessAuditor liveness;
    std::unique_ptr<runtime::Scenario> scenario;
    std::unique_ptr<fleet::Fleet> fleet;

    sim::Simulation& sim() { return scenario ? scenario->sim() : fleet->sim(); }

    std::vector<runtime::TrainShard*> shards() {
        std::vector<runtime::TrainShard*> out;
        if (scenario) {
            out.push_back(&scenario->shard());
        } else {
            for (TrainId t = 0; t < fleet->train_count(); ++t) out.push_back(&fleet->shard(t));
        }
        return out;
    }

    /// Every data-center store holding train `t`'s archive.
    std::vector<const chain::BlockStore*> archives(TrainId t) {
        std::vector<const chain::BlockStore*> out;
        if (scenario) {
            for (std::uint32_t d = 0; d < scenario->config().dc_count; ++d) {
                out.push_back(&scenario->data_center(d).store());
            }
        } else {
            for (DataCenterId d = 0; d < fleet->dc_count(); ++d) {
                out.push_back(&fleet->data_center(d).core(t).store());
            }
        }
        return out;
    }

    /// Export round records of every data center (all trains).
    std::vector<const exporter::DataCenter*> dc_cores() {
        std::vector<const exporter::DataCenter*> out;
        if (scenario) {
            for (std::uint32_t d = 0; d < scenario->config().dc_count; ++d) {
                out.push_back(&scenario->data_center(d));
            }
        } else {
            for (DataCenterId d = 0; d < fleet->dc_count(); ++d) {
                for (TrainId t = 0; t < fleet->train_count(); ++t) {
                    out.push_back(&fleet->data_center(d).core(t));
                }
            }
        }
        return out;
    }
};

/// Builds the workload; returns the wall seconds of the harness
/// constructor alone (the set-up a user of the library pays).
double build(Rig& rig, const Plan& p, trace::TraceSink* sink) {
    if (p.fleet) {
        fleet::FleetConfig fc;
        fc.trains = p.trains;
        fc.seed = p.consist.seed;
        fc.train = p.consist;
        fc.dc_count = p.fleet_dcs;
        fc.trains_per_cell = 2;
        fc.export_period = p.export_period;
        fc.warmup = p.consist.warmup;
        fc.duration = p.consist.duration;
        fc.audit = p.audit;
        fc.trace_sink = sink;
        const auto t0 = Clock::now();
        rig.fleet = std::make_unique<fleet::Fleet>(std::move(fc));
        return since(t0);
    }
    runtime::ScenarioConfig cfg = p.consist;
    cfg.trace_sink = sink;
    if (p.audit) cfg.auditor = &rig.auditor;
    if (p.liveness) {
        faults::LivenessConfig lc;
        lc.n = cfg.n;
        lc.f = cfg.f;
        // The export is one-shot, not a drain policy the auditor could judge.
        lc.check_exports = false;
        rig.liveness.configure(lc);
        cfg.liveness = &rig.liveness;
    }
    const auto t0 = Clock::now();
    rig.scenario = std::make_unique<runtime::Scenario>(std::move(cfg));
    return since(t0);
}

// ---------------------------------------------------------------------------
// Host pace: how fast the shared host runs at the moment

/// Calibration kernel time on the reference host (the 4-core Xeon VM the
/// committed results come from) in its fast phase.
constexpr double kReferenceKernelS = 19.5e-6;
/// Least wall time between two kernel samples during a run.
constexpr auto kPaceInterval = std::chrono::milliseconds(5);

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// The SHA-256 compression function (FIPS 180-4) chained over every whole
/// 64-byte block of `data`; returns the final state's first word.
std::uint32_t sha256_chain(const std::vector<std::uint8_t>& data) {
    std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    for (std::size_t off = 0; off + 64 <= data.size(); off += 64) {
        const std::uint8_t* p = data.data() + off;
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = std::uint32_t{p[4 * i]} << 24 | std::uint32_t{p[4 * i + 1]} << 16 |
                   std::uint32_t{p[4 * i + 2]} << 8 | std::uint32_t{p[4 * i + 3]};
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5], g = h[6],
                      k = h[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t t1 = k + (std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25)) +
                                     ((e & f) ^ (~e & g)) + kSha256K[i] + w[i];
            const std::uint32_t t2 = (std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22)) +
                                     ((a & b) ^ (a & c) ^ (b & c));
            k = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        h[0] += a, h[1] += b, h[2] += c, h[3] += d, h[4] += e, h[5] += f, h[6] += g, h[7] += k;
    }
    return h[0];
}

/// Calibration kernel, in wall seconds: SHA-256 compression over a fixed
/// 4 KiB block, the faster of two passes. It is the benchmark's own copy,
/// not the library's crypto::sha256: a faster library must not move the
/// yardstick its speed is scaled by. On the reference host it tracks the
/// host's slow phases in both the run and the constructors far better
/// than a latency-bound integer chain or a memory copy does.
double kernel_s() {
    static const std::vector<std::uint8_t> block = [] {
        std::vector<std::uint8_t> b(4096);
        for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i * 131u);
        return b;
    }();
    static const std::uint32_t expected = sha256_chain(block);

    double best = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const auto t0 = Clock::now();
        const std::uint32_t h = sha256_chain(block);
        const double s = since(t0);
        if (h != expected) throw std::runtime_error("calibration kernel is not deterministic");
        best = pass == 0 ? s : std::min(best, s);
    }
    return best;
}

/// Kernel samples taken alongside the timed work. The shared host speeds
/// up and slows down by tens of percent within seconds; a host time
/// scaled by the kernel time measured alongside it (to what it would be
/// on the reference host) stays put, the raw wall time does not.
class HostPace {
public:
    void sample() {
        Sample s;
        s.start = Clock::now();
        s.kernel_s = kernel_s();
        s.end = Clock::now();
        samples_.push_back(s);
    }
    /// Samples unless the last sample is less than kPaceInterval old.
    void tick() {
        if (samples_.empty() || Clock::now() - samples_.back().end >= kPaceInterval) sample();
    }
    /// Median kernel time of all samples so far.
    double kernel_median_s() const {
        std::vector<double> v;
        for (const Sample& s : samples_) v.push_back(s.kernel_s);
        std::sort(v.begin(), v.end());
        return v.empty() ? kReferenceKernelS : v[v.size() / 2];
    }

    struct Timed {
        double wall_s = 0.0;       ///< as measured
        double reference_s = 0.0;  ///< scaled to the reference host's pace
    };
    /// The wall time in [from, to] outside kernel sampling. Scaled stretch
    /// by stretch: the pace changes within a repetition, so each stretch
    /// up to a sample is scaled by the median of that sample and its two
    /// neighbours.
    Timed measure(Clock::time_point from, Clock::time_point to) const {
        Timed t;
        Clock::time_point cursor = from;
        const auto add = [&](Clock::time_point stop, std::size_t near) {
            if (stop <= cursor) return;
            const double wall = std::chrono::duration<double>(stop - cursor).count();
            t.wall_s += wall;
            t.reference_s += wall * kReferenceKernelS / local_kernel_s(near);
        };
        for (std::size_t i = 0; i < samples_.size() && cursor < to; ++i) {
            add(std::min(samples_[i].start, to), i);
            cursor = std::max(cursor, samples_[i].end);
        }
        if (!samples_.empty()) add(to, samples_.size() - 1);
        return t;
    }

private:
    struct Sample {
        Clock::time_point start, end;
        double kernel_s = 0.0;
    };

    double local_kernel_s(std::size_t i) const {
        std::vector<double> v;
        for (std::size_t j = i == 0 ? 0 : i - 1; j <= i + 1 && j < samples_.size(); ++j) {
            v.push_back(samples_[j].kernel_s);
        }
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    }

    std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// Probe: virtual-clock observations taken while the run proceeds

struct Probe {
    TimePoint warm_at{0};
    bool warm = false;
    std::vector<Duration> busy_at_warm;        ///< flat over shards x nodes
    std::vector<std::uint64_t> bytes_at_warm;  ///< flat over shards x nodes
    /// Fleet: per train, the first probe time each height was seen on
    /// node 0's chain and in the archive index (index = height - 1).
    std::vector<std::vector<TimePoint>> chain_seen;
    std::vector<std::vector<TimePoint>> archive_seen;
    std::optional<TimePoint> rejoined_at;
    HostPace* pace = nullptr;  ///< sampled on every tick when set

    void arm(Rig& rig, const Plan& plan) {
        sim::Simulation& sim = rig.sim();
        sim.schedule_at(TimePoint{plan.consist.warmup.count()}, [this, &rig] { at_warmup(rig); });
        if (rig.fleet) {
            chain_seen.resize(rig.fleet->train_count());
            archive_seen.resize(rig.fleet->train_count());
        }
        sim.schedule(kProbePeriod, [this, &rig, &plan] { tick(rig, plan); });
    }

    void at_warmup(Rig& rig) {
        warm = true;
        warm_at = rig.sim().now();
        for (runtime::TrainShard* shard : rig.shards()) {
            for (std::size_t i = 0; i < shard->node_count(); ++i) {
                runtime::Node& node = shard->node(i);
                // Scenario switches latency recording on itself; Fleet does not.
                node.set_measuring(true);
                busy_at_warm.push_back(node.executor().busy_time());
                bytes_at_warm.push_back(shard->network().stats(i).bytes_sent);
            }
        }
    }

    void tick(Rig& rig, const Plan& plan) {
        if (pace != nullptr) pace->tick();
        const TimePoint now = rig.sim().now();
        if (rig.fleet) {
            for (TrainId t = 0; t < rig.fleet->train_count(); ++t) {
                const Height head = rig.fleet->shard(t).node(0).store().head_height();
                while (chain_seen[t].size() < head) chain_seen[t].push_back(now);
                const auto entry = rig.fleet->index().trains().find(t);
                const Height archived =
                    entry == rig.fleet->index().trains().end() ? 0 : entry->second.head;
                while (archive_seen[t].size() < archived) archive_seen[t].push_back(now);
            }
        }
        if (plan.restart_at && !rejoined_at && now >= TimePoint{plan.restart_at->count()}) {
            runtime::TrainShard& shard = *rig.shards().front();
            Height cluster = 0;
            for (std::size_t i = 1; i < shard.node_count(); ++i) {
                if (shard.node(i).alive()) {
                    cluster = std::max(cluster, shard.node(i).store().head_height());
                }
            }
            if (shard.node(0).alive() && shard.node(0).store().head_height() >= cluster) {
                rejoined_at = now;
            }
        }
        rig.sim().schedule(kProbePeriod, [this, &rig, &plan] { tick(rig, plan); });
    }
};

// ---------------------------------------------------------------------------
// Benchmark spans (Chrome trace_event JSON)

class SpanLog {
public:
    explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)), origin_(Clock::now()) {}

    /// Opens a span under `parent` (-1 = root) and returns its id.
    int open(const char* name, int parent) {
        spans_.push_back(Span{name, parent, micros_now(), -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }
    /// Closes a span; returns its wall seconds.
    double close(int id) {
        Span& s = spans_.at(static_cast<std::size_t>(id));
        s.dur_us = micros_now() - s.start_us;
        return s.dur_us / 1e6;
    }

    std::string chrome_json() const {
        json::Value events = json::Value::array();
        json::Value meta = json::Value::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", 0);
        json::Value label = json::Value::object();
        label.set("name", "zc_bench " + run_id_);
        meta.set("args", std::move(label));
        events.push(std::move(meta));
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            json::Value e = json::Value::object();
            e.set("name", s.name);
            e.set("cat", "bench");
            e.set("ph", "X");
            e.set("ts", s.start_us);
            e.set("dur", std::max(s.dur_us, 0.0));
            e.set("pid", 1);
            e.set("tid", 1);
            json::Value args = json::Value::object();
            args.set("run_id", run_id_);
            args.set("span_id", static_cast<int>(i));
            args.set("parent_id", s.parent);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        json::Value doc = json::Value::object();
        doc.set("displayTimeUnit", "ms");
        doc.set("traceEvents", std::move(events));
        return doc.dump() + "\n";
    }

private:
    struct Span {
        std::string name;
        int parent;
        double start_us;
        double dur_us;
    };

    double micros_now() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    }

    std::string run_id_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Profiler deltas over the timed region

struct ProfTotals {
    std::uint64_t self[prof::kSubsystemCount]{};
    std::uint64_t total[prof::kSubsystemCount]{};
    std::uint64_t count[prof::kSubsystemCount]{};

    static ProfTotals read(const prof::Profiler& p) {
        ProfTotals t;
        for (unsigned i = 0; i < prof::kSubsystemCount; ++i) {
            const auto s = static_cast<prof::Subsystem>(i);
            t.self[i] = p.self_ns(s);
            t.total[i] = p.total_ns(s);
            t.count[i] = p.count(s);
        }
        return t;
    }
};

struct ProfDelta {
    ProfTotals a, b;
    double self_s(prof::Subsystem s) const {
        const auto i = static_cast<unsigned>(s);
        return static_cast<double>(b.self[i] - a.self[i]) / 1e9;
    }
    double total_s(prof::Subsystem s) const {
        const auto i = static_cast<unsigned>(s);
        return static_cast<double>(b.total[i] - a.total[i]) / 1e9;
    }
    double count(prof::Subsystem s) const {
        const auto i = static_cast<unsigned>(s);
        return static_cast<double>(b.count[i] - a.count[i]);
    }
    double covered_s() const {
        double sum = 0.0;
        for (unsigned i = 0; i < prof::kSubsystemCount; ++i) {
            sum += self_s(static_cast<prof::Subsystem>(i));
        }
        return sum;
    }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of the middle 80% of `values` (10% trimmed off each end). Logging
/// latency takes a handful of exact values fixed by the modelled costs, and
/// on some workloads the median sits on the same one for every seed; the
/// trimmed mean follows how the samples spread over them, but not the tail.
double trimmed_mean(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 10;
    double sum = 0.0;
    for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
    return ratio(sum, static_cast<double>(values.size() - 2 * cut));
}

double hist_ms(const trace::MetricsRegistry& reg, const char* name, double q) {
    const trace::Histogram h = reg.merged_histogram(name);
    return h.empty() ? 0.0 : h.percentile(q) / 1e6;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() { return kWorkloads; }

bool is_workload(std::string_view name) {
    return std::any_of(kWorkloads.begin(), kWorkloads.end(),
                       [name](const WorkloadInfo& w) { return name == w.name; });
}

json::Value run_rep(const RepOptions& opt) {
    const Plan plan = make_plan(opt.workload, opt.seed, opt.scale);
    SpanLog spans(opt.workload + "-seed" + std::to_string(opt.seed) +
                  (opt.traced ? "-traced" : "-untraced"));
    const int root = spans.open("rep", -1);

    // Host pace: kernel samples before, during (untraced repetitions, on
    // the probe's ticks) and after the timed region.
    constexpr int kBracketSamples = 16;
    HostPace pace;
    const int calib_span = spans.open("calibrate", root);
    for (int i = 0; i < kBracketSamples; ++i) pace.sample();
    spans.close(calib_span);

    // Tracing: the host profiler (subsystem buckets) and the tracer's
    // per-phase histograms, both from src/. The profiler must be active
    // before construction so the harness attaches it to its simulation.
    std::optional<prof::Profiler> profiler;
    trace::MetricsRegistry registry;
    trace::Tracer tracer(/*capture_events=*/false, &registry);
    if (opt.traced) {
        profiler.emplace();
        prof::Profiler::set_active(&*profiler);
    }

    // Set-up, timed kSetups times back to back; only the last instance
    // runs. Host noise comes in bursts of a few milliseconds that can cover
    // many consecutive constructions, so the fastest one is the estimate.
    double setup_wall_s = 0.0;
    std::unique_ptr<Rig> rig;
    for (int k = 0; k < kSetups; ++k) {
        const bool last = k + 1 == kSetups;
        rig.reset();
        auto fresh = std::make_unique<Rig>();
        const int s = spans.open("setup", root);
        const double wall = build(*fresh, plan, last && opt.traced ? &tracer : nullptr);
        spans.close(s);
        setup_wall_s = k == 0 ? wall : std::min(setup_wall_s, wall);
        rig = std::move(fresh);
    }
    const double setup_s = setup_wall_s * kReferenceKernelS / pace.kernel_median_s();

    Probe probe;
    // Sampling the pace inside a traced run would land in its dispatch bucket.
    if (!opt.traced) probe.pace = &pace;
    if (opt.probe) probe.arm(*rig, plan);
    if (plan.export_at) {
        Rig* r = rig.get();
        rig->sim().schedule_at(TimePoint{plan.export_at->count()},
                               [r] { r->scenario->data_center(0).start_export(); });
    }

    // Timed region: every call after construction that advances or checks
    // the run, less the pace samples taken inside it. sim_rate_wall =
    // virtual seconds / these wall seconds; sim_rate divides by the same
    // seconds scaled to the reference pace.
    std::optional<ProfDelta> pd;
    if (profiler) pd.emplace().a = ProfTotals::read(*profiler);
    const auto timed_from = Clock::now();
    double final_audit_s = 0.0;
    {
        const int s = spans.open("run", root);
        if (rig->scenario) {
            rig->scenario->run();
        } else {
            rig->fleet->run_for(plan.horizon());
        }
        spans.close(s);
    }
    if (plan.drain > Duration::zero()) {
        const int s = spans.open("drain", root);
        rig->scenario->run_for(plan.drain);
        spans.close(s);
    }
    {
        const int s = spans.open("final_audit", root);
        if (rig->scenario) {
            rig->scenario->run_audit();
        } else {
            for (DataCenterId d = 0; d < rig->fleet->dc_count(); ++d) {
                rig->fleet->data_center(d).observe_all();
            }
            rig->fleet->run_audit();
        }
        final_audit_s = spans.close(s);
    }
    if (plan.liveness) {
        const int s = spans.open("liveness_finish", root);
        rig->liveness.finish(rig->sim().now());
        spans.close(s);
    }
    const auto timed_to = Clock::now();
    if (profiler) pd->b = ProfTotals::read(*profiler);
    prof::Profiler::set_active(nullptr);
    {
        const int s = spans.open("calibrate", root);
        for (int i = 0; i < kBracketSamples; ++i) pace.sample();
        spans.close(s);
    }
    const HostPace::Timed timed = pace.measure(timed_from, timed_to);
    const double timed_s = timed.wall_s;

    const int report_span = spans.open("report", root);
    const TimePoint end = rig->sim().now();
    const double virtual_s = to_seconds(end);
    const std::vector<runtime::TrainShard*> shards = rig->shards();

    json::Value gates = json::Value::object();

    // -- lost telegrams: every bus cycle older than the in-flight tail must
    // appear on some chain or in some archive of its train.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (std::size_t t = 0; t < shards.size(); ++t) {
        runtime::TrainShard& shard = *shards[t];
        const std::uint64_t cycles = shard.train_bus().cycles_completed();
        attempted += cycles;
        const std::uint64_t tail =
            static_cast<std::uint64_t>(kInFlightTail / plan.consist.bus_cycle) + 1;
        const std::uint64_t judged = cycles > tail ? cycles - tail : 0;
        std::vector<bool> seen(cycles, false);
        const auto mark = [&seen](const chain::BlockStore& store) {
            for (Height h = store.base_height(); h <= store.head_height(); ++h) {
                const chain::Block* block = store.get(h);
                if (block == nullptr) continue;
                for (const chain::LoggedRequest& r : block->requests) {
                    const std::uint64_t cycle = r.origin_seq & kCycleMask;
                    if ((r.origin_seq >> 48) == 0 && cycle < seen.size()) seen[cycle] = true;
                }
            }
        };
        for (std::size_t i = 0; i < shard.node_count(); ++i) mark(shard.node(i).store());
        for (const chain::BlockStore* archive : rig->archives(static_cast<TrainId>(t))) {
            mark(*archive);
        }
        failed += static_cast<std::uint64_t>(
            std::count(seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(judged), false));
    }
    gates.set("no_lost_telegrams", failed == 0);

    // -- chains: hash links valid on every live node, and every live node
    // agrees on the block at the lowest common head.
    bool chains_valid = true;
    bool prefix_agrees = true;
    for (runtime::TrainShard* shard : shards) {
        Height common = ~Height{0};
        for (std::size_t i = 0; i < shard->node_count(); ++i) {
            runtime::Node& node = shard->node(i);
            if (!node.alive()) continue;
            const chain::BlockStore& store = node.store();
            chains_valid = chains_valid && store.validate(store.base_height(), store.head_height());
            common = std::min(common, store.head_height());
        }
        std::optional<crypto::Digest> ref;
        for (std::size_t i = 0; i < shard->node_count(); ++i) {
            runtime::Node& node = shard->node(i);
            if (!node.alive()) continue;
            const chain::BlockHeader* h = node.store().header(common);
            if (h == nullptr) continue;  // pruned below this node's export base
            if (!ref) {
                ref = h->hash();
            } else if (*ref != h->hash()) {
                prefix_agrees = false;
            }
        }
        if (!ref) prefix_agrees = false;
    }
    gates.set("chains_valid", chains_valid);
    gates.set("chain_prefix_agrees", prefix_agrees);

    std::string state;  // deterministic simulated end state (digested below)
    if (rig->scenario) {
        if (plan.audit) {
            gates.set("audit_clean", rig->auditor.report().clean());
            state += rig->auditor.report().json();
        }
        if (plan.liveness) {
            gates.set("liveness_clean", rig->liveness.report().clean());
            state += rig->liveness.report().json();
        }
        if (plan.export_at) {
            gates.set("export_completed",
                      rig->scenario->data_center(0).stats().exports_completed > 0);
        }
    } else {
        const fleet::FleetReport fr = rig->fleet->report();
        gates.set("audit_clean", fr.audit_violations == 0);
        gates.set("no_cross_shard_collisions", fr.cross_shard_collisions == 0);
        gates.set("no_failed_exports", fr.exports_failed == 0);
        gates.set("alarms_cleared", fr.alarms.total_never_cleared == 0);
        state += fr.json();
    }
    for (std::size_t t = 0; t < shards.size(); ++t) {
        state += "\ntrain " + std::to_string(t) + " cycles " +
                 std::to_string(shards[t]->train_bus().cycles_completed());
        for (std::size_t i = 0; i < shards[t]->node_count(); ++i) {
            runtime::Node& node = shards[t]->node(i);
            const chain::BlockStore& store = node.store();
            state += " | node " + std::to_string(i) + (node.alive() ? " up " : " down ") +
                     std::to_string(store.base_height()) + ".." +
                     std::to_string(store.head_height()) + " " +
                     to_hex(BytesView(store.head_hash().data(), 8));
        }
        for (const chain::BlockStore* archive : rig->archives(static_cast<TrainId>(t))) {
            state += " | archive .." + std::to_string(archive->head_height()) + " " +
                     to_hex(BytesView(archive->head_hash().data(), 8));
        }
    }

    // -- end-to-end virtual metrics --------------------------------------
    json::Value virt = json::Value::object();
    json::Value samples = json::Value::object();
    metrics::Summary latency;
    double outage_s = 0.0;  // the worst train's
    for (runtime::TrainShard* shard : shards) {
        std::vector<double> logged_at;
        for (std::size_t i = 0; i < shard->node_count(); ++i) {
            const runtime::Node& node = shard->node(i);
            latency.merge(node.latency().millis());
            for (const metrics::SeriesPoint& p : node.latency_series().points()) {
                logged_at.push_back(p.t_seconds);
            }
        }
        // Longest stretch after warm-up in which no node of this train
        // logged anything, run end included.
        std::sort(logged_at.begin(), logged_at.end());
        double prev = to_seconds(plan.consist.warmup);
        double longest = 0.0;
        for (const double t : logged_at) {
            longest = std::max(longest, t - prev);
            prev = t;
        }
        outage_s = std::max(outage_s, std::max(longest, virtual_s - prev));
    }
    gates.set("latency_recorded", !latency.empty());
    if (!latency.empty()) {
        std::size_t over = 0;
        for (const double ms : latency.samples()) over += ms > kBudgetMs ? 1 : 0;
        virt.set("log_p50_ms", latency.percentile(0.5));
        virt.set("log_trim_mean_ms", trimmed_mean(latency.samples()));
        virt.set("log_p999_ms", latency.percentile(0.999));
        virt.set("budget_miss_ratio",
                 static_cast<double>(over) / static_cast<double>(latency.count()));
        virt.set("outage_s", outage_s);
    }
    samples.set("log", latency.count());

    if (probe.warm) {
        double busiest = 0.0;
        std::size_t k = 0;
        for (runtime::TrainShard* shard : shards) {
            for (std::size_t i = 0; i < shard->node_count(); ++i, ++k) {
                const double cores = shard->node(i).executor().utilization_since(
                    probe.warm_at, probe.busy_at_warm[k]);
                busiest = std::max(busiest, cores / plan.consist.device_cores * 100.0);
            }
        }
        virt.set("device_cpu_pct", busiest);
    }

    if (rig->fleet && opt.probe) {
        // Time-to-archive per (train, height): first seen in the fleet index
        // minus first seen on node 0. Heights old enough to have been
        // exported twice over but still unarchived count with their age so
        // far (a lower bound), not as missing.
        metrics::Summary lag;
        const TimePoint censor_before = end - 2 * plan.export_period;
        for (std::size_t t = 0; t < probe.chain_seen.size(); ++t) {
            const auto& seen = probe.chain_seen[t];
            const auto& archived = probe.archive_seen[t];
            for (std::size_t h = 0; h < seen.size(); ++h) {
                if (seen[h] < probe.warm_at) continue;
                if (h < archived.size()) {
                    lag.add(std::max(0.0, to_seconds(archived[h] - seen[h])));
                } else if (seen[h] <= censor_before) {
                    lag.add(to_seconds(end - seen[h]));
                }
            }
        }
        gates.set("archive_lag_recorded", !lag.empty());
        if (!lag.empty()) {
            virt.set("archive_lag_p50_s", lag.percentile(0.5));
            virt.set("archive_lag_p99_s", lag.percentile(0.99));
        }
        samples.set("archive", lag.count());
    }

    json::Value host = json::Value::object();
    host.set("host.calib_ms", pace.kernel_median_s() * 1e3);
    host.set("setup_s", setup_s);
    host.set("setup_wall_s", setup_wall_s);
    host.set("timed_s", timed_s);
    host.set("sim_rate", ratio(virtual_s, timed.reference_s));
    host.set("sim_rate_wall", ratio(virtual_s, timed_s));
    host.set("peak_rss_mb", static_cast<double>(prof::peak_rss_bytes()) / 1e6);

    json::Value out = json::Value::object();
    out.set("workload", opt.workload);
    out.set("seed", opt.seed);
    out.set("traced", opt.traced);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("gates", std::move(gates));
    out.set("state_digest", digest_hex(state));
    out.set("report_digest", digest_hex(state + virt.dump()));
    out.set("host", std::move(host));
    out.set("virtual", std::move(virt));
    out.set("samples", std::move(samples));

    if (opt.traced) {
        // -- per-layer metrics (host buckets over the timed region, tracer
        // histograms and component counters over the whole run) ----------
        using prof::Subsystem;
        const ProfDelta& d = *pd;
        const double telegrams = static_cast<double>(attempted);
        json::Value L = json::Value::object();
        const auto layer = [&L](const char* name, const char* unit, double value) {
            json::Value m = json::Value::object();
            m.set("unit", unit);
            m.set("value", value);
            L.set(name, std::move(m));
        };
        layer("sim.events", "count", d.count(Subsystem::kDispatch));
        layer("sim.events_per_telegram", "ratio", ratio(d.count(Subsystem::kDispatch), telegrams));
        layer("sim.event_loop_s", "s", d.self_s(Subsystem::kEventLoop));
        layer("runtime.dispatch_s", "s", d.self_s(Subsystem::kDispatch));
        layer("runtime.dispatch_share_pct", "%",
              ratio(d.self_s(Subsystem::kDispatch), timed_s) * 100.0);

        std::uint64_t st_fetches = 0, st_blocks = 0;
        for (runtime::TrainShard* shard : shards) {
            st_fetches += shard->state_transfer_fetches();
            st_blocks += shard->state_transfer_blocks();
        }
        layer("runtime.state_transfer_fetches", "count", st_fetches);
        layer("runtime.state_transfer_blocks", "count", st_blocks);
        layer("runtime.rejoin_s", "sim_s",
              probe.rejoined_at && plan.restart_at
                  ? to_seconds(*probe.rejoined_at - TimePoint{plan.restart_at->count()})
                  : 0.0);

        layer("crypto.sign_s", "s", d.self_s(Subsystem::kCryptoSign));
        layer("crypto.sign_count", "count", d.count(Subsystem::kCryptoSign));
        layer("crypto.sign_ns_per_op", "ns",
              ratio(d.total_s(Subsystem::kCryptoSign), d.count(Subsystem::kCryptoSign)) * 1e9);
        layer("crypto.verify_s", "s", d.self_s(Subsystem::kCryptoVerify));
        layer("crypto.verify_count", "count", d.count(Subsystem::kCryptoVerify));
        layer("crypto.verifies_per_telegram", "ratio", ratio(d.count(Subsystem::kCryptoVerify), telegrams));

        layer("codec.encode_s", "s", d.self_s(Subsystem::kCodecEncode));
        layer("codec.encode_count", "count", d.count(Subsystem::kCodecEncode));
        layer("codec.encodes_per_telegram", "ratio", ratio(d.count(Subsystem::kCodecEncode), telegrams));
        layer("codec.decode_s", "s", d.self_s(Subsystem::kCodecDecode));
        layer("codec.decode_count", "count", d.count(Subsystem::kCodecDecode));

        layer("chain.append_s", "s", d.self_s(Subsystem::kStoreAppend));
        layer("chain.append_count", "count", d.count(Subsystem::kStoreAppend));
        layer("chain.persist_p50_ms", "sim_ms", hist_ms(registry, "persist_ns", 0.5));
        layer("chain.persist_p99_ms", "sim_ms", hist_ms(registry, "persist_ns", 0.99));

        std::uint64_t audit_passes = 0;
        if (rig->scenario) {
            audit_passes = plan.audit ? rig->auditor.report().audits : 0;
        } else {
            for (TrainId t = 0; t < rig->fleet->train_count(); ++t) {
                if (const faults::SafetyAuditor* a = rig->fleet->auditor(t)) {
                    audit_passes += a->report().audits;
                }
            }
        }
        layer("faults.audit_s", "s", d.self_s(Subsystem::kAudit));
        layer("faults.audit_share_pct", "%", ratio(d.self_s(Subsystem::kAudit), timed_s) * 100.0);
        layer("faults.audit_passes", "count", audit_passes);
        layer("faults.final_audit_s", "s", final_audit_s);

        std::uint64_t ingest_dropped = 0;
        if (rig->fleet) {
            for (DataCenterId dc = 0; dc < rig->fleet->dc_count(); ++dc) {
                ingest_dropped += rig->fleet->data_center(dc).ingest_dropped();
            }
        }
        layer("fleet.dc_ingest_s", "s", d.self_s(Subsystem::kDcIngest));
        layer("fleet.dc_sync_s", "s", d.self_s(Subsystem::kDcSync));
        layer("fleet.ingest_queue_p99_ms", "sim_ms", hist_ms(registry, "dc_ingest_queue_ns", 0.99));
        layer("fleet.ingest_dropped", "count", ingest_dropped);

        metrics::Summary read_ms, verify_ms;
        std::uint64_t rounds = 0, rounds_failed = 0, retries = 0;
        for (const exporter::DataCenter* dc : rig->dc_cores()) {
            rounds += dc->stats().exports_started;
            rounds_failed += dc->stats().exports_failed;
            retries += dc->stats().retries;
            for (const exporter::ExportRecord& r : dc->history()) {
                if (!r.success) continue;
                read_ms.add(to_millis(r.read_time));
                verify_ms.add(to_millis(r.verify_cost));
            }
        }
        layer("export.read_p50_ms", "sim_ms", read_ms.empty() ? 0.0 : read_ms.percentile(0.5));
        layer("export.verify_p50_ms", "sim_ms", verify_ms.empty() ? 0.0 : verify_ms.percentile(0.5));
        layer("export.rounds", "count", rounds);
        layer("export.rounds_failed", "count", rounds_failed);
        layer("export.retries", "count", retries);

        std::uint64_t suspects = 0, rate_limited = 0, dup_decided = 0, received = 0, filtered = 0;
        std::uint64_t view_changes = 0, thrash = 0, bytes = 0, dropped = 0, overflow = 0,
                      rx_dropped = 0;
        double egress = 0.0;
        std::size_t k = 0;
        for (runtime::TrainShard* shard : shards) {
            std::uint64_t train_views = 0;
            for (std::size_t i = 0; i < shard->node_count(); ++i, ++k) {
                runtime::Node& node = shard->node(i);
                if (const zugchain::CommunicationLayer* layer = node.layer()) {
                    suspects += layer->stats().suspects;
                    rate_limited += layer->stats().rate_limited;
                    dup_decided += layer->stats().duplicates_decided;
                    received += layer->stats().received;
                    filtered += layer->stats().filtered_in_log;
                }
                train_views = std::max(train_views, node.replica().stats().new_views_installed);
                thrash += node.replica().stats().timeout_thrash;
                const net::TrafficStats& ns = shard->network().stats(static_cast<NodeId>(i));
                bytes += ns.bytes_sent;
                dropped += ns.messages_dropped;
                overflow += ns.dropped_nic_overflow;
                rx_dropped += node.rx_dropped();
                if (probe.warm) {
                    egress = std::max(egress, shard->network().egress_utilization(
                                                  static_cast<NodeId>(i), probe.warm_at,
                                                  probe.bytes_at_warm[k],
                                                  plan.consist.train_link.bandwidth_bps));
                }
            }
            view_changes += train_views;
        }
        layer("zugchain.layer_wait_p50_ms", "sim_ms", hist_ms(registry, "layer_wait_ns", 0.5));
        layer("zugchain.layer_wait_p99_ms", "sim_ms", hist_ms(registry, "layer_wait_ns", 0.99));
        layer("zugchain.suspects", "count", suspects);
        layer("zugchain.rate_limited", "count", rate_limited);
        layer("zugchain.duplicates_decided", "count", dup_decided);
        layer("zugchain.filtered_ratio", "ratio",
              ratio(static_cast<double>(filtered), static_cast<double>(received)));

        const trace::Histogram batches = registry.merged_histogram("batch_requests");
        layer("pbft.ordering_p50_ms", "sim_ms", hist_ms(registry, "ordering_ns", 0.5));
        layer("pbft.ordering_p99_ms", "sim_ms", hist_ms(registry, "ordering_ns", 0.99));
        layer("pbft.batch_requests_mean", "requests", batches.mean());
        layer("pbft.view_changes", "count", view_changes);
        layer("pbft.view_change_p50_ms", "sim_ms", hist_ms(registry, "view_change_ns", 0.5));
        layer("pbft.timeout_thrash", "count", thrash);

        layer("net.bytes_per_telegram", "B", ratio(static_cast<double>(bytes), telegrams));
        layer("net.egress_util_pct", "%", egress * 100.0);
        layer("net.dropped", "count", dropped);
        layer("net.dropped_overflow", "count", overflow);
        layer("net.rx_dropped", "count", rx_dropped);

        layer("hostpool.wait_s", "s", d.self_s(Subsystem::kPoolWait));
        layer("hostpool.run_s", "s", d.self_s(Subsystem::kPoolRun));
        layer("bench.prof_coverage_pct", "%", ratio(d.covered_s(), timed_s) * 100.0);
        out.set("layers", std::move(L));
    }

    spans.close(report_span);
    spans.close(root);
    if (opt.traced) {
        const std::string path = opt.out_dir + "/e2e_trace_" + opt.workload + ".json";
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        const std::string text = spans.chrome_json();
        f.write(text.data(), static_cast<std::streamsize>(text.size()));
        if (!f) throw std::runtime_error("cannot write " + path);
    }
    return out;
}

}  // namespace zc::e2e
