// Request-lifecycle tracing across the ZugChain pipeline.
//
// Every request obtains a trace id (the first 8 bytes of its payload
// digest) at the bus tap and accumulates timestamped phase events —
// bus-receive, layer enqueue/filter/propose/broadcast/forward, soft/hard
// timeout, preprepare/prepared/decide, block persist, checkpoint stable,
// view change, export read/verify/delete, prune — recorded against the
// simulation's virtual clock.
//
// Instrumented components hold a `TraceSink*` that is null by default: a
// disabled trace point is a single pointer test (no digest hashing, no
// allocation), so production paths are unaffected. The sim is
// deterministic, so the same seed yields a byte-identical serialized
// trace — which makes the tracer double as a divergence detector for
// refactors.
//
// The concrete `Tracer` sink can (a) capture the full event list and
// serialize it as Chrome `trace_event` JSON (loadable in chrome://tracing
// and Perfetto) and (b) aggregate per-phase latencies into fixed-memory
// histograms in a `MetricsRegistry` (layer wait, ordering, persist,
// end-to-end, view change, export phases).
#pragma once

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "trace/registry.hpp"

namespace zc::trace {

/// 64-bit request/operation identity carried through the pipeline.
using TraceId = std::uint64_t;

/// Trace id from the leading 8 bytes of a 32-byte digest.
inline TraceId trace_id_from(const std::uint8_t* digest_bytes) noexcept {
    TraceId id;
    std::memcpy(&id, digest_bytes, sizeof id);
    return id;
}

enum class Phase : std::uint8_t {
    // bus / node boundary
    kBusReceive,
    // communication layer (Alg. 1)
    kLayerEnqueue,
    kLayerFiltered,
    kLayerPropose,
    kLayerBroadcast,
    kLayerForward,
    kLayerRateLimited,
    kSoftTimeout,
    kHardTimeout,
    kSuspect,
    kDuplicateDecided,
    // PBFT ordering
    kPrePrepare,
    kPrepared,
    kDecide,
    kCheckpointStable,
    kViewChangeStart,
    kNewView,
    // blockchain application / store
    kBlockPersist,
    kPrune,
    kTrimBodies,
    // export protocol
    kExportRead,
    kExportVerify,
    kExportDelete,
    kExportServeRead,
    kExportServeDelete,
    // runtime lifecycle (crash-recovery, link chaos)
    kNodeDown,
    kNodeRestart,
    kStateTransfer,
    kLinkDown,
    kLinkUp,
    // batch ordering (arg = number of requests in the flushed batch)
    kBatchProposed,
    // faults / safety (arg = peer id / violation kind)
    kStateTransferRejected,
    kAuditViolation,
    // fleet data-center plane (emitted only by FleetDataCenter):
    // time an export message waited in the shared ingest executor queue
    // (arg = message bytes) and DC-to-DC sync traffic (arg = body bytes)
    kDcIngestQueue,
    kDcSync,
    // adaptive timeouts (arg = armed timeout in ms / thrash count) and
    // liveness auditing (arg = violation kind)
    kTimeoutAdapt,
    kTimeoutThrash,
    kLivenessViolation,
};

inline constexpr unsigned kPhaseCount = static_cast<unsigned>(Phase::kLivenessViolation) + 1;

const char* phase_name(Phase p) noexcept;

/// Component category a phase belongs to; becomes the trace row (tid).
const char* phase_category(Phase p) noexcept;
unsigned phase_category_index(Phase p) noexcept;

/// Receiver of instrumentation events. Implementations must not throw.
class TraceSink {
public:
    virtual ~TraceSink() = default;

    /// Instant phase event at virtual time `at`.
    virtual void event(NodeId node, TimePoint at, Phase phase, TraceId trace,
                       std::uint64_t arg = 0) = 0;

    /// Completed span: an operation that started at `start` and covered
    /// `dur` of virtual time (export read/verify/delete rounds).
    virtual void span(NodeId node, TimePoint start, Duration dur, Phase phase, TraceId trace,
                      std::uint64_t arg = 0) = 0;
};

/// Bundled sink + identity + clock for components that have no simulation
/// reference of their own (the block store, the export server). The clock
/// pointer aliases the simulation's internal virtual-time counter.
struct TraceContext {
    TraceSink* sink = nullptr;
    NodeId node = 0;
    const TimePoint* now = nullptr;

    explicit operator bool() const noexcept { return sink != nullptr; }

    void event(Phase phase, TraceId trace, std::uint64_t arg = 0) const {
        if (sink != nullptr) sink->event(node, *now, phase, trace, arg);
    }
};

/// Fans instrumentation events out to several sinks (e.g. a Tracer and a
/// health::FlightRecorder sharing the same taps). Null sinks are ignored
/// at add() time, so callers can register optional sinks unconditionally.
class FanOutSink final : public TraceSink {
public:
    void add(TraceSink* sink) {
        if (sink != nullptr) sinks_.push_back(sink);
    }
    std::size_t sink_count() const noexcept { return sinks_.size(); }

    void event(NodeId node, TimePoint at, Phase phase, TraceId trace,
               std::uint64_t arg) override {
        for (TraceSink* s : sinks_) s->event(node, at, phase, trace, arg);
    }
    void span(NodeId node, TimePoint start, Duration dur, Phase phase, TraceId trace,
              std::uint64_t arg) override {
        for (TraceSink* s : sinks_) s->span(node, start, dur, phase, trace, arg);
    }

private:
    std::vector<TraceSink*> sinks_;
};

/// Remaps node ids into a disjoint pid range before forwarding, so several
/// shards sharing one Tracer land in distinct process rows of the merged
/// fleet trace (train t node i -> 1000*t+i; shared DCs keep 100+d).
/// kNoNode (fleet-wide events such as LTE flaps) passes through unchanged.
class OffsetSink final : public TraceSink {
public:
    OffsetSink(TraceSink& inner, NodeId base) noexcept : inner_(inner), base_(base) {}

    void event(NodeId node, TimePoint at, Phase phase, TraceId trace,
               std::uint64_t arg) override {
        inner_.event(map(node), at, phase, trace, arg);
    }
    void span(NodeId node, TimePoint start, Duration dur, Phase phase, TraceId trace,
              std::uint64_t arg) override {
        inner_.span(map(node), start, dur, phase, trace, arg);
    }

private:
    NodeId map(NodeId node) const noexcept { return node == kNoNode ? node : base_ + node; }

    TraceSink& inner_;
    NodeId base_;
};

/// Recording sink: optional full event capture (Chrome JSON export) plus
/// optional per-phase latency aggregation into a MetricsRegistry.
class Tracer final : public TraceSink {
public:
    explicit Tracer(bool capture_events = true, MetricsRegistry* registry = nullptr)
        : capture_(capture_events), registry_(registry) {}

    void event(NodeId node, TimePoint at, Phase phase, TraceId trace,
               std::uint64_t arg) override;
    void span(NodeId node, TimePoint start, Duration dur, Phase phase, TraceId trace,
              std::uint64_t arg) override;

    /// Human-readable label for a pid row in the trace viewer
    /// ("node-0", "dc-1", ...). Optional; unlabeled pids show bare ids.
    void set_process_label(NodeId node, std::string label);

    std::size_t event_count() const noexcept { return events_.size(); }
    MetricsRegistry* registry() const noexcept { return registry_; }

    /// Serializes captured events as Chrome trace_event JSON. Byte-stable
    /// for a given event sequence (same seed -> identical file).
    std::string chrome_json() const;

private:
    struct Record {
        TimePoint at;
        Duration dur;  ///< zero for instants
        TraceId trace;
        std::uint64_t arg;
        NodeId node;
        Phase phase;
        bool is_span;
    };

    /// Pipeline timestamps of one request on one node.
    struct Lifecycle {
        TimePoint receive{-1};
        TimePoint order_start{-1};
    };

    void aggregate(NodeId node, TimePoint at, Phase phase, TraceId trace, std::uint64_t arg);
    static std::uint64_t life_key(NodeId node, TraceId trace) noexcept {
        return (static_cast<std::uint64_t>(node) << 48) ^ trace;
    }

    bool capture_;
    MetricsRegistry* registry_;
    std::vector<Record> events_;
    std::map<NodeId, std::string> process_labels_;

    // aggregation state
    std::unordered_map<std::uint64_t, Lifecycle> lifecycle_;
    std::unordered_map<NodeId, std::vector<TimePoint>> decided_pending_;  ///< decide -> persist
    std::unordered_map<NodeId, TimePoint> vc_start_;
};

}  // namespace zc::trace
