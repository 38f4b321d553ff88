// One consist's settings, in one place: Node reads its slice (mode,
// membership, timers, batching, its Byzantine knobs and store directory,
// the trace sink and auditor) straight from this config. Parameters no
// caller varies are named constants where they are used (DESIGN.md §16).
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "faults/adversary.hpp"
#include "faults/auditor.hpp"
#include "faults/liveness.hpp"
#include "health/monitor.hpp"
#include "health/timeseries.hpp"
#include "net/network.hpp"
#include "pbft/adaptive.hpp"
#include "runtime/fault_plan.hpp"

namespace zc::runtime {

enum class Mode { kZugChain, kBaseline };

/// Byzantine knobs (all off = honest node). The legacy Fig. 9 fields
/// (fabricate_rate, preprepare_delay, drop_preprepares, duplicate_rate,
/// mute, …) are now the first block of faults::AdversaryConfig; the full
/// safety-attack surface and named profiles live in src/faults.
using ByzantineBehavior = faults::AdversaryConfig;

/// A single consist's configuration. It *is* a FaultPlan (rather than
/// holding one) so the schedules stay plain fields of the config:
/// `cfg.crash_schedule.emplace_back(...)` reads the same in every harness,
/// and the consist's TrainShard drives them from its config copy.
struct ScenarioConfig : FaultPlan {
    Mode mode = Mode::kZugChain;
    std::uint32_t n = 4;
    std::uint32_t f = 1;
    std::uint64_t seed = 1;

    // Workload (paper defaults: 64 ms cycle, block size 10).
    Duration bus_cycle{milliseconds(64)};
    std::size_t payload_size = 1024;
    SeqNo block_size = 10;  ///< requests per block = checkpoint interval

    /// Additional input sources beyond the MVB (paper SIII-C "Multiple
    /// Input Sources"), e.g. a ProfiNet segment: each entry creates
    /// another bus with its own signal generator feeding all nodes.
    struct ExtraBus {
        Duration cycle{milliseconds(128)};
        std::size_t payload_size = 256;
    };
    std::vector<ExtraBus> extra_buses;

    // ZugChain layer timers (paper Fig. 8: 250 ms + 250 ms).
    Duration soft_timeout{milliseconds(250)};
    Duration hard_timeout{milliseconds(250)};
    std::size_t max_open_per_origin = 32;

    /// Adaptive timeouts (pbft/adaptive.hpp): the replica's view-change
    /// timer and the layer's soft/hard suspicion timers track observed
    /// round trips instead of the fixed constants. Off by default here
    /// (library users opt in); zugchain_sim enables it unless
    /// --fixed-timeouts is given.
    pbft::AdaptiveTimeoutConfig adaptive_timeouts;

    // PBFT batch ordering: one three-phase instance per batch. 1 request
    // per batch (and no linger) reproduces the classic pipeline.
    std::uint32_t batch_max_requests = 1;
    Duration batch_linger{0};

    /// "fast" (HMAC simulation signatures) or "ed25519" (real crypto);
    /// virtual CPU costs are identical either way.
    std::string crypto_provider = "fast";

    /// The M-COM is quad-core (paper §V-A); utilization is reported
    /// against all of its cores.
    static constexpr int device_cores = 4;

    /// Mild bus unreliability by default (drops/reorders per [9]); clear
    /// for noise-free microbenchmarks.
    bus::TapFaults default_tap_faults{0.002, 0.001, 0.0005, 0.0005};
    std::map<NodeId, bus::TapFaults> tap_faults;

    std::map<NodeId, ByzantineBehavior> byzantine;

    /// Skips the up-front fault-plan validation (validate_faults in
    /// runtime/fault_plan.hpp) for harnesses that deliberately exceed the
    /// f-crash availability budget, e.g. the crash-investigation example
    /// that kills a majority on purpose.
    bool allow_unsafe_chaos = false;

    // Data centers (0 = no export infrastructure).
    std::uint32_t dc_count = 0;
    std::size_t delete_quorum = 2;  ///< export: DC deletes needed to prune
    Duration export_timeout{seconds(60)};

    // Links.
    net::LinkProfile train_link = net::LinkProfile::train_ethernet();
    net::LinkProfile lte_link = net::LinkProfile::lte();

    Duration warmup{seconds(2)};
    Duration duration{seconds(30)};
    Duration mem_sample_period{milliseconds(100)};

    /// If set, each node persists its chain under store_root/node-<id>
    /// (inspectable offline with tools/zc_inspect).
    std::optional<std::filesystem::path> store_root;

    /// Request-lifecycle trace sink attached to every node and data
    /// center (null = tracing off; every trace point is a single pointer
    /// test). DC events record under trace pid kDcEndpointBase + dc id,
    /// matching the network endpoint numbering.
    trace::TraceSink* trace_sink = nullptr;

    /// Health taps (null = off; zero scheduling cost then). The fleet's
    /// sampling tick snapshots all nodes on the virtual clock every
    /// health::kSampleEveryCycles bus cycles with a monitor, every 16
    /// without one (fleet/fleet.cpp), and feeds the watchdog monitor, the
    /// time-series sink and the liveness judge.
    health::HealthMonitor* health_monitor = nullptr;
    health::TimeSeries* health_timeseries = nullptr;

    /// Safety auditor (null = off). Nodes report bus inputs, logged
    /// payloads and crashes to it (Alg. 1's no-lost-input guarantee), and
    /// the consist marks nodes with Byzantine knobs as compromised; an
    /// audit pass runs every `audit_period` (0 = none; this also paces a
    /// fleet's audit tick), and `run_audit()` does the final one.
    faults::SafetyAuditor* auditor = nullptr;
    Duration audit_period{seconds(5)};

    /// Liveness auditor (null = off), configured by the caller. The fleet
    /// lowers the fault schedule into its dark spans and feeds it the
    /// sampling tick's snapshots; the caller calls finish() after the
    /// run. zugchain_sim --audit-liveness maps a dirty report to exit
    /// code 6.
    faults::LivenessAuditor* liveness = nullptr;
};

}  // namespace zc::runtime
