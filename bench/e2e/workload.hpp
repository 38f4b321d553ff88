// The benchmark's workloads and one measured repetition of a workload.
//
// A repetition builds the workload through the public harness APIs
// (runtime::Scenario or fleet::Fleet), times construction several times,
// runs the virtual horizon under a wall clock, checks the correctness
// gates outside the timed region, and returns every measurement as one
// JSON object. zc_bench runs each repetition in its own child process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json.hpp"

namespace zc::e2e {

struct WorkloadInfo {
    const char* name;
    const char* why;
    /// Wall seconds of one untraced repetition on the reference host. A
    /// fixed figure, not a measurement: it sizes the repetition count of a
    /// timed run, so the seeds a run covers do not depend on host speed.
    double rep_seconds;
};

/// The benchmark's workloads, in report order.
const std::vector<WorkloadInfo>& workloads();
bool is_workload(std::string_view name);

struct RepOptions {
    std::string workload;
    std::uint64_t seed = 1;
    /// Divides the measured horizon (the smoke test runs at 20). Fault and
    /// export times scale with it, so every metric stays defined.
    int scale = 1;
    /// Profiler and tracer on: adds the per-layer metrics and writes the
    /// benchmark's own spans to <out_dir>/e2e_trace_<workload>.json.
    bool traced = false;
    /// Off only to prove that the benchmark's scheduled probe events (and
    /// the latency-recording switch) leave the simulated state untouched.
    bool probe = true;
    std::string out_dir = ".";
};

/// Runs one repetition in this process. Result keys: workload, seed,
/// traced, attempted, failed, gates{name:bool}, state_digest,
/// report_digest, host{...}, virtual{...}, samples{...}, and, when
/// traced, layers{name: {unit, value}}.
json::Value run_rep(const RepOptions& options);

}  // namespace zc::e2e
