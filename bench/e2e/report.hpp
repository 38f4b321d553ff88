// End-to-end metric catalogue, aggregation of repetitions, and the comparison verdict.
//
// A workload's summary (one entry of BENCH_e2e.json) is built from its
// untraced repetitions (host metrics: median and quartiles over them;
// virtual metrics: seed-pure, so equal across repetitions of one seed, and
// also their mean over repetitions of distinct seeds) and its
// traced repetitions (per-layer metrics). Every table zc_bench prints and
// every comparison it makes reads these summaries.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "json.hpp"

namespace zc::e2e {

struct EndToEndDef {
    const char* name;
    const char* unit;
    bool higher_is_better;
    /// How much worse a timed run's value may get (the bound BENCHMARK.json
    /// carries; 0 if it does not list the metric): a share of the baseline
    /// median, or (bound_absolute) an amount in the metric's unit. Timed
    /// runs cover different seeds, so a virtual metric's bound spans its
    /// seed-to-seed spread.
    double bound;
    /// The same for --compare, which sets two --all sets of one seed side
    /// by side: there a virtual metric is exact, and a change of more than
    /// this is real. 0 marks an ungated, informational row.
    double compare_bound;
    bool bound_absolute;
    /// Where the value comes from: "host" (per untraced repetition) or
    /// "virtual" (simulated clock; identical across repetitions).
    const char* source;
    /// samples{} key counting the values behind a quantile (null: the
    /// repetition count is the sample count).
    const char* samples;
};

const EndToEndDef* find_end_to_end(std::string_view name);

/// Aggregates one workload's repetitions into its BENCH_e2e.json entry:
/// {name, why, correct, gates{}, attempted, failed, metrics{name: {unit,
/// median, q1, q3, n, values[], mean (virtual only), samples}},
/// layers{name: {unit, value}}}.
/// `samples` (quantile metrics only) is the per-repetition count of
/// values behind the quantile. `problems` receives one line per failed
/// gate.
json::Value summarize(const std::string& workload, const std::vector<json::Value>& untraced,
                      const std::vector<json::Value>& traced, std::vector<std::string>& problems);

/// Prints `name workload median q1 q3 n unit` rows for a summary.
void print_summary(std::FILE* out, const json::Value& summary);

/// Compares two BENCH_e2e.json documents workload by workload; prints one
/// verdict row per gated metric and returns the number of metrics that
/// got worse (or disappeared) plus workloads that fail their gates.
int compare(std::FILE* out, const json::Value& baseline, const json::Value& candidate);

}  // namespace zc::e2e
