#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "workload.hpp"

namespace zc::e2e {

namespace {

// Bounds are the regression a change may show before it is rejected: `bound`
// by the harness that gates timed runs on BENCHMARK.json (0: not listed
// there), `compare_bound` by --compare. Each `bound` is at least three times
// the metric's run-to-run spread across seeds on the reference host
// (README.md has the measured spreads); a virtual metric's `compare_bound`
// is the tight one, since it compares exact values of one seed.
const std::vector<EndToEndDef> kEndToEnd = {
    {"sim_rate", "sim_s/s", true, 0.10, 0.10, false, "host", nullptr},
    {"sim_rate_wall", "sim_s/s", true, 0.0, 0.0, false, "host", nullptr},
    {"setup_s", "s", false, 0.25, 0.25, false, "host", nullptr},
    {"setup_wall_s", "s", false, 0.0, 0.0, false, "host", nullptr},
    {"peak_rss_mb", "MB", false, 0.10, 0.10, false, "host", nullptr},
    {"log_p50_ms", "sim_ms", false, 0.0, 0.01, false, "virtual", "log"},
    {"log_trim_mean_ms", "sim_ms", false, 0.01, 0.01, false, "virtual", "log"},
    {"log_p999_ms", "sim_ms", false, 0.15, 0.01, false, "virtual", "log"},
    {"budget_miss_ratio", "ratio", false, 0.0, 0.001, true, "virtual", "log"},
    {"outage_s", "sim_s", false, 0.0, 0.01, false, "virtual", nullptr},
    {"archive_lag_p50_s", "sim_s", false, 0.0, 0.01, false, "virtual", "archive"},
    {"archive_lag_p99_s", "sim_s", false, 0.0, 0.01, false, "virtual", "archive"},
    {"device_cpu_pct", "%", false, 0.01, 0.01, false, "virtual", nullptr},
    {"host.calib_ms", "ms", false, 0.0, 0.0, false, "host", nullptr},
};

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the exclusive method); a single value is its own quartiles.
struct Quartiles {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> values) {
    Quartiles q;
    if (values.empty()) return q;
    std::sort(values.begin(), values.end());
    const std::size_t ld = values.size();
    if (ld == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    double cut[3];
    const std::size_t m = ld + 1;
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    q.q1 = cut[0];
    q.median = cut[1];
    q.q3 = cut[2];
    return q;
}

json::Value numbers(const std::vector<double>& values) {
    json::Value arr = json::Value::array();
    for (const double v : values) arr.push(v);
    return arr;
}

double median(const std::vector<double>& values) { return quartiles(values).median; }

json::Value metric_entry(const char* unit, const std::vector<double>& values) {
    const Quartiles q = quartiles(values);
    json::Value m = json::Value::object();
    m.set("unit", unit);
    m.set("median", q.median);
    m.set("q1", q.q1);
    m.set("q3", q.q3);
    m.set("n", values.size());
    m.set("values", numbers(values));
    return m;
}

}  // namespace

const EndToEndDef* find_end_to_end(std::string_view name) {
    for (const EndToEndDef& d : kEndToEnd) {
        if (name == d.name) return &d;
    }
    return nullptr;
}

json::Value summarize(const std::string& workload, const std::vector<json::Value>& untraced,
                      const std::vector<json::Value>& traced, std::vector<std::string>& problems) {
    json::Value out = json::Value::object();
    out.set("name", workload);
    for (const WorkloadInfo& w : workloads()) {
        if (workload == w.name) out.set("why", w.why);
    }

    std::vector<const json::Value*> all;
    for (const json::Value& r : untraced) all.push_back(&r);
    for (const json::Value& r : traced) all.push_back(&r);

    // Gates: a gate holds only if it held in every repetition. The
    // determinism gate asks repetitions of one seed, traced or not, to
    // have simulated byte-identical state and virtual metrics.
    json::Value gates = json::Value::object();
    std::map<std::string, bool> held;
    std::vector<std::string> order;
    std::map<double, std::string> digest_of_seed;
    double attempted = 0.0, failed = 0.0;
    bool deterministic = true;
    for (const json::Value* r : all) {
        for (const auto& [name, ok] : r->at("gates").members()) {
            if (!held.contains(name)) {
                held[name] = true;
                order.push_back(name);
            }
            held[name] = held[name] && ok.as_bool();
        }
        attempted += r->at("attempted").as_number();
        failed += r->at("failed").as_number();
        const std::string& digest = r->at("report_digest").as_string();
        const auto [it, first] = digest_of_seed.emplace(r->at("seed").as_number(), digest);
        deterministic = deterministic && (first || it->second == digest);
    }
    held["deterministic"] = deterministic;
    order.push_back("deterministic");
    bool correct = !all.empty();
    for (const std::string& name : order) {
        gates.set(name, held[name]);
        if (!held[name]) {
            correct = false;
            problems.push_back(workload + ": gate " + name + " failed");
        }
    }
    out.set("correct", correct);
    out.set("gates", std::move(gates));
    out.set("attempted", attempted);
    out.set("failed", failed);

    // End-to-end metrics: quartiles over the untraced repetitions. A
    // virtual metric is seed-pure, so repetitions of one seed agree and
    // its spread is the spread across the seeds the repetitions covered.
    json::Value metrics = json::Value::object();
    for (const EndToEndDef& def : kEndToEnd) {
        const std::string_view name = def.name;
        std::vector<double> values;
        std::vector<double> samples;
        for (const json::Value& r : untraced) {
            if (std::string_view(def.source) == "host") {
                values.push_back(r.at("host").at(name).as_number());
            } else if (const json::Value* v = r.at("virtual").find(name)) {
                values.push_back(v->as_number());
                if (def.samples != nullptr) {
                    samples.push_back(r.at("samples").at(def.samples).as_number());
                }
            }
        }
        if (values.empty()) continue;  // not defined on this workload
        json::Value entry = metric_entry(def.unit, values);
        if (std::string_view(def.source) == "virtual") {
            // Over the few distinct seeds of a timed run, the mean estimates
            // the seed average more steadily than the median does (the
            // failover tail: 2% against 4% quartile spread at 8 seeds).
            double sum = 0.0;
            for (const double v : values) sum += v;
            entry.set("mean", sum / static_cast<double>(values.size()));
        }
        if (!samples.empty()) entry.set("samples", median(samples));
        metrics.set(def.name, std::move(entry));
    }
    out.set("metrics", std::move(metrics));

    json::Value layers = json::Value::object();
    if (!traced.empty()) {
        for (const auto& [name, first] : traced.front().at("layers").members()) {
            std::vector<double> values;
            for (const json::Value& r : traced) {
                values.push_back(r.at("layers").at(name).at("value").as_number());
            }
            json::Value entry = json::Value::object();
            entry.set("unit", first.at("unit"));
            entry.set("value", median(values));
            layers.set(name, std::move(entry));
        }
        if (!untraced.empty()) {
            // Tracing cost: the same timed calls with profiler and tracer on.
            std::vector<double> on, off;
            for (const json::Value& r : traced) on.push_back(r.at("host").at("timed_s").as_number());
            for (const json::Value& r : untraced) off.push_back(r.at("host").at("timed_s").as_number());
            json::Value entry = json::Value::object();
            entry.set("unit", "%");
            entry.set("value", (median(on) / median(off) - 1.0) * 100.0);
            layers.set("bench.trace_overhead_pct", std::move(entry));
        }
    }
    out.set("layers", std::move(layers));
    return out;
}

void print_summary(std::FILE* out, const json::Value& summary) {
    const std::string& workload = summary.at("name").as_string();
    for (const auto& [name, m] : summary.at("metrics").members()) {
        const json::Value* samples = m.find("samples");
        std::fprintf(out, "%-20s %-13s %14.6g %14.6g %14.6g %5.0f %-12s", name.c_str(),
                     workload.c_str(), m.at("median").as_number(), m.at("q1").as_number(),
                     m.at("q3").as_number(), m.at("n").as_number(),
                     m.at("unit").as_string().c_str());
        if (samples != nullptr) std::fprintf(out, " samples=%.0f", samples->as_number());
        std::fprintf(out, "\n");
    }
    for (const auto& [name, m] : summary.at("layers").members()) {
        std::fprintf(out, "%-32s %-13s %14.6g %s\n", name.c_str(), workload.c_str(),
                     m.at("value").as_number(), m.at("unit").as_string().c_str());
    }
}

int compare(std::FILE* out, const json::Value& baseline, const json::Value& candidate) {
    int bad = 0;
    std::fprintf(out, "%-20s %-13s %12s %12s %12s %12s %12s %12s  %s\n", "metric", "workload",
                 "A median", "A q1", "A q3", "B median", "B q1", "B q3", "verdict");
    // A workload the baseline measured but the candidate lacks counts as
    // worse, like a missing metric.
    for (const json::Value& wa : baseline.at("workloads").items()) {
        const std::string& name = wa.at("name").as_string();
        bool found = false;
        for (const json::Value& w : candidate.at("workloads").items()) {
            found = found || w.at("name").as_string() == name;
        }
        if (!found) {
            std::fprintf(out, "%-20s %-13s  missing in B: worse\n", "-", name.c_str());
            bad += 1;
        }
    }
    for (const json::Value& wb : candidate.at("workloads").items()) {
        const std::string& name = wb.at("name").as_string();
        const json::Value* wa = nullptr;
        for (const json::Value& w : baseline.at("workloads").items()) {
            if (w.at("name").as_string() == name) wa = &w;
        }
        if (wa == nullptr) {
            std::fprintf(out, "%-20s %-13s  (no baseline)\n", "-", name.c_str());
            continue;
        }
        if (!wb.at("correct").as_bool()) {
            std::fprintf(out, "%-20s %-13s  candidate fails its correctness gates\n", "-",
                         name.c_str());
            bad += 1;
        }
        for (const EndToEndDef& def : kEndToEnd) {
            if (def.compare_bound <= 0.0) continue;  // informational
            const json::Value* ma = wa->at("metrics").find(def.name);
            const json::Value* mb = wb.at("metrics").find(def.name);
            if (ma == nullptr && mb == nullptr) continue;
            if (ma == nullptr || mb == nullptr) {
                std::fprintf(out, "%-20s %-13s  %s\n", def.name, name.c_str(),
                             mb == nullptr ? "missing in B: worse" : "new in B");
                bad += mb == nullptr ? 1 : 0;
                continue;
            }
            const double a = ma->at("median").as_number();
            const double b = mb->at("median").as_number();
            const double allowed =
                def.bound_absolute ? def.compare_bound : def.compare_bound * std::fabs(a);
            const double spread =
                std::max(ma->at("q3").as_number() - ma->at("q1").as_number(),
                         mb->at("q3").as_number() - mb->at("q1").as_number());
            const double worse_by = def.higher_is_better ? a - b : b - a;
            const char* verdict = "within-bound";
            if (spread > allowed) {
                verdict = "unresolved";
            } else if (worse_by > allowed) {
                verdict = "worse";
                bad += 1;
            } else if (-worse_by > allowed) {
                verdict = "better";
            }
            std::fprintf(out, "%-20s %-13s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n",
                         def.name, name.c_str(), a, ma->at("q1").as_number(),
                         ma->at("q3").as_number(), b, mb->at("q1").as_number(),
                         mb->at("q3").as_number(), verdict);
        }
    }
    return bad;
}

}  // namespace zc::e2e
