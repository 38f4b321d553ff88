// zc_bench: the repository's end-to-end benchmark.
//
// Every repetition of a workload runs in its own child process (a fresh
// heap, its own peak RSS), one at a time, with the host pool off: the load
// is one process on the virtual clock. Host metrics are medians over
// untraced repetitions. Virtual metrics are seed-pure: repetitions of one
// seed, traced or not, must agree byte for byte (the determinism gate); a
// timed run reports their mean over its repetitions' seeds.
//
//   zc_bench --all [--seed S] [--out DIR]
//       5 untraced repetitions per workload, interleaved round-robin, then
//       one traced repetition each. Prints `name workload median q1 q3 n
//       unit` rows, writes DIR/BENCH_e2e.json and DIR/e2e_trace_*.json,
//       exits 1 if any correctness gate fails.
//   zc_bench --workload W --seed S --seconds T --trace 0|1 --benchmark FILE
//       [--out DIR]
//       About T seconds of repetitions of W, each on its own seed S*1000+r,
//       then, as the last line, the metrics FILE (BENCHMARK.json) lists:
//       end_to_end ones untraced, per_layer ones with --trace 1.
//   zc_bench --compare A.json B.json
//       Verdict per workload and metric: better, within-bound, worse or
//       unresolved. Exits 1 on any worse, 2 if A and B ran different seeds.
//   zc_bench --smoke --benchmark FILE [--out DIR]
//       Every workload at 1/20 of its horizon: gates, determinism, a
//       probe-free run with the same simulated state, and every metric
//       FILE lists emitted with its unit.
//   zc_bench --child --workload W --seed S [--scale K] [--traced]
//       [--no-probe] [--out DIR]
//       One repetition in this process; prints its result as one JSON line.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "json.hpp"
#include "report.hpp"
#include "workload.hpp"

extern char** environ;

using namespace zc::e2e;

namespace {

constexpr int kRepeats = 5;     ///< untraced repetitions per workload in --all
constexpr int kMinRepeats = 3;  ///< untraced repetitions per timed run, at least
constexpr int kSmokeScale = 20;
constexpr double kMinCoverage = 95.0;  ///< % of timed wall in profiler buckets

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    int scale = 1;
    bool traced = false;
    bool probe = true;
    std::string benchmark;
    std::string out = ".";
    std::vector<std::string> files;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "zc_bench: %s\n"
                 "usage: zc_bench --all [--seed S] [--out DIR]\n"
                 "       zc_bench --workload W --seed S --seconds T --trace 0|1 "
                 "--benchmark BENCHMARK.json [--out DIR]\n"
                 "       zc_bench --compare A.json B.json\n"
                 "       zc_bench --smoke --benchmark BENCHMARK.json [--out DIR]\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    const auto value = [&](int& i) -> std::string {
        if (i + 1 >= argc) usage((std::string(argv[i]) + " needs a value").c_str());
        return argv[++i];
    };
    const auto number = [&](int& i) -> double {
        const std::string v = value(i);
        char* end = nullptr;
        const double d = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0' || d < 0) usage(("bad number: " + v).c_str());
        return d;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--all" || f == "--smoke" || f == "--child") {
            a.mode = f.substr(2);
        } else if (f == "--compare") {
            a.mode = "compare";
            a.files.push_back(value(i));
            a.files.push_back(value(i));
        } else if (f == "--workload") {
            a.workload = value(i);
            if (a.mode.empty()) a.mode = "timed";
        } else if (f == "--seed") {
            a.seed = static_cast<std::uint64_t>(number(i));
        } else if (f == "--seconds") {
            a.seconds = number(i);
        } else if (f == "--trace") {
            const std::string v = value(i);
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (f == "--scale") {
            a.scale = std::max(1, static_cast<int>(number(i)));
        } else if (f == "--traced") {
            a.traced = true;
        } else if (f == "--no-probe") {
            a.probe = false;
        } else if (f == "--benchmark") {
            a.benchmark = value(i);
        } else if (f == "--out") {
            a.out = value(i);
        } else {
            usage(("unknown flag " + f).c_str());
        }
    }
    if (a.mode.empty()) usage("no mode given");
    if ((a.mode == "timed" || a.mode == "child") && !is_workload(a.workload)) {
        usage(("unknown workload " + a.workload).c_str());
    }
    if ((a.mode == "timed" || a.mode == "smoke") && a.benchmark.empty()) {
        usage("--benchmark BENCHMARK.json is required");
    }
    return a;
}

std::string self_path() {
    std::error_code ec;
    const std::filesystem::path p = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string("/proc/self/exe") : p.string();
}

/// Runs one repetition in a child process and returns its result line.
/// Throws on a crashed child or an unparsable result.
json::Value spawn_rep(const RepOptions& o) {
    static const std::string exe = self_path();
    std::vector<std::string> args = {exe,        "--child", "--workload", o.workload,
                                     "--seed",   std::to_string(o.seed),
                                     "--scale",  std::to_string(o.scale),
                                     "--out",    o.out_dir};
    if (o.traced) args.push_back("--traced");
    if (!o.probe) args.push_back("--no-probe");
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("cannot start " + exe + ": " + std::strerror(rc));
    }
    std::string output;
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof buf)) > 0) output.append(buf, static_cast<std::size_t>(got));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::string what = o.workload + " seed " + std::to_string(o.seed) +
                             (o.traced ? " (traced)" : "");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("repetition " + what + " exited abnormally");
    }
    std::string error;
    std::optional<json::Value> v = json::parse(output, &error);
    if (!v || !v->is_object()) {
        throw std::runtime_error("repetition " + what + " printed no result: " + error);
    }
    return *v;
}

/// The metric lists of BENCHMARK.json.
struct BenchmarkFile {
    std::vector<std::pair<std::string, std::string>> end_to_end;  ///< name, unit
    std::vector<std::pair<std::string, std::string>> per_layer;
    json::Value doc;
};

BenchmarkFile read_benchmark(const std::string& path) {
    std::string error;
    std::optional<json::Value> doc = json::parse_file(path, &error);
    if (!doc) throw std::runtime_error(error);
    BenchmarkFile b;
    for (const char* key : {"end_to_end", "per_layer"}) {
        const json::Value* list = doc->find(key);
        if (list == nullptr) throw std::runtime_error(path + " has no " + key + " list");
        auto& into = std::string_view(key) == "end_to_end" ? b.end_to_end : b.per_layer;
        for (const json::Value& m : list->items()) {
            into.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
        }
    }
    b.doc = std::move(*doc);
    return b;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!f) throw std::runtime_error("cannot write " + path);
}

void report_problems(const std::vector<std::string>& problems) {
    for (const std::string& p : problems) std::fprintf(stderr, "zc_bench: FAIL %s\n", p.c_str());
}

RepOptions rep(const std::string& workload, const Args& a, bool traced, int scale = 1) {
    RepOptions o;
    o.workload = workload;
    o.seed = a.seed;
    o.scale = scale;
    o.traced = traced;
    o.out_dir = a.out;
    return o;
}

int run_child(const Args& a) {
    RepOptions o = rep(a.workload, a, a.traced, a.scale);
    o.probe = a.probe;
    std::printf("%s\n", run_rep(o).dump().c_str());
    return 0;
}

int run_timed(const Args& a) {
    const BenchmarkFile bench = read_benchmark(a.benchmark);
    double rep_seconds = 1.0;
    for (const WorkloadInfo& w : workloads()) {
        if (a.workload == w.name) rep_seconds = w.rep_seconds;
    }
    // Each repetition simulates its own seed, derived from --seed, and the
    // run reports medians over them: more simulated work per run steadies
    // the virtual metrics as well as the host ones. The repetition count
    // follows from --seconds and the workload's nominal repetition time, so
    // the seeds a run covers never depend on how fast the host is.
    const auto derived = [&a](int r) { return a.seed * 1000 + static_cast<std::uint64_t>(r); };
    std::vector<json::Value> untraced, traced;
    if (a.trace) {
        // Pairs of one seed, untraced then traced: the overhead compares
        // like with like and the pair must simulate identical state. A
        // traced repetition takes about 1.4 times as long.
        const int pairs = std::max(1, static_cast<int>(a.seconds / (2.4 * rep_seconds)));
        for (int r = 0; r < pairs; ++r) {
            RepOptions o = rep(a.workload, a, false);
            o.seed = derived(r);
            untraced.push_back(spawn_rep(o));
            o.traced = true;
            traced.push_back(spawn_rep(o));
        }
    } else {
        const int reps =
            std::max(kMinRepeats, static_cast<int>(std::lround(a.seconds / rep_seconds)));
        for (int r = 0; r < reps; ++r) {
            RepOptions o = rep(a.workload, a, false);
            o.seed = derived(r);
            untraced.push_back(spawn_rep(o));
        }
    }

    std::vector<std::string> problems;
    const json::Value summary = summarize(a.workload, untraced, traced, problems);
    print_summary(stdout, summary);

    json::Value metrics = json::Value::object();
    const auto& wanted = a.trace ? bench.per_layer : bench.end_to_end;
    const json::Value& have = *summary.find(a.trace ? "layers" : "metrics");
    for (const auto& [name, unit] : wanted) {
        const json::Value* m = have.find(name);
        if (m == nullptr || m->at("unit").as_string() != unit) {
            problems.push_back(a.workload + ": " + name + " [" + unit + "] not measured");
            continue;
        }
        // Host metrics report the median repetition, robust to bursts of
        // host noise; virtual ones the mean over the run's seeds.
        const char* key = a.trace ? "value" : m->find("mean") != nullptr ? "mean" : "median";
        json::Value entry = json::Value::object();
        entry.set("value", m->at(key).as_number());
        entry.set("unit", unit);
        metrics.set(name, std::move(entry));
    }
    report_problems(problems);

    const bool correct = problems.empty() && summary.at("correct").as_bool();
    json::Value line = json::Value::object();
    line.set("correct", correct);
    line.set("attempted", summary.at("attempted").as_number());
    line.set("failed", summary.at("failed").as_number());
    line.set("metrics", std::move(metrics));
    std::fflush(stdout);
    std::printf("%s\n", line.dump().c_str());
    return correct ? 0 : 1;
}

int run_all(const Args& a) {
    std::map<std::string, std::vector<json::Value>> untraced, traced;
    for (int r = 0; r < kRepeats; ++r) {
        for (const WorkloadInfo& w : workloads()) {
            std::fprintf(stderr, "zc_bench: %s repetition %d/%d\n", w.name, r + 1, kRepeats);
            untraced[w.name].push_back(spawn_rep(rep(w.name, a, false)));
        }
    }
    for (const WorkloadInfo& w : workloads()) {
        std::fprintf(stderr, "zc_bench: %s traced\n", w.name);
        traced[w.name].push_back(spawn_rep(rep(w.name, a, true)));
    }

    std::vector<std::string> problems;
    json::Value doc = json::Value::object();
    doc.set("bench", "e2e");
    doc.set("seed", a.seed);
    doc.set("repeats", kRepeats);
    doc.set("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    json::Value list = json::Value::array();
    for (const WorkloadInfo& w : workloads()) {
        json::Value s = summarize(w.name, untraced[w.name], traced[w.name], problems);
        print_summary(stdout, s);
        list.push(std::move(s));
    }
    doc.set("workloads", std::move(list));
    const std::string path = a.out + "/BENCH_e2e.json";
    write_file(path, doc.dump() + "\n");
    std::printf("wrote %s\n", path.c_str());
    report_problems(problems);
    return problems.empty() ? 0 : 1;
}

int run_smoke(const Args& a) {
    const BenchmarkFile bench = read_benchmark(a.benchmark);
    std::vector<std::string> problems;

    // BENCHMARK.json and the catalogue must agree on what they both define.
    for (const json::Value& w : bench.doc.at("workloads").items()) {
        const std::string& name = w.at("name").as_string();
        bool known = false;
        for (const WorkloadInfo& info : workloads()) {
            if (name == info.name) {
                known = true;
                if (w.at("why").as_string() != info.why) {
                    problems.push_back(name + ": why differs from the workload table");
                }
            }
        }
        if (!known) problems.push_back(name + ": listed workload does not exist");
    }
    for (const json::Value& m : bench.doc.at("end_to_end").items()) {
        const EndToEndDef* def = find_end_to_end(m.at("name").as_string());
        if (def == nullptr || def->bound_absolute ||
            m.at("bound").as_number() != def->bound ||
            m.at("better").as_string() != (def->higher_is_better ? "higher" : "lower")) {
            problems.push_back(m.at("name").as_string() +
                               ": direction or bound differs from the catalogue");
        }
    }

    for (const WorkloadInfo& w : workloads()) {
        std::fprintf(stderr, "zc_bench: smoke %s\n", w.name);
        const json::Value plain = spawn_rep(rep(w.name, a, false, kSmokeScale));
        const json::Value traced = spawn_rep(rep(w.name, a, true, kSmokeScale));
        RepOptions bare = rep(w.name, a, false, kSmokeScale);
        bare.probe = false;
        const json::Value unprobed = spawn_rep(bare);
        if (unprobed.at("state_digest").as_string() != plain.at("state_digest").as_string()) {
            problems.push_back(std::string(w.name) + ": the probe perturbs the simulated state");
        }
        const json::Value s = summarize(w.name, {plain}, {traced}, problems);
        print_summary(stdout, s);
        // The per-layer split is only as good as the share of the timed
        // wall time the profiler's buckets account for.
        if (s.at("layers").at("bench.prof_coverage_pct").at("value").as_number() < kMinCoverage) {
            problems.push_back(std::string(w.name) + ": profiler covers under 95% of the run");
        }
        for (const auto& [list, key] : {std::pair{&bench.end_to_end, "metrics"},
                                        std::pair{&bench.per_layer, "layers"}}) {
            for (const auto& [name, unit] : *list) {
                const json::Value* m = s.at(key).find(name);
                if (m == nullptr || m->at("unit").as_string() != unit) {
                    problems.push_back(std::string(w.name) + ": " + name + " [" + unit +
                                       "] not emitted");
                }
            }
        }
    }
    report_problems(problems);
    std::printf("smoke: %s\n", problems.empty() ? "ok" : "FAILED");
    return problems.empty() ? 0 : 1;
}

int run_compare(const Args& a) {
    std::string error;
    const std::optional<json::Value> base = json::parse_file(a.files[0], &error);
    const std::optional<json::Value> cand =
        base ? json::parse_file(a.files[1], &error) : std::nullopt;
    if (!base || !cand) {
        std::fprintf(stderr, "zc_bench: %s\n", error.c_str());
        return 2;
    }
    // Virtual metrics are held to their tight bound, which is only
    // meaningful between sets of one seed.
    if (base->at("seed").as_number() != cand->at("seed").as_number()) {
        std::fprintf(stderr, "zc_bench: %s and %s were run on different seeds\n",
                     a.files[0].c_str(), a.files[1].c_str());
        return 2;
    }
    const int bad = compare(stdout, *base, *cand);
    std::printf("compare: %d worse\n", bad);
    return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    try {
        if (a.mode == "child") return run_child(a);
        if (a.mode != "compare") std::filesystem::create_directories(a.out);
        if (a.mode == "timed") return run_timed(a);
        if (a.mode == "all") return run_all(a);
        if (a.mode == "smoke") return run_smoke(a);
        return run_compare(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "zc_bench: %s\n", e.what());
        return 1;
    }
}
