#include "prof/prof.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace zc::prof {

namespace {

constexpr const char* kSubsystemNames[kSubsystemCount] = {
    "setup",         // kSetup
    "event_loop",    // kEventLoop
    "dispatch",      // kDispatch
    "crypto_sign",   // kCryptoSign
    "crypto_verify", // kCryptoVerify
    "codec_encode",  // kCodecEncode
    "codec_decode",  // kCodecDecode
    "store_append",  // kStoreAppend
    "store_load",    // kStoreLoad
    "dc_ingest",     // kDcIngest
    "dc_sync",       // kDcSync
    "audit",         // kAudit
    "pool_wait",     // kPoolWait
    "pool_run",      // kPoolRun
};

}  // namespace

const char* subsystem_name(Subsystem s) noexcept {
    return kSubsystemNames[static_cast<unsigned>(s)];
}

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
    return 0;
#endif
}

std::uint64_t Profiler::steady_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Profiler::Profiler(ClockFn clock) : clock_(clock != nullptr ? clock : &steady_ns) {
    born_ = clock_();
}

Profiler::~Profiler() {
    if (g_active == this) g_active = nullptr;
}

void Profiler::begin(Subsystem s) noexcept {
    if (depth_ == kMaxDepth) {
        ++overflow_;
        return;
    }
    stack_[depth_++] = Frame{s, clock_(), 0};
}

void Profiler::end() noexcept {
    if (overflow_ > 0) {
        --overflow_;
        return;
    }
    if (depth_ == 0) return;  // unbalanced end: ignore
    const Frame frame = stack_[--depth_];
    const std::uint64_t now = clock_();
    const std::uint64_t elapsed = now >= frame.start ? now - frame.start : 0;
    Counters& c = by_[static_cast<unsigned>(frame.subsys)];
    c.total_ns += elapsed;
    c.self_ns += elapsed - std::min(elapsed, frame.child_ns);
    c.count += 1;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += elapsed;
}

void Profiler::add_sim_progress(std::int64_t virtual_ns, std::uint64_t wall_ns) noexcept {
    sim_virtual_ns_ += virtual_ns;
    sim_wall_ns_ += wall_ns;
}

std::uint64_t Profiler::total_ns(Subsystem s) const noexcept {
    return by_[static_cast<unsigned>(s)].total_ns;
}

std::uint64_t Profiler::self_ns(Subsystem s) const noexcept {
    return by_[static_cast<unsigned>(s)].self_ns;
}

std::uint64_t Profiler::count(Subsystem s) const noexcept {
    return by_[static_cast<unsigned>(s)].count;
}

double Profiler::sim_rate() const noexcept {
    if (sim_wall_ns_ == 0) return 0.0;
    return static_cast<double>(sim_virtual_ns_) / static_cast<double>(sim_wall_ns_);
}

Profiler::Snapshot Profiler::snapshot() const {
    Snapshot snap;
    snap.wall_s = static_cast<double>(enabled_wall_ns()) / 1e9;
    snap.sim_virtual_s = static_cast<double>(sim_virtual_ns_) / 1e9;
    snap.sim_wall_s = static_cast<double>(sim_wall_ns_) / 1e9;
    snap.sim_rate = sim_rate();
    snap.peak_rss = peak_rss_bytes();
    for (unsigned i = 0; i < kSubsystemCount; ++i) {
        Snapshot::Row& row = snap.rows[i];
        row.name = kSubsystemNames[i];
        row.self_s = static_cast<double>(by_[i].self_ns) / 1e9;
        row.total_s = static_cast<double>(by_[i].total_ns) / 1e9;
        row.count = by_[i].count;
        snap.covered_s += row.self_s;
    }
    return snap;
}

std::string Profiler::Snapshot::json() const {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"sim_rate\":%.3f,\"wall_s\":%.4f,\"sim_virtual_s\":%.4f,"
                  "\"coverage_pct\":%.1f,\"peak_rss_bytes\":%" PRIu64 ",\"subsystems\":{",
                  sim_rate, wall_s, sim_virtual_s,
                  wall_s > 0 ? covered_s / wall_s * 100.0 : 0.0, peak_rss);
    std::string out = buf;
    for (unsigned i = 0; i < kSubsystemCount; ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"self_s\":%.4f,\"total_s\":%.4f,\"count\":%" PRIu64 "}",
                      i == 0 ? "" : ",", rows[i].name, rows[i].self_s, rows[i].total_s,
                      rows[i].count);
        out += buf;
    }
    out += "}}";
    return out;
}

void Profiler::Snapshot::print_table(std::FILE* out, std::size_t top_n) const {
    unsigned order[kSubsystemCount];
    for (unsigned i = 0; i < kSubsystemCount; ++i) order[i] = i;
    std::stable_sort(order, order + kSubsystemCount, [this](unsigned a, unsigned b) {
        return rows[a].self_s > rows[b].self_s;
    });

    std::fprintf(out, "\n-- host profile --\n");
    std::fprintf(out, "sim rate                : %.2fx (%.3f sim-s in %.3f wall-s)\n",
                 sim_rate, sim_virtual_s, sim_wall_s);
    std::fprintf(out, "wall time profiled      : %.3f s (%.1f%% attributed)\n", wall_s,
                 wall_s > 0 ? covered_s / wall_s * 100.0 : 0.0);
    std::fprintf(out, "peak RSS                : %.1f MB\n",
                 static_cast<double>(peak_rss) / 1e6);
    std::fprintf(out, "%-14s %10s %8s %10s %12s\n", "subsystem", "self s", "% wall",
                 "incl s", "count");
    for (std::size_t k = 0; k < std::min<std::size_t>(top_n, kSubsystemCount); ++k) {
        const Row& row = rows[order[k]];
        if (row.count == 0 && row.self_s <= 0.0) continue;
        std::fprintf(out, "%-14s %10.3f %7.1f%% %10.3f %12" PRIu64 "\n", row.name, row.self_s,
                     wall_s > 0 ? row.self_s / wall_s * 100.0 : 0.0, row.total_s, row.count);
    }
}

}  // namespace zc::prof
