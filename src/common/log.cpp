#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace zc {

namespace {

std::atomic<LogLevel> g_threshold{LogLevel::kOff};
std::once_flag g_init_once;

std::atomic<bool> g_hook_installed{false};
// Serialises hook calls (a fleet's trains log from worker threads) and
// guards g_hook against a swap during a call.
std::mutex g_hook_mu;
LogHook g_hook;

LogLevel parse_level(const char* s) {
    const std::string v = s ? s : "";
    if (v == "trace") return LogLevel::kTrace;
    if (v == "debug") return LogLevel::kDebug;
    if (v == "info") return LogLevel::kInfo;
    if (v == "warn") return LogLevel::kWarn;
    if (v == "error") return LogLevel::kError;
    if (v == "off") return LogLevel::kOff;
    return LogLevel::kWarn;
}

const char* level_name(LogLevel level) {
    switch (level) {
        case LogLevel::kTrace: return "TRACE";
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO";
        case LogLevel::kWarn: return "WARN";
        case LogLevel::kError: return "ERROR";
        case LogLevel::kOff: return "OFF";
    }
    return "?";
}

void ensure_init() {
    std::call_once(g_init_once, [] {
        g_threshold.store(parse_level(std::getenv("ZC_LOG")), std::memory_order_relaxed);
    });
}

}  // namespace

void set_log_level(LogLevel level) noexcept {
    ensure_init();
    g_threshold.store(level, std::memory_order_relaxed);
}

void set_log_hook(LogHook hook) {
    const std::lock_guard<std::mutex> lock(g_hook_mu);
    g_hook = std::move(hook);
    g_hook_installed.store(static_cast<bool>(g_hook), std::memory_order_release);
}

namespace log_detail {

LogLevel threshold() noexcept {
    ensure_init();
    return g_threshold.load(std::memory_order_relaxed);
}

void emit(LogLevel level, std::string_view component, std::string_view msg) {
    std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(msg.size()), msg.data());
}

bool hook_installed() noexcept { return g_hook_installed.load(std::memory_order_acquire); }

void notify_hook(LogLevel level, std::string_view component, std::string_view msg) {
    const std::lock_guard<std::mutex> lock(g_hook_mu);
    if (g_hook) g_hook(level, component, msg);
}

}  // namespace log_detail

}  // namespace zc
