#include "fleet/worker_pool.hpp"

#include <stdexcept>

namespace zc::fleet {

WorkerPool::WorkerPool(unsigned workers, std::uint32_t items)
    : items_(items), workers_(workers),
      claimed_(std::make_unique<std::atomic<std::uint32_t>[]>(items)), errors_(items) {
    if (workers == 0) throw std::invalid_argument("worker pool needs at least one worker");
    threads_.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) threads_.emplace_back([this, w] { loop(w); });
}

WorkerPool::~WorkerPool() {
    stop_.store(true, std::memory_order_release);
    pass_.fetch_add(1, std::memory_order_release);
    pass_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(const std::function<void(std::uint32_t)>& job) {
    job_ = &job;
    remaining_.store(items_, std::memory_order_relaxed);
    const std::uint32_t pass = pass_.load(std::memory_order_relaxed) + 1;
    pass_.store(pass, std::memory_order_release);
    pass_.notify_all();
    take(0, pass);
    // Wait for the items other workers claimed; the last one to finish
    // wakes us.
    for (std::uint32_t left; (left = remaining_.load(std::memory_order_acquire)) != 0;) {
        remaining_.wait(left, std::memory_order_acquire);
    }
    job_ = nullptr;
    for (std::exception_ptr& e : errors_) {
        if (e) {
            const std::exception_ptr first = e;
            for (std::exception_ptr& x : errors_) x = nullptr;
            std::rethrow_exception(first);
        }
    }
}

void WorkerPool::take(unsigned worker, std::uint32_t pass) {
    const auto attempt = [this, pass](std::uint32_t i) {
        std::uint32_t expected = pass - 1;
        if (!claimed_[i].compare_exchange_strong(expected, pass, std::memory_order_acq_rel)) {
            return;  // started by another worker (or a pass we are too late for)
        }
        try {
            (*job_)(i);
        } catch (...) {
            errors_[i] = std::current_exception();
        }
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining_.notify_one();
    };
    for (std::uint32_t i = worker; i < items_; i += workers_) attempt(i);
    for (std::uint32_t i = 0; i < items_; ++i) attempt(i);
}

void WorkerPool::loop(unsigned worker) {
    std::uint32_t seen = 0;
    for (;;) {
        pass_.wait(seen, std::memory_order_acquire);
        seen = pass_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_acquire)) return;
        take(worker, seen);
    }
}

}  // namespace zc::fleet
