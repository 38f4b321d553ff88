// A fixed set of workers sharing the items of one pass: the fleet's
// window loop hands them "run train t to the barrier" for every train,
// and run() returns once every item is done.
//
// The calling thread is worker 0. Worker w first takes the items
// w, w + J, w + 2J, ... and then any item nobody has started yet, so a
// worker whose CPU is slow to wake (or taken away by the host) delays a
// pass by at most the item it is running: the others finish its share.
// Each item runs exactly once per pass, claimed with one atomic
// compare-and-swap. Idle workers block on an atomic wait — they never
// spin — so the work the caller does between passes runs on an
// otherwise idle host.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace zc::fleet {

class WorkerPool {
public:
    /// `workers` >= 1, counting the calling thread (starts workers - 1
    /// threads); every pass covers the items [0, items).
    WorkerPool(unsigned workers, std::uint32_t items);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Runs job(i) once for every item i and waits for all of them. If
    /// items throw, the exception of the lowest such item is rethrown here
    /// once every item is done.
    void run(const std::function<void(std::uint32_t)>& job);

private:
    void loop(unsigned worker);
    /// Runs the unclaimed items of pass `pass`, worker's own share first.
    void take(unsigned worker, std::uint32_t pass);

    std::uint32_t items_;
    unsigned workers_;
    std::atomic<std::uint32_t> pass_{0};  ///< bumped to start a pass (and to stop)
    std::atomic<std::uint32_t> remaining_{0};
    std::atomic<bool> stop_{false};
    /// The pass an item was last claimed for: pass - 1 means unclaimed.
    std::unique_ptr<std::atomic<std::uint32_t>[]> claimed_;
    const std::function<void(std::uint32_t)>* job_ = nullptr;
    std::vector<std::exception_ptr> errors_;
    std::vector<std::thread> threads_;
};

}  // namespace zc::fleet
