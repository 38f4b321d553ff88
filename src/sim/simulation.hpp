// Deterministic discrete-event simulation engine.
//
// All ZugChain experiments run on virtual time: the bus master, network
// links, CPU model, protocol timers and fault schedules all enqueue events
// here. Two runs with the same seed execute the exact same event sequence,
// which is what makes the reproduction's failure-injection tests and
// benchmarks repeatable.
//
// A multi-train fleet runs several queues in lock-step (fleet::Fleet):
// one per train plus the fleet's own. Every event carries the key
// (time, origin, origin_seq): `origin` names the queue that scheduled it
// and `origin_seq` is that queue's own counter, so the order of a
// queue's events never depends on when another queue's events were
// inserted. A lone queue has origin 0, which keeps the classic
// (time, insertion order) rule exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"

namespace zc::sim {

/// Handle for a scheduled event; used to cancel timers. It is also the
/// event's tie-break key: the scheduling queue's origin in the top
/// kOriginShift bits, that queue's own sequence number below.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class Simulation {
public:
    /// Bits of an EventId below the origin (2^48 events per queue).
    static constexpr unsigned kOriginShift = 48;

    explicit Simulation(std::uint64_t seed = 1);

    /// A lock-step peer queue: its own clock, events and origin (> 0),
    /// drawing randomness from `root`'s stream (so components built on
    /// it fork from the root exactly as they would on `root` itself).
    /// The stream is shared: fork at construction only, because peer
    /// queues may run on different threads.
    Simulation(Simulation& root, std::uint32_t origin);

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Current virtual time.
    TimePoint now() const noexcept { return now_; }

    /// Stable pointer to the virtual clock, for components that need a
    /// time source but hold no simulation reference (trace contexts).
    const TimePoint* now_handle() const noexcept { return &now_; }

    /// Schedules `fn` to run after `delay` (clamped to >= 0). Events with
    /// equal timestamps run in scheduling order.
    EventId schedule(Duration delay, std::function<void()> fn);

    /// Schedules at an absolute virtual time.
    EventId schedule_at(TimePoint when, std::function<void()> fn);

    /// Reserves this queue's next key, for an event that another queue
    /// will hold (a message crossing from this side to theirs).
    EventId next_key() noexcept { return next_key_++; }

    /// Schedules an event another queue keyed with its next_key(). The
    /// key orders it among this queue's events and is its handle here.
    void schedule_keyed(TimePoint when, EventId key, std::function<void()> fn);

    /// Cancels a pending event. Cancelling an already-fired or invalid id
    /// is a no-op (timers race with their own cancellation by design).
    void cancel(EventId id) noexcept;

    /// True if the event is still pending.
    bool pending(EventId id) const noexcept;

    /// Runs the next event; returns false when the queue is empty.
    bool step();

    /// Runs all events with timestamp <= t, then advances the clock to t.
    void run_until(TimePoint t);

    /// run_until without the sim-progress accounting: for a caller that
    /// advances several queues in lock-step and accounts once itself.
    void drain_until(TimePoint t);

    /// Time of the earliest pending event, or nullopt when none is left.
    std::optional<TimePoint> next_time() noexcept;

    /// Runs for a duration from the current time.
    void run_for(Duration d) { run_until(now_ + d); }

    /// Runs until the event queue drains completely.
    void run();

    std::size_t pending_events() const noexcept { return handlers_.size(); }

    /// Root randomness for this simulation; components fork sub-streams.
    Rng& rng() noexcept { return *rng_; }

    /// Attaches a host-cost profiler: handler dispatch is attributed per
    /// event and the run loops feed sim-progress (sim_rate) accounting.
    /// Null (the default) keeps the loop unprofiled — a single branch per
    /// event. The profiler only reads the host clock, so attaching one
    /// never perturbs virtual time.
    void set_profiler(prof::Profiler* prof) noexcept { prof_ = prof; }
    prof::Profiler* profiler() const noexcept { return prof_; }

private:
    struct QueueEntry {
        TimePoint at;
        EventId key;
        bool operator>(const QueueEntry& o) const noexcept {
            if (at != o.at) return at > o.at;
            return key > o.key;
        }
    };

    TimePoint now_{0};
    EventId next_key_ = 1;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
    std::unordered_map<EventId, std::function<void()>> handlers_;
    Rng own_rng_;
    Rng* rng_ = &own_rng_;
    prof::Profiler* prof_ = nullptr;
};

}  // namespace zc::sim
