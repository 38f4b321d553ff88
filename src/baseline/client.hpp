// Baseline system (paper §V-A "Evaluation Setup"): PBFT with traditional
// client handling. Every node runs a client process next to its replica;
// each client reads the bus and forwards every record to the primary as
// its own authenticated request. Identical bus data is therefore ordered
// up to n times — the overhead ZugChain's communication layer removes.
//
// Clients follow classic PBFT behaviour: send to the primary, retransmit
// to all replicas on timeout (replicas then forward to the primary and
// time it, leading to a view change if it censors).
#pragma once

#include <unordered_map>

#include "crypto/context.hpp"
#include "pbft/messages.hpp"
#include "sim/simulation.hpp"

namespace zc::baseline {

/// Outbound path for client requests; implemented by the node runtime.
class ClientSender {
public:
    virtual ~ClientSender() = default;
    virtual void to_primary(const pbft::Request& request) = 0;
    virtual void to_all(const pbft::Request& request) = 0;
};

/// Classic client retransmission timeout (paper Fig. 8: the baseline's
/// timers are 500 ms).
inline constexpr Duration kRetransmitTimeout = milliseconds(500);

/// A backup receiving a forwarded request suspects the primary after this
/// long (pbft::ReplicaConfig::request_timeout in baseline mode; paper
/// Fig. 8: 500 ms).
inline constexpr Duration kRequestTimeout = milliseconds(500);

/// Retries before giving a request up as lost. Under overload the
/// baseline drops requests (paper §V-B) instead of amplifying the
/// overload with an unbounded retransmit storm.
inline constexpr std::uint32_t kMaxRetransmits = 2;

struct ClientStats {
    std::uint64_t submitted = 0;
    std::uint64_t retransmitted = 0;
    std::uint64_t decided = 0;
    std::uint64_t abandoned = 0;  ///< dropped after kMaxRetransmits
};

class BaselineClient {
public:
    BaselineClient(NodeId id, sim::Simulation& sim, crypto::CryptoContext& crypto,
                   ClientSender& sender);

    /// Cancels pending retransmit timers (teardown safety on crash/restart).
    ~BaselineClient();

    /// Parsed+filtered bus record: sign and submit to the primary.
    void receive(Bytes payload, std::uint64_t uniquifier);

    /// The co-located replica decided a request (any client's).
    void on_decided(const pbft::Request& request);

    /// A view change installed a new primary: re-send pending requests.
    void on_new_primary(NodeId primary);

    std::size_t pending() const noexcept { return pending_.size(); }
    const ClientStats& stats() const noexcept { return stats_; }

private:
    struct Pending {
        pbft::Request request;
        sim::EventId timer = sim::kInvalidEvent;
        std::uint32_t retransmits = 0;
    };

    void arm_timer(const crypto::Digest& digest);
    void on_timeout(const crypto::Digest& digest);

    NodeId id_;
    sim::Simulation& sim_;
    crypto::CryptoContext& crypto_;
    ClientSender& sender_;
    std::unordered_map<crypto::Digest, Pending, crypto::DigestHash> pending_;
    ClientStats stats_;
};

}  // namespace zc::baseline
