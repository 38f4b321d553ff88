#include "zugchain/chain_app.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace zc::zugchain {

ChainApp::ChainApp(chain::BlockStore& store, crypto::CryptoContext& crypto, SeqNo block_interval)
    : store_(store), crypto_(crypto), interval_(block_interval) {
    if (block_interval == 0) throw std::invalid_argument("block_interval must be > 0");
}

namespace {
constexpr std::string_view kTrimMagic = "ZC-TRIM1";
}  // namespace

Bytes ChainApp::make_trim_request(Height up_to) {
    codec::Writer w(16);
    w.str(kTrimMagic);
    w.u64(up_to);
    return w.take();
}

std::optional<Height> ChainApp::parse_trim_request(BytesView payload) {
    // Every logged request is probed, so this must not throw: it accepts
    // exactly what `str(16) == magic, u64(), expect_done()` accepts, a
    // non-minimal length varint included.
    codec::Reader r(payload);
    const auto magic = r.try_bytes_view(16);
    if (!magic || r.remaining() != sizeof(Height) ||
        !std::equal(magic->begin(), magic->end(), kTrimMagic.begin(), kTrimMagic.end())) {
        return std::nullopt;
    }
    return r.u64();
}

void ChainApp::log(const pbft::Request& request, NodeId origin, SeqNo seq) {
    chain::LoggedRequest entry;
    entry.payload = request.payload;
    entry.origin = origin;
    entry.seq = seq;
    entry.origin_seq = request.origin_seq;
    entry.sig = request.sig;
    // A logged trim agreement is executed at the next block boundary so
    // all replicas trim at the same deterministic point; the agreement
    // itself stays on the chain as evidence.
    if (const auto trim = parse_trim_request(entry.payload)) {
        pending_trim_ = pending_trim_ ? std::max(*pending_trim_, *trim) : *trim;
    }
    pending_.push_back(std::move(entry));
}

crypto::Digest ChainApp::state_digest(SeqNo seq) {
    // Deterministic bundling: the block for the window ending at `seq`
    // contains exactly the logged requests of that window, in order. The
    // block timestamp is the sequence number — byte-identical across
    // replicas; real-world times live inside the logged records.
    const Height height = store_.head_height() + 1;
    chain::Block block = chain::Block::build(height, store_.head_hash(),
                                             static_cast<std::int64_t>(seq),
                                             std::move(pending_));
    pending_.clear();

    const std::size_t bytes = block.size_bytes();
    crypto_.charge_hash(bytes);                      // merkle + header hashing
    crypto_.charge(crypto_.costs().block_write(bytes));  // flash persistence
    store_.append(std::move(block));

    if (pending_trim_) {
        // Execute the agreed header-only trim (never touching the block
        // just created). Headers keep the hash chain verifiable.
        const Height up_to = std::min(*pending_trim_, store_.head_height() - 1);
        store_.trim_bodies_to(up_to);
        pending_trim_.reset();
        trims_executed_ += 1;
    }
    return store_.head_hash();
}

void ChainApp::sync_state(SeqNo seq, const crypto::Digest& state) {
    pending_.clear();
    if (fetcher_ && fetcher_(seq, state)) {
        if (store_.head_hash() != state) {
            ZC_WARN("chain-app", "state transfer digest mismatch at seq {}", seq);
        }
        return;
    }
    ZC_WARN("chain-app", "state transfer to seq {} unavailable", seq);
}

}  // namespace zc::zugchain
