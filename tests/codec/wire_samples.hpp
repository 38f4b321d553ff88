// One fixed sample of every wire type, and the byte strings each one
// puts on the wire: its framings (pbft and export transport, the
// PrePrepare container, delete evidence, plain encode_to_bytes), its
// signed bytes, and the digests computed over its encoding. The golden
// test pins these strings; the property test reuses the typed samples.
#pragma once

#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_store.hpp"
#include "export/messages.hpp"
#include "pbft/messages.hpp"
#include "train/signal.hpp"
#include "zugchain/wire.hpp"

namespace zc::wire_samples {

inline crypto::Digest digest_of(std::uint8_t seed) {
    crypto::Digest d{};
    for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<std::uint8_t>(seed + i);
    return d;
}

inline crypto::Signature sig_of(std::uint8_t seed) {
    crypto::Signature s;
    for (std::size_t i = 0; i < s.v.size(); ++i) s.v[i] = static_cast<std::uint8_t>(seed ^ i);
    return s;
}

inline pbft::Request request(std::uint64_t origin_seq = 77) {
    pbft::Request r;
    r.payload = to_bytes("v=1");
    r.origin = 2;
    r.origin_seq = origin_seq;
    r.sig = sig_of(0x10);
    return r;
}

/// Single-request PrePrepare: the legacy layout (transport tag 2,
/// container format byte 1).
inline pbft::PrePrepare preprepare_legacy() {
    pbft::PrePrepare pp;
    pp.view = 3;
    pp.seq = 42;
    pp.req_digest = digest_of(0x20);
    pp.requests = {request()};
    pp.primary = 3;
    pp.sig = sig_of(0x21);
    return pp;
}

/// Two-request PrePrepare: the batched layout (tag 8, format byte 2).
inline pbft::PrePrepare preprepare_batched() {
    pbft::PrePrepare pp;
    pp.view = 4;
    pp.seq = 43;
    pp.req_digest = digest_of(0x22);
    pp.requests = {request(78), request(79)};
    pp.primary = 0;
    pp.sig = sig_of(0x23);
    return pp;
}

inline pbft::Prepare prepare() {
    pbft::Prepare p;
    p.view = 3;
    p.seq = 42;
    p.req_digest = digest_of(0x20);
    p.replica = 1;
    p.sig = sig_of(0x30);
    return p;
}

inline pbft::Commit commit() {
    pbft::Commit c;
    c.view = 3;
    c.seq = 42;
    c.req_digest = digest_of(0x20);
    c.replica = 2;
    c.sig = sig_of(0x31);
    return c;
}

inline pbft::Checkpoint checkpoint(NodeId replica = 2) {
    pbft::Checkpoint c;
    c.seq = 40;
    c.state = digest_of(0x40);
    c.replica = replica;
    c.sig = sig_of(static_cast<std::uint8_t>(0x41 + replica));
    return c;
}

inline pbft::CheckpointProof checkpoint_proof() {
    pbft::CheckpointProof p;
    p.seq = 40;
    p.state = digest_of(0x40);
    p.messages = {checkpoint(0), checkpoint(1)};
    return p;
}

inline pbft::PreparedProof prepared_proof() {
    pbft::PreparedProof p;
    p.preprepare = preprepare_legacy();
    p.prepares = {prepare()};
    return p;
}

inline pbft::ViewChange view_change() {
    pbft::ViewChange vc;
    vc.new_view = 4;
    vc.last_stable = 40;
    vc.stable_proof = checkpoint_proof();
    vc.prepared = {prepared_proof()};
    vc.replica = 1;
    vc.sig = sig_of(0x50);
    return vc;
}

/// Carries a ViewChange without a stable proof and reproposals in both
/// container layouts.
inline pbft::NewView new_view() {
    pbft::ViewChange vc;
    vc.new_view = 4;
    vc.replica = 3;
    vc.sig = sig_of(0x51);
    pbft::NewView nv;
    nv.view = 4;
    nv.view_changes = {vc};
    nv.reproposals = {preprepare_legacy(), preprepare_batched()};
    nv.primary = 0;
    nv.sig = sig_of(0x52);
    return nv;
}

inline chain::LoggedRequest logged_request() {
    chain::LoggedRequest r;
    r.payload = to_bytes("v=1");
    r.origin = 2;
    r.seq = 41;
    r.origin_seq = 77;
    r.sig = sig_of(0x10);
    return r;
}

inline chain::BlockHeader block_header() {
    chain::BlockHeader h;
    h.height = 5;
    h.parent_hash = digest_of(0x60);
    h.timestamp_ns = -1234567890;
    h.payload_root = digest_of(0x61);
    h.request_count = 1;
    return h;
}

inline chain::Block block() {
    chain::Block b;
    b.header = block_header();
    b.requests = {logged_request()};
    return b;
}

inline exporter::ReadRequest read_request() {
    exporter::ReadRequest m;
    m.dc = 1;
    m.last_height = 5;
    m.full_from = 2;
    m.sig = sig_of(0x70);
    return m;
}

inline exporter::ReadReply read_reply() {
    exporter::ReadReply m;
    m.replica = 2;
    m.proof = checkpoint_proof();
    m.blocks = {block()};
    m.sig = sig_of(0x71);
    return m;
}

inline exporter::BlockFetch block_fetch() {
    exporter::BlockFetch m;
    m.dc = 1;
    m.from = 3;
    m.to = 6;
    m.sig = sig_of(0x72);
    return m;
}

inline exporter::BlockFetchReply block_fetch_reply() {
    exporter::BlockFetchReply m;
    m.replica = 3;
    m.blocks = {block()};
    m.sig = sig_of(0x73);
    return m;
}

inline exporter::DcSync dc_sync() {
    exporter::DcSync m;
    m.from = 0;
    m.proof = checkpoint_proof();
    m.blocks = {block()};
    m.sig = sig_of(0x74);
    return m;
}

inline exporter::DcFetch dc_fetch() {
    exporter::DcFetch m;
    m.from_dc = 1;
    m.from = 2;
    m.to = 4;
    m.sig = sig_of(0x75);
    return m;
}

inline exporter::DeleteCmd delete_cmd(DataCenterId dc = 0) {
    exporter::DeleteCmd m;
    m.dc = dc;
    m.height = 7;
    m.block_hash = digest_of(0x76);
    m.sig = sig_of(static_cast<std::uint8_t>(0x77 + dc));
    return m;
}

inline exporter::DeleteAck delete_ack() {
    exporter::DeleteAck m;
    m.replica = 1;
    m.height = 7;
    m.executed = true;
    m.sig = sig_of(0x79);
    return m;
}

inline std::vector<exporter::DeleteCmd> delete_evidence() { return {delete_cmd(0), delete_cmd(1)}; }

inline chain::PruneAnchor prune_anchor() {
    chain::PruneAnchor a;
    a.base_height = 9;
    a.base_hash = digest_of(0x80);
    a.evidence = exporter::encode_delete_evidence(delete_evidence());
    return a;
}

inline std::vector<train::Signal> signals() {
    return {{train::SignalKind::kSpeed, 12000}, {train::SignalKind::kOdometer, -1}};
}

inline train::TelegramContent telegram_content() {
    train::TelegramContent t;
    t.cycle = 100;
    t.timestamp_ns = 6'400'000'000;
    t.signals = signals();
    t.opaque = {1, 2, 3};
    return t;
}

inline train::LogRecord log_record() {
    train::LogRecord r;
    r.cycle = 101;
    r.timestamp_ns = 6'464'000'000;
    r.signals = signals();
    r.opaque = {4, 5};
    return r;
}

inline zugchain::PeerRequest peer_request() { return zugchain::PeerRequest{request(), true}; }

/// One named byte string the program derives from a sample.
struct Vector {
    std::string name;
    Bytes bytes;
};

/// Every byte string the golden test pins, in a fixed order.
inline std::vector<Vector> vectors() {
    using codec::encode_to_bytes;
    std::vector<Vector> out;
    const auto add = [&out](std::string name, Bytes b) {
        out.push_back({std::move(name), std::move(b)});
    };
    const auto pbft_msg = [&add](const std::string& name, pbft::Message m) {
        add(name + ".transport", pbft::encode_message(m));
    };
    const auto export_msg = [&add](const std::string& name, exporter::ExportMessage m) {
        add(name + ".transport", exporter::encode_export_message(m));
    };

    add("Request.signing", request().signing_bytes());
    const crypto::Digest req_id = request().digest();
    add("Request.digest", Bytes(req_id.begin(), req_id.end()));
    pbft_msg("Request", request());
    add("PrePrepare.legacy.signing", preprepare_legacy().signing_bytes());
    pbft_msg("PrePrepare.legacy", preprepare_legacy());
    add("PrePrepare.legacy.container", encode_to_bytes(preprepare_legacy()));
    add("PrePrepare.batched.signing", preprepare_batched().signing_bytes());
    pbft_msg("PrePrepare.batched", preprepare_batched());
    add("PrePrepare.batched.container", encode_to_bytes(preprepare_batched()));
    add("Prepare.signing", prepare().signing_bytes());
    pbft_msg("Prepare", prepare());
    add("Commit.signing", commit().signing_bytes());
    pbft_msg("Commit", commit());
    add("Checkpoint.signing", checkpoint().signing_bytes());
    pbft_msg("Checkpoint", checkpoint());
    add("CheckpointProof.container", encode_to_bytes(checkpoint_proof()));
    add("PreparedProof.container", encode_to_bytes(prepared_proof()));
    add("ViewChange.signing", view_change().signing_bytes());
    pbft_msg("ViewChange", view_change());
    add("NewView.signing", new_view().signing_bytes());
    pbft_msg("NewView", new_view());

    add("ReadRequest.signing", read_request().signing_bytes());
    export_msg("ReadRequest", read_request());
    add("ReadReply.signing", read_reply().signing_bytes());
    export_msg("ReadReply", read_reply());
    add("BlockFetch.signing", block_fetch().signing_bytes());
    export_msg("BlockFetch", block_fetch());
    add("BlockFetchReply.signing", block_fetch_reply().signing_bytes());
    export_msg("BlockFetchReply", block_fetch_reply());
    add("DcSync.signing", dc_sync().signing_bytes());
    export_msg("DcSync", dc_sync());
    add("DcFetch.signing", dc_fetch().signing_bytes());
    export_msg("DcFetch", dc_fetch());
    add("DeleteCmd.signing", delete_cmd().signing_bytes());
    export_msg("DeleteCmd", delete_cmd());
    add("DeleteAck.signing", delete_ack().signing_bytes());
    export_msg("DeleteAck", delete_ack());
    add("DeleteEvidence", exporter::encode_delete_evidence(delete_evidence()));

    add("LoggedRequest", encode_to_bytes(logged_request()));
    const crypto::Digest leaf = logged_request().digest();
    add("LoggedRequest.digest", Bytes(leaf.begin(), leaf.end()));
    add("BlockHeader", encode_to_bytes(block_header()));
    const crypto::Digest id = block_header().hash();
    add("BlockHeader.hash", Bytes(id.begin(), id.end()));
    add("Block", encode_to_bytes(block()));
    add("PruneAnchor", encode_to_bytes(prune_anchor()));
    add("TelegramContent", encode_to_bytes(telegram_content()));
    add("LogRecord", encode_to_bytes(log_record()));
    add("PeerRequest", zugchain::encode_peer_request(peer_request()));
    return out;
}

}  // namespace zc::wire_samples
