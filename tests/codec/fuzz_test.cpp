// Mutation "fuzzing" of the wire formats: decoders must reject or accept
// — never crash, never read out of bounds — on arbitrarily corrupted
// inputs. This is the property that lets the transport treat malformed
// traffic as Byzantine noise.
#include <gtest/gtest.h>

#include "chain/block.hpp"
#include "common/rng.hpp"
#include "export/messages.hpp"
#include "pbft/messages.hpp"
#include "runtime/wire.hpp"
#include "train/signal.hpp"
#include "zugchain/wire.hpp"

namespace zc {
namespace {

/// Applies `count` random byte/bit mutations.
Bytes mutate(Bytes input, Rng& rng, int count) {
    for (int i = 0; i < count && !input.empty(); ++i) {
        switch (rng.next_below(4)) {
            case 0:  // flip a bit
                input[rng.next_below(input.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.next_below(8));
                break;
            case 1:  // truncate
                input.resize(rng.next_below(input.size()) + 1);
                break;
            case 2:  // duplicate a slice
                input.insert(input.begin() + static_cast<std::ptrdiff_t>(
                                                 rng.next_below(input.size())),
                             input[rng.next_below(input.size())]);
                break;
            case 3:  // overwrite with random byte
                input[rng.next_below(input.size())] = static_cast<std::uint8_t>(rng.next());
                break;
        }
    }
    return input;
}

pbft::Message sample_pbft_message(Rng& rng, int which) {
    switch (which % 4) {
        case 0: {
            pbft::Request r;
            r.payload = rng.bytes(64);
            r.origin = 1;
            r.origin_seq = rng.next();
            return r;
        }
        case 1: {
            pbft::PrePrepare pp;
            pp.view = rng.next_below(10);
            pp.seq = rng.next_below(1000);
            pbft::Request preq;
            preq.payload = rng.bytes(32);
            pp.requests = {preq};
            pp.req_digest = pbft::PrePrepare::batch_digest(pbft::request_digests(pp.requests));
            pp.primary = 0;
            return pp;
        }
        case 2: {
            pbft::Checkpoint c;
            c.seq = rng.next_below(100);
            c.replica = 2;
            return c;
        }
        default: {
            pbft::ViewChange vc;
            vc.new_view = 3;
            vc.replica = 1;
            return vc;
        }
    }
}

TEST(CodecFuzz, PbftDecoderNeverCrashes) {
    Rng rng(9001);
    int accepted = 0;
    for (int round = 0; round < 2000; ++round) {
        const Bytes wire = pbft::encode_message(sample_pbft_message(rng, round));
        const Bytes bad = mutate(wire, rng, 1 + static_cast<int>(rng.next_below(4)));
        if (pbft::decode_message(bad).has_value()) ++accepted;
    }
    // Some single-bit flips land in payload bytes and still decode — that
    // is fine (signatures catch them); what matters is no crash/UB.
    SUCCEED() << accepted << " mutated messages structurally decoded";
}

TEST(CodecFuzz, PbftDecoderOnRandomGarbage) {
    Rng rng(9002);
    for (int round = 0; round < 2000; ++round) {
        const Bytes garbage = rng.bytes(rng.next_below(512));
        (void)pbft::decode_message(garbage);  // must not crash
    }
}

TEST(CodecFuzz, ExportDecoderNeverCrashes) {
    Rng rng(9003);
    exporter::ReadRequest req;
    req.dc = 1;
    req.last_height = 10;
    req.full_from = 2;
    exporter::DeleteCmd del;
    del.dc = 0;
    del.height = 5;
    const Bytes wires[] = {
        exporter::encode_export_message(exporter::ExportMessage{req}),
        exporter::encode_export_message(exporter::ExportMessage{del}),
    };
    for (int round = 0; round < 2000; ++round) {
        const Bytes bad = mutate(wires[rng.next_below(2)], rng, 1 + (round % 5));
        (void)exporter::decode_export_message(bad);
        (void)exporter::decode_export_message(rng.bytes(rng.next_below(256)));
    }
}

TEST(CodecFuzz, BlockDecoderNeverCrashes) {
    Rng rng(9004);
    std::vector<chain::LoggedRequest> reqs(5);
    for (auto& r : reqs) r.payload = rng.bytes(48);
    const chain::Block block = chain::Block::build(1, chain::genesis_parent(), 7, reqs);
    const Bytes wire = codec::encode_to_bytes(block);
    for (int round = 0; round < 2000; ++round) {
        (void)codec::try_decode<chain::Block>(mutate(wire, rng, 1 + (round % 6)));
    }
}

TEST(CodecFuzz, EnvelopeAndLayerDecodersNeverCrash) {
    Rng rng(9005);
    pbft::Request r;
    r.payload = rng.bytes(128);
    r.origin = 3;
    const Bytes peer =
        zugchain::encode_peer_request(zugchain::PeerRequest{r, false});
    const Bytes env = runtime::encode_envelope(runtime::Channel::kLayer, peer);
    for (int round = 0; round < 2000; ++round) {
        (void)runtime::decode_envelope(mutate(env, rng, 1 + (round % 4)));
        (void)zugchain::decode_peer_request(mutate(peer, rng, 1 + (round % 4)));
    }
}

TEST(CodecFuzz, TelegramDecoderNeverCrashes) {
    Rng rng(9006);
    train::TelegramContent content;
    content.cycle = 12;
    content.timestamp_ns = 99;
    content.signals = {{train::SignalKind::kSpeed, 1234}};
    content.opaque = rng.bytes(200);
    const Bytes wire = codec::encode_to_bytes(content);
    for (int round = 0; round < 2000; ++round) {
        (void)codec::try_decode<train::TelegramContent>(mutate(wire, rng, 1 + (round % 8)));
    }
}

TEST(CodecFuzz, MutatedSignedMessagesFailVerification) {
    // Even when a mutation still decodes, the signature must not verify
    // unless the mutation missed every covered byte (impossible for bit
    // flips inside the signed region).
    Rng rng(9007);
    crypto::FastProvider provider;
    const crypto::KeyPair kp = provider.generate(rng);
    crypto::KeyDirectory dir;
    dir.register_key(7, kp.pub);

    pbft::Request r;
    r.payload = rng.bytes(64);
    r.origin = 7;
    r.origin_seq = 1;
    r.sig = provider.sign(kp, r.signing_bytes());
    const Bytes wire = pbft::encode_message(pbft::Message{r});

    for (int round = 0; round < 500; ++round) {
        Bytes bad = wire;
        // Flip exactly one payload bit (inside the signed region).
        bad[2 + rng.next_below(64)] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        const auto m = pbft::decode_message(bad);
        if (!m) continue;
        const auto* decoded = std::get_if<pbft::Request>(&*m);
        if (decoded == nullptr) continue;
        EXPECT_FALSE(provider.verify(kp.pub, decoded->signing_bytes(), decoded->sig));
    }
}

}  // namespace
}  // namespace zc
