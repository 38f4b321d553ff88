// Microbenchmarks of serialization, Merkle trees and block handling
// (google-benchmark, host-side).
#include <benchmark/benchmark.h>

#include "micro_util.hpp"

#include "chain/block.hpp"
#include "chain/merkle.hpp"
#include "common/rng.hpp"
#include "pbft/messages.hpp"
#include "train/generator.hpp"
#include "train/jru_parser.hpp"

using namespace zc;

namespace {

chain::Block make_block(std::size_t requests, std::size_t payload) {
    Rng rng(requests + payload);
    std::vector<chain::LoggedRequest> reqs;
    for (std::size_t i = 0; i < requests; ++i) {
        chain::LoggedRequest r;
        r.payload = rng.bytes(payload);
        r.origin = static_cast<NodeId>(i % 4);
        r.seq = i + 1;
        reqs.push_back(std::move(r));
    }
    return chain::Block::build(1, chain::genesis_parent(), 42, std::move(reqs));
}

void BM_VarintEncode(benchmark::State& state) {
    for (auto _ : state) {
        codec::Writer w(64);
        for (std::uint64_t v = 1; v < (1ull << 60); v <<= 4) w.varint(v);
        benchmark::DoNotOptimize(w.buffer().data());
    }
}
BENCHMARK(BM_VarintEncode);

void BM_RequestEncodeDecode(benchmark::State& state) {
    Rng rng(3);
    pbft::Request r;
    r.payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
    r.origin = 2;
    r.origin_seq = 99;
    for (auto _ : state) {
        const Bytes wire = pbft::encode_message(pbft::Message{r});
        benchmark::DoNotOptimize(pbft::decode_message(wire));
    }
}
BENCHMARK(BM_RequestEncodeDecode)->Arg(64)->Arg(1024)->Arg(8192);

void BM_BlockEncodeDecode(benchmark::State& state) {
    const chain::Block block = make_block(10, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const Bytes wire = codec::encode_to_bytes(block);
        benchmark::DoNotOptimize(codec::decode_from_bytes<chain::Block>(wire));
    }
}
BENCHMARK(BM_BlockEncodeDecode)->Arg(64)->Arg(1024);

void BM_MerkleRoot(benchmark::State& state) {
    Rng rng(5);
    std::vector<crypto::Digest> leaves;
    for (int i = 0; i < state.range(0); ++i) {
        leaves.push_back(chain::merkle_leaf(rng.bytes(32)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain::merkle_root(leaves));
    }
}
BENCHMARK(BM_MerkleRoot)->Arg(10)->Arg(100)->Arg(1000);

void BM_BlockValidate(benchmark::State& state) {
    const chain::Block block = make_block(10, 1024);
    for (auto _ : state) {
        benchmark::DoNotOptimize(block.payload_valid());
    }
}
BENCHMARK(BM_BlockValidate);

void BM_TelegramGenerateParseFilter(benchmark::State& state) {
    train::SignalGenerator gen(static_cast<std::size_t>(state.range(0)), Rng(6));
    train::JruParser parser;
    std::uint64_t cycle = 0;
    TimePoint t{0};
    for (auto _ : state) {
        const Bytes raw = gen.payload_for_cycle(cycle++, t);
        t += milliseconds(64);
        benchmark::DoNotOptimize(parser.process(raw));
    }
}
BENCHMARK(BM_TelegramGenerateParseFilter)->Arg(256)->Arg(1024)->Arg(8192);

}  // namespace

int main(int argc, char** argv) {
    return zc::bench::run_micro_bench("micro_codec", argc, argv);
}
