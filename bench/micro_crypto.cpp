// Microbenchmarks of the cryptographic substrate on the build host
// (google-benchmark). These measure the *real* implementations — the
// protocol experiments charge virtual Cortex-A9 costs instead, so these
// numbers document the host-side cost of running the simulation, and
// validate that the from-scratch crypto is usable.
#include <benchmark/benchmark.h>

#include "micro_util.hpp"

#include "common/rng.hpp"
#include "crypto/detail/sha256_kernel.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

using namespace zc;

namespace {

Bytes make_input(std::size_t n) {
    Rng rng(n + 1);
    return rng.bytes(n);
}

// SHA-256 rows carry the active compression kernel ("sha-ni" or
// "portable") as their label; 8192 B is the consist_bulk telegram size.
void BM_Sha256(benchmark::State& state) {
    const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sha256(input));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
    state.SetLabel(crypto::detail::sha256_kernel_name());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
    const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sha512(input));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
    const Bytes key = make_input(32);
    const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmac_sha256(key, input));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
    state.SetLabel(crypto::detail::sha256_kernel_name());
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(8192);

void BM_Ed25519KeyGen(benchmark::State& state) {
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::ed25519::generate(rng));
    }
}
BENCHMARK(BM_Ed25519KeyGen);

void BM_Ed25519Sign(benchmark::State& state) {
    Rng rng(8);
    const crypto::KeyPair kp = crypto::ed25519::generate(rng);
    const Bytes msg = make_input(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::ed25519::sign(kp, msg));
    }
}
BENCHMARK(BM_Ed25519Sign)->Arg(64)->Arg(1024);

void BM_Ed25519Verify(benchmark::State& state) {
    Rng rng(9);
    const crypto::KeyPair kp = crypto::ed25519::generate(rng);
    const Bytes msg = make_input(static_cast<std::size_t>(state.range(0)));
    const crypto::Signature sig = crypto::ed25519::sign(kp, msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::ed25519::verify(kp.pub, msg, sig));
    }
}
BENCHMARK(BM_Ed25519Verify)->Arg(64)->Arg(1024);

void BM_FastProviderSign(benchmark::State& state) {
    crypto::FastProvider provider;
    Rng rng(10);
    const crypto::KeyPair kp = provider.generate(rng);
    const Bytes msg = make_input(1024);
    for (auto _ : state) {
        benchmark::DoNotOptimize(provider.sign(kp, msg));
    }
}
BENCHMARK(BM_FastProviderSign);

void BM_FastProviderVerify(benchmark::State& state) {
    crypto::FastProvider provider;
    Rng rng(11);
    const crypto::KeyPair kp = provider.generate(rng);
    const Bytes msg = make_input(1024);
    const crypto::Signature sig = provider.sign(kp, msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(provider.verify(kp.pub, msg, sig));
    }
}
BENCHMARK(BM_FastProviderVerify);

}  // namespace

int main(int argc, char** argv) {
    return zc::bench::run_micro_bench("micro_crypto", argc, argv);
}
