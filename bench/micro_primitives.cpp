// google-benchmark micro-benchmarks for the substrate primitives the
// simulation hot path and the mix network rely on.
#include <benchmark/benchmark.h>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/paths.hpp"
#include "overlay/cache.hpp"
#include "overlay/sampler.hpp"
#include "privacylink/onion.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ppo;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniformBounded(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_u64(1000));
}
BENCHMARK(BM_RngUniformBounded);

void BM_FlatMapFind(benchmark::State& state) {
  FlatMap64 map(400);
  Rng rng(2);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back(rng.next_u64());
    map.insert(keys.back(), static_cast<std::uint32_t>(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i++ & 255]));
  }
}
BENCHMARK(BM_FlatMapFind);

void BM_FlatMapInsertErase(benchmark::State& state) {
  FlatMap64 map(512);
  Rng rng(3);
  for (auto _ : state) {
    const std::uint64_t k = rng.next_u64();
    map.insert(k, 1);
    map.erase(k);
  }
}
BENCHMARK(BM_FlatMapInsertErase);

void BM_GraphBfs(benchmark::State& state) {
  Rng rng(4);
  const graph::Graph g =
      graph::erdos_renyi_gnm(1000, 25'000, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
}
BENCHMARK(BM_GraphBfs);

void BM_ConnectedComponents(benchmark::State& state) {
  Rng rng(5);
  const graph::Graph g = graph::erdos_renyi_gnm(1000, 25'000, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::connected_components(g).largest_size());
}
BENCHMARK(BM_ConnectedComponents);

void BM_SamplerOfferBatch(benchmark::State& state) {
  Rng rng(6);
  overlay::SlotSampler sampler(45, 64, rng);
  std::vector<overlay::PseudonymRecord> batch;
  for (int i = 0; i < 40; ++i)
    batch.push_back({rng.next_u64(), 1000.0});
  for (auto _ : state) {
    for (const auto& r : batch) sampler.offer(r, 1.0);
    benchmark::DoNotOptimize(sampler.live_slots(1.0));
  }
}
BENCHMARK(BM_SamplerOfferBatch);

void BM_CacheMergeBatch(benchmark::State& state) {
  Rng rng(7);
  overlay::PseudonymCache cache(400);
  std::vector<overlay::PseudonymRecord> fill;
  for (int i = 0; i < 400; ++i) fill.push_back({rng.next_u64(), 1000.0});
  cache.merge(fill, 0, {}, 0.0, rng);
  for (auto _ : state) {
    std::vector<overlay::PseudonymRecord> batch;
    for (int i = 0; i < 40; ++i) batch.push_back({rng.next_u64(), 1000.0});
    const auto sent = cache.select_random(39, 0.0, rng);
    cache.merge(batch, 0, sent, 0.0, rng);
  }
}
BENCHMARK(BM_CacheMergeBatch);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(8);
  std::uint64_t seq = 0;
  for (int i = 0; i < 1000; ++i)
    queue.push({.time = rng.uniform_double(0.0, 1e7), .seq = seq++});
  sim::Time now = 0.0;
  for (auto _ : state) {
    queue.push({.time = now + rng.uniform_double(0.0, 10.0), .seq = seq++});
    now = queue.pop().time;
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_Sha256(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::sha256(crypto::BytesView(data.data(), data.size())));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(65536);

void BM_ChaCha20(benchmark::State& state) {
  const crypto::ChaChaKey key{};
  const crypto::ChaChaNonce nonce{};
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::chacha20_xor(
        key, nonce, 0, crypto::BytesView(data.data(), data.size())));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(1024)->Arg(65536);

void BM_Poly1305(benchmark::State& state) {
  crypto::PolyKey key{};
  key[0] = 1;
  const crypto::Bytes data(4096, 0x33);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::poly1305(key, crypto::BytesView(data.data(), data.size())));
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Poly1305);

void BM_AeadSealOpen(benchmark::State& state) {
  const crypto::ChaChaKey key{};
  const crypto::ChaChaNonce nonce{};
  const crypto::Bytes data(1024, 0x11);
  for (auto _ : state) {
    const auto sealed = crypto::aead_seal(
        key, nonce, {}, crypto::BytesView(data.data(), data.size()));
    benchmark::DoNotOptimize(crypto::aead_open(
        key, nonce, {}, crypto::BytesView(sealed.data(), sealed.size())));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AeadSealOpen);

void BM_X25519(benchmark::State& state) {
  crypto::X25519Key scalar{}, point{};
  scalar.fill(0x77);
  point[0] = 9;
  for (auto _ : state) {
    const auto out = crypto::x25519(scalar, point);
    benchmark::DoNotOptimize(out);
    scalar[0] = out[0];  // chain to defeat caching
  }
}
BENCHMARK(BM_X25519);

void BM_OnionWrapUnwrap3(benchmark::State& state) {
  Rng rng(9);
  std::vector<crypto::X25519KeyPair> relays;
  for (int i = 0; i < 3; ++i) {
    crypto::X25519Key seed{};
    seed.fill(static_cast<std::uint8_t>(i + 1));
    relays.push_back(crypto::x25519_keypair(seed));
  }
  const crypto::Bytes payload(256, 0x55);
  const std::vector<privacylink::HopSpec> hops = {
      {1, relays[0].public_key},
      {2, relays[1].public_key},
      {privacylink::kFinalHop, relays[2].public_key}};
  for (auto _ : state) {
    auto wrapped = privacylink::onion_wrap(
        hops, crypto::BytesView(payload.data(), payload.size()), rng);
    for (int i = 0; i < 3; ++i) {
      auto layer = privacylink::onion_unwrap(
          relays[static_cast<std::size_t>(i)].private_key,
          crypto::BytesView(wrapped.data(), wrapped.size()));
      wrapped = std::move(layer->inner);
    }
    benchmark::DoNotOptimize(wrapped);
  }
}
BENCHMARK(BM_OnionWrapUnwrap3);

}  // namespace

BENCHMARK_MAIN();
