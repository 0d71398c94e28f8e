// Google-benchmark microbenchmarks of the GEMM kernel layer: the packed
// int8 kernels (tensor/qgemm.hpp) the engines run on, their retained naive
// baselines, and the float kernels behind the reference encoder and the
// measured CPU baseline.
//
// Besides the google-benchmark console/CSV output, main() emits a
// machine-readable bench_results/BENCH_gemm.json (kernel, shape, threads,
// GMAC/s, speedup vs. the naive seed loop) so the perf trajectory can be
// tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/cpu_encoder.hpp"
#include "bench_common.hpp"
#include "ref/weights.hpp"
#include "tensor/ops.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace protea;

tensor::MatrixF random_matrix(size_t r, size_t c, uint64_t seed) {
  tensor::MatrixF m(r, c);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) x = static_cast<float>(rng.uniform(-1, 1));
  return m;
}

tensor::MatrixI8 random_i8(size_t r, size_t c, uint64_t seed) {
  tensor::MatrixI8 m(r, c);
  util::Xoshiro256 rng(seed);
  for (auto& x : m.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulBt(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto a = random_matrix(n, n, 3);
  const auto b = random_matrix(n, n, 4);
  for (auto _ : state) {
    auto c = tensor::matmul_bt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulBt)->Arg(64)->Arg(128);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto a = random_matrix(n, n, 5);
  for (auto _ : state) {
    auto t = tensor::transpose(a);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024);

void BM_QGemmNaive(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto a = random_i8(n, n, 11);
  const auto b = random_i8(n, n, 12);
  tensor::MatrixI32 c;
  for (auto _ : state) {
    tensor::qgemm_naive(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_QGemmNaive)->Arg(256);

void BM_QGemm(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto a = random_i8(n, n, 13);
  const auto b = random_i8(n, n, 14);
  tensor::MatrixI32 c;
  for (auto _ : state) {
    tensor::qgemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_QGemm)->Arg(256)->Arg(512);

void BM_QGemmThreaded(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const auto a = random_i8(n, n, 15);
  const auto b = random_i8(n, n, 16);
  util::ThreadPool pool(threads);
  tensor::MatrixI32 c;
  for (auto _ : state) {
    tensor::qgemm(a, b, c, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
// Real time: the pool's workers do the multiplying, so the main thread's
// CPU time would inflate items_per_second.
BENCHMARK(BM_QGemmThreaded)->Args({512, 2})->Args({512, 4})->UseRealTime();

void BM_SoftmaxRows(benchmark::State& state) {
  auto m = random_matrix(64, 64, 5);
  for (auto _ : state) {
    auto copy = m;
    tensor::softmax_rows_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_LayerNormRows(benchmark::State& state) {
  auto m = random_matrix(64, 768, 6);
  std::vector<float> gamma(768, 1.0f), beta(768, 0.0f);
  for (auto _ : state) {
    auto copy = m;
    tensor::layer_norm_rows_inplace(copy, gamma, beta);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_LayerNormRows);

void BM_CpuEncoderLayer(benchmark::State& state) {
  ref::ModelConfig cfg;
  cfg.seq_len = 32;
  cfg.d_model = 128;
  cfg.num_heads = 4;
  cfg.num_layers = 1;
  const auto weights = ref::make_random_weights(cfg, 7);
  const auto input = ref::make_random_input(cfg, 8);
  baseline::CpuEncoder cpu(weights, 0);
  for (auto _ : state) {
    auto out = cpu.forward(input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CpuEncoderLayer);

// --- BENCH_gemm.json ---------------------------------------------------------

struct JsonResult {
  std::string kernel;
  size_t m, k, n, threads;
  double ms, gmacs;
};

template <typename Fn>
JsonResult time_kernel(const std::string& kernel, size_t m, size_t k,
                       size_t n, size_t threads, int reps, const Fn& fn) {
  fn();  // warm-up
  const double ms = bench::median_time_ms(reps, fn);
  const double gmacs = static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n) / (ms * 1e-3) / 1e9;
  return {kernel, m, k, n, threads, ms, gmacs};
}

void emit_bench_gemm_json() {
  std::vector<JsonResult> results;

  {
    const size_t n = 256;
    const auto a = random_i8(n, n, 21);
    const auto b = random_i8(n, n, 22);
    tensor::MatrixI32 c;
    results.push_back(time_kernel("qgemm_naive", n, n, n, 1, 5,
                                  [&] { tensor::qgemm_naive(a, b, c); }));
    results.push_back(time_kernel("qgemm", n, n, n, 1, 20,
                                  [&] { tensor::qgemm(a, b, c); }));
    results.push_back(time_kernel("qgemm_bt", n, n, n, 1, 20,
                                  [&] { tensor::qgemm_bt(a, b, c); }));
  }
  {
    const size_t n = 512;
    const auto a = random_i8(n, n, 23);
    const auto b = random_i8(n, n, 24);
    tensor::MatrixI32 c;
    results.push_back(time_kernel("qgemm", n, n, n, 1, 5,
                                  [&] { tensor::qgemm(a, b, c); }));
    for (size_t threads : {2, 4}) {
      util::ThreadPool pool(threads);
      results.push_back(time_kernel("qgemm", n, n, n, threads, 5, [&] {
        tensor::qgemm(a, b, c, &pool);
      }));
    }
  }
  // Decode shapes through the allocation-free entry points the runtime
  // uses (caller-owned pack buffer): m < 4 takes the row-direct path,
  // m >= 4 the packed 4x8 path, so these rows track the crossover.
  for (const size_t n : {size_t{256}, size_t{1024}}) {
    const size_t k = 256;
    const auto bt = random_i8(n, k, 27);
    std::vector<int8_t> pack(tensor::qgemm_pack_elems(n));
    for (const size_t m : {1, 2, 3, 4, 16}) {
      const auto a = random_i8(m, k, 28);
      tensor::MatrixI32 c(m, n);
      results.push_back(time_kernel("qgemm_bt_into", m, k, n, 1, 200, [&] {
        tensor::qgemm_bt_into(a, bt, c, pack);
      }));
    }
  }
  {
    const size_t m = 1, k = 1024, n = 256;
    const auto a = random_i8(m, k, 29);
    const auto b = random_i8(k, n, 30);
    std::vector<int8_t> pack(tensor::qgemm_pack_elems(n));
    tensor::MatrixI32 c(m, n);
    results.push_back(time_kernel("qgemm_into", m, k, n, 1, 200, [&] {
      tensor::qgemm_into(a, b, c, pack);
    }));
  }
  {
    const size_t n = 256;
    const auto a = random_matrix(n, n, 25);
    const auto b = random_matrix(n, n, 26);
    results.push_back(time_kernel("sgemm", n, n, n, 1, 10, [&] {
      auto c = tensor::matmul(a, b);
      benchmark::DoNotOptimize(c.data());
    }));
  }

  double naive_256 = 0.0, packed_256 = 0.0;
  for (const auto& r : results) {
    if (r.m != 256 || r.threads != 1) continue;
    if (r.kernel == "qgemm_naive") naive_256 = r.ms;
    if (r.kernel == "qgemm") packed_256 = r.ms;
  }
  const double speedup = packed_256 > 0.0 ? naive_256 / packed_256 : 0.0;

  char buf[128];
  std::vector<protea::bench::BenchRecord> records;
  for (const auto& r : results) {
    std::snprintf(buf, sizeof(buf), "%s_%zux%zux%zu_t%zu",
                  r.kernel.c_str(), r.m, r.k, r.n, r.threads);
    records.push_back({buf, "latency", r.ms, "ms"});
    records.push_back({buf, "throughput", r.gmacs, "GMAC/s"});
  }
  records.push_back(
      {"qgemm_256x256x256_t1_vs_naive", "speedup", speedup, "x"});
  protea::bench::write_bench_records("BENCH_gemm.json", "bench_gemm_micro",
                                     records);
  std::printf("qgemm 256^3 speedup vs naive: %.2fx\n", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_bench_gemm_json();
  return 0;
}
