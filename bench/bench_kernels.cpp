// Kernel microbenchmarks: the primitives whose sustained rates feed the
// netsim platform calibration — 3-D FFTs (single and batched), zgemm,
// exchange pair evaluation at every batch size, ACE application and the
// density builders. The google-benchmark section is optional
// (PTIM_HAVE_BENCHMARK; CI images lack the library): the plain-chrono
// comparisons below always build — per-pair vs batched exchange, FP64 vs
// FP32 and the batched c2c engine per SIMD ISA — and the last records
// FFT-count-gated rows to BENCH_kernels.json.

#ifdef PTIM_HAVE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"
#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "ham/ace.hpp"
#include "ham/density.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "pw/transforms.hpp"
#include "pw/wavefunction.hpp"

using namespace ptim;

namespace {

la::MatC random_mat(size_t r, size_t c, unsigned seed) {
  Rng rng(seed);
  la::MatC m(r, c);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_cplx();
  return m;
}

struct XBench {
  grid::Lattice lattice = grid::Lattice::cubic(8.0);
  grid::GSphere sphere{lattice, 3.0};
  grid::FftGrid wfc{lattice, sphere.suggest_dims(1)};
  grid::FftGrid den{lattice, sphere.suggest_dims(2)};
  pw::SphereGridMap map{sphere, wfc};
  pw::SphereGridMap dmap{sphere, den};
  ham::ExchangeOperator xop{map, {}};
};

XBench& xbench() {
  static XBench* x = new XBench();
  return *x;
}

}  // namespace

#ifdef PTIM_HAVE_BENCHMARK

static void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  fft::Fft3 f(n, n, n);
  std::vector<cplx> data(f.size());
  Rng rng(1);
  for (auto& v : data) v = rng.uniform_cplx();
  for (auto _ : state) {
    f.forward(data.data());
    f.inverse(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  const double ng = static_cast<double>(f.size());
  state.counters["MFLOP/s"] = benchmark::Counter(
      2.0 * 5.0 * ng * std::log2(ng) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(24)->Arg(32);

static void BM_Fft3DBatch(benchmark::State& state) {
  const size_t n = 20;
  const auto nbatch = static_cast<size_t>(state.range(0));
  fft::Fft3 f(n, n, n);
  std::vector<cplx> data(f.size() * nbatch);
  Rng rng(1);
  for (auto& v : data) v = rng.uniform_cplx();
  for (auto _ : state) {
    f.forward_batch(data.data(), nbatch);
    f.inverse_batch(data.data(), nbatch);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["transforms/s"] = benchmark::Counter(
      2.0 * static_cast<double>(nbatch), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3DBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// FP32 twin of the batched 3-D transform: same boxes, half the bytes per
// element — the expected win on this bandwidth-bound kernel.
static void BM_Fft3DBatchF32(benchmark::State& state) {
  const size_t n = 20;
  const auto nbatch = static_cast<size_t>(state.range(0));
  fft::Fft3f f(n, n, n);
  std::vector<cplxf> data(f.size() * nbatch);
  Rng rng(1);
  for (auto& v : data) v = static_cast<cplxf>(rng.uniform_cplx());
  for (auto _ : state) {
    f.forward_batch(data.data(), nbatch);
    f.inverse_batch(data.data(), nbatch);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["transforms/s"] = benchmark::Counter(
      2.0 * static_cast<double>(nbatch), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3DBatchF32)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

static void BM_GemmCN(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const la::MatC a = random_mat(4096, n, 2);
  const la::MatC b = random_mat(4096, n, 3);
  la::MatC c(n, n);
  for (auto _ : state) {
    la::gemm_cn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["MFLOP/s"] = benchmark::Counter(
      8.0 * 4096.0 * static_cast<double>(n * n) * 1e-6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmCN)->Arg(8)->Arg(16)->Arg(32);

static void BM_ExchangePair(benchmark::State& state) {
  auto& x = xbench();
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, 1, 4);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, 1);
  const std::vector<real_t> d{1.0};
  for (auto _ : state) {
    x.xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["pairs/s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangePair);

static void BM_ExchangeApplyN(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 5);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  for (auto _ : state) {
    x.xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangeApplyN)->Arg(2)->Arg(4)->Arg(8);

// Same problem (8 sources x 8 targets), swept over the exchange batch
// size. Arg(1) is the per-pair ablation baseline; the per-batch-size FFT
// counts and wall times land in the google-benchmark JSON via counters.
static void BM_ExchangeBatchSize(benchmark::State& state) {
  auto& x = xbench();
  const auto bs = static_cast<size_t>(state.range(0));
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 8);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  ham::ExchangeOptions opt;
  opt.batch_size = bs;
  ham::ExchangeOperator xop(x.map, opt);
  xop.fft_count = 0;
  for (auto _ : state) {
    xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ffts_per_apply"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb));
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangeBatchSize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Batched exchange apply swept over the precision policy on one fixed 8x8
// problem: arg 0/1 = kDouble/kSingle.
static void BM_ExchangePrecision(benchmark::State& state) {
  auto& x = xbench();
  const auto p = static_cast<Precision>(state.range(0));
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 10);
  pw::orthonormalize_lowdin(src);
  la::MatC out(npw, nb);
  const std::vector<real_t> d(nb, 0.5);
  ham::ExchangeOptions opt;
  opt.precision = p;
  ham::ExchangeOperator xop(x.map, opt);
  for (auto _ : state) {
    xop.apply_diag(src, d, src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(precision_name(p));
  state.counters["pairFFTs/s"] = benchmark::Counter(
      static_cast<double>(2 * nb * nb), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExchangePrecision)->Arg(0)->Arg(1);

static void BM_AceApply(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 6);
  pw::orthonormalize_lowdin(src);
  la::MatC w(npw, nb);
  x.xop.apply_diag(src, std::vector<real_t>(nb, 0.5), src, w);
  const auto ace = ham::AceOperator::build(src, w);
  la::MatC out(npw, nb);
  for (auto _ : state) {
    ace.apply(src, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AceApply)->Arg(4)->Arg(8);

static void BM_DensitySigma(benchmark::State& state) {
  auto& x = xbench();
  const auto nb = static_cast<size_t>(state.range(0));
  const size_t npw = x.sphere.npw();
  la::MatC phi = random_mat(npw, nb, 7);
  pw::orthonormalize_lowdin(phi);
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = 0.5;
  for (auto _ : state) {
    auto rho = ham::density_sigma(phi, sigma, x.dmap);
    benchmark::DoNotOptimize(rho.data());
  }
}
BENCHMARK(BM_DensitySigma)->Arg(4)->Arg(8);

#endif  // PTIM_HAVE_BENCHMARK

namespace {

// Head-to-head acceptance check: per-pair (batch_size = 1) vs batched
// exchange on the same 8x8 problem — printed, and recorded per batch size
// to bench_exchange_batch.json for the perf trajectory.
void exchange_batch_comparison() {
  auto& x = xbench();
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 9);
  pw::orthonormalize_lowdin(src);
  const std::vector<real_t> d(nb, 0.5);

  struct Row {
    size_t batch;
    double seconds;
    long ffts;
    double max_abs_diff;
  };
  std::vector<Row> rows;
  la::MatC ref;
  const int reps = 3;
  for (const size_t bs : {size_t(1), size_t(2), size_t(4), size_t(8),
                          size_t(16)}) {
    ham::ExchangeOptions opt;
    opt.batch_size = bs;
    ham::ExchangeOperator xop(x.map, opt);
    la::MatC out(npw, nb);
    xop.apply_diag(src, d, src, out);  // warm-up
    xop.fft_count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) xop.apply_diag(src, d, src, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count() / reps;
    double max_abs = 0.0;
    if (bs == 1) {
      ref = out;
    } else {
      for (size_t i = 0; i < out.size(); ++i)
        max_abs =
            std::max(max_abs, std::abs(out.data()[i] - ref.data()[i]));
    }
    rows.push_back({bs, sec, xop.fft_count / reps, max_abs});
  }

  std::printf("\nExchange apply: per-pair vs batched FFT (8 sources x 8 "
              "targets, %zu^3-ish grid)\n", x.wfc.dims()[0]);
  std::printf("%10s %12s %10s %10s %16s\n", "batch", "seconds", "FFTs",
              "speedup", "max|d| vs B=1");
  for (const auto& r : rows)
    std::printf("%10zu %12.5f %10ld %9.2fx %16.2e\n", r.batch, r.seconds,
                r.ffts, rows[0].seconds / r.seconds, r.max_abs_diff);

  const char* path = "bench_exchange_batch.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"exchange_batch\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"batch_size\": %zu, \"seconds\": %.6e, "
                   "\"ffts\": %ld, \"speedup_vs_per_pair\": %.4f, "
                   "\"max_abs_diff\": %.3e}%s\n",
                   rows[i].batch, rows[i].seconds, rows[i].ffts,
                   rows[0].seconds / rows[i].seconds, rows[i].max_abs_diff,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(per-batch-size timings written to %s)\n", path);
  }
}

// Precision head-to-head: the FP64 batched exchange apply vs the FP32
// pipeline on the same 8x8 problem. The
// acceptance bar is FP32 beating FP64 wall-clock while staying within 1e-6
// relative of the FP64 result.
void exchange_precision_comparison() {
  auto& x = xbench();
  const size_t nb = 8;
  const size_t npw = x.sphere.npw();
  la::MatC src = random_mat(npw, nb, 11);
  pw::orthonormalize_lowdin(src);
  const std::vector<real_t> d(nb, 0.5);

  struct Row {
    Precision p;
    double seconds;
    long ffts;
    double max_abs_diff;
  };
  std::vector<Row> rows;
  la::MatC ref;
  const int reps = 20;  // ~2 ms per apply; enough reps to drown scheduler noise
  for (const Precision p : {Precision::kDouble, Precision::kSingle}) {
    ham::ExchangeOptions opt;
    opt.precision = p;
    ham::ExchangeOperator xop(x.map, opt);
    la::MatC out(npw, nb);
    xop.apply_diag(src, d, src, out);  // warm-up
    xop.fft_count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) xop.apply_diag(src, d, src, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count() / reps;
    double max_abs = 0.0;
    if (p == Precision::kDouble) {
      ref = out;
    } else {
      for (size_t i = 0; i < out.size(); ++i)
        max_abs = std::max(max_abs, std::abs(out.data()[i] - ref.data()[i]));
    }
    rows.push_back({p, sec, xop.fft_count / reps, max_abs});
  }

  std::printf("\nExchange apply: FP64 vs FP32 pipeline (8 sources x 8 "
              "targets, batch 8)\n");
  std::printf("%10s %12s %10s %10s %16s\n", "precision", "seconds", "FFTs",
              "speedup", "max|d| vs fp64");
  for (const auto& r : rows)
    std::printf("%10s %12.5f %10ld %9.2fx %16.2e\n", precision_name(r.p),
                r.seconds, r.ffts, rows[0].seconds / r.seconds,
                r.max_abs_diff);
}

struct KernelRow {
  std::string name, isa, variant;
  size_t fields;
  double seconds;
  long ffts;
};
std::vector<KernelRow> kernel_rows;

// Batched 3-D c2c engine per available SIMD ISA on the same fields, with
// the speedup over the scalar kernels.
void fft_engine_comparison() {
  const size_t n = 20, nfields = 16;
  fft::Fft3 f(n, n, n);
  Rng rng(17);
  std::vector<cplx> cdata(nfields * f.size());
  for (auto& v : cdata) v = cplx(rng.uniform() - 0.5, 0.0);

  std::printf("\nBatched 3-D FFT engine: c2c per SIMD ISA (%zu^3 box, %zu "
              "fields)\n",
              n, nfields);
  std::printf("%8s %8s %12s %6s %10s\n", "isa", "fields", "seconds", "FFTs",
              "speedup");
  const int reps = 6;
  const long ffts = 2L * static_cast<long>(nfields);  // forward + inverse
  auto run = [&] {
    f.forward_batch(cdata.data(), nfields);
    f.inverse_batch(cdata.data(), nfields);
  };
  double scalar_c2c = 0.0;
  using fft::simd::Isa;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (!fft::simd::available(isa)) continue;
    fft::simd::force_isa(isa);
    run();  // warm-up
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      run();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    if (isa == Isa::kScalar) scalar_c2c = best;
    std::printf("%8s %8zu %12.5f %6ld %9.2fx\n", fft::simd::isa_name(isa),
                nfields, best, ffts, scalar_c2c / best);
    kernel_rows.push_back(
        {"fft_engine", fft::simd::isa_name(isa), "c2c", nfields, best, ffts});
    fft::simd::clear_forced_isa();
  }
}

void write_kernels_json() {
  const char* path = "BENCH_kernels.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"kernels\": [\n");
    for (size_t i = 0; i < kernel_rows.size(); ++i) {
      const KernelRow& r = kernel_rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"isa\": \"%s\", \"variant\": "
                   "\"%s\", \"fields\": %zu, \"seconds\": %.6e, "
                   "\"ffts\": %ld}%s\n",
                   r.name.c_str(), r.isa.c_str(), r.variant.c_str(),
                   r.fields, r.seconds, r.ffts,
                   i + 1 < kernel_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("(engine rows written to %s)\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PTIM_HAVE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
#endif
  exchange_batch_comparison();
  exchange_precision_comparison();
  fft_engine_comparison();
  write_kernels_json();
  return 0;
}
