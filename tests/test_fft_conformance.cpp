// Cross-variant FFT conformance suite: one randomized property set
// (linearity, Parseval, impulse, round-trip, Bluestein odd-prime dims,
// width-1 tiles) replayed against EVERY engine variant — scalar/AVX2/
// AVX-512/NEON kernels x FP64/FP32 x serial/distributed c2c — plus the
// bitwise pins that make engine selection a pure performance knob:
//   * every vector ISA produces bit-identical transforms to the scalar
//     kernels (no FMA, -ffp-contract=off; see fft/simd.hpp),
//   * the slab-distributed engine reproduces the serial one bit for bit
//     under every ISA,
//   * concurrent callers (distinct plans or a shared plan) never race —
//     all tile scratch is per-thread and function-local (the TSan CI job
//     runs this suite via the dist label).
// CI runs the suite twice through `ctest -L fftconf`: once with
// PTIM_SIMD=scalar and once with the default best-available ISA.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/dist_fft.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"
#include "ptmpi/comm.hpp"

using namespace ptim;
using fft::simd::Isa;

namespace {

template <typename R>
std::vector<std::complex<R>> random_box(size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<std::complex<R>> v(n);
  for (auto& x : v)
    x = std::complex<R>(static_cast<R>(rng.uniform() - 0.5),
                        static_cast<R>(rng.uniform() - 0.5));
  return v;
}

// Property tolerance per scalar type (absolute, on O(1) random data).
template <typename R>
constexpr double prop_tol() {
  return std::is_same_v<R, float> ? 2e-4 : 1e-10;
}

// Force an ISA for the current scope (exception-safe clear).
struct IsaGuard {
  explicit IsaGuard(Isa isa) { fft::simd::force_isa(isa); }
  ~IsaGuard() { fft::simd::clear_forced_isa(); }
};

constexpr std::array<Isa, 4> kAllIsas{Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                      Isa::kNeon};

// ---------------------------------------------- per-variant property set --
// Every checker below drives the BATCHED engines (forward_batch and
// friends), because that is the path running through the dispatched SIMD
// tile kernels; the ISA under test is forced by the fixture.

template <typename R>
void check_roundtrip_c2c(std::array<size_t, 3> d, size_t nbatch,
                         unsigned seed) {
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const auto orig = random_box<R>(nbatch * f.size(), seed);
  auto x = orig;
  f.forward_batch(x.data(), nbatch);
  f.inverse_batch(x.data(), nbatch);
  for (size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(std::abs(x[i] - orig[i]), 0.0, prop_tol<R>()) << "i=" << i;
}

template <typename R>
void check_linearity(std::array<size_t, 3> d, unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  auto a = random_box<R>(ng, seed);
  auto b = random_box<R>(ng, seed + 1);
  const C alpha(R(0.3), R(-1.2));
  std::vector<C> c(ng);
  for (size_t i = 0; i < ng; ++i) c[i] = a[i] + alpha * b[i];
  f.forward_batch(a.data(), 1);
  f.forward_batch(b.data(), 1);
  f.forward_batch(c.data(), 1);
  for (size_t i = 0; i < ng; ++i)
    ASSERT_NEAR(std::abs(c[i] - (a[i] + alpha * b[i])), 0.0,
                prop_tol<R>() * static_cast<double>(ng))
        << "i=" << i;
}

template <typename R>
void check_parseval(std::array<size_t, 3> d, unsigned seed) {
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  auto x = random_box<R>(ng, seed);
  double ex = 0.0;
  for (size_t i = 0; i < ng; ++i) ex += std::norm(static_cast<cplx>(x[i]));
  f.forward_batch(x.data(), 1);
  double ey = 0.0;
  for (size_t i = 0; i < ng; ++i) ey += std::norm(static_cast<cplx>(x[i]));
  EXPECT_NEAR(ey, ex * static_cast<double>(ng),
              prop_tol<R>() * ex * static_cast<double>(ng));
}

template <typename R>
void check_impulse(std::array<size_t, 3> d) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  std::vector<C> x(f.size(), C(0));
  x[0] = C(1);
  f.forward_batch(x.data(), 1);
  for (size_t i = 0; i < f.size(); ++i)
    ASSERT_NEAR(std::abs(x[i] - C(1)), 0.0, prop_tol<R>()) << "i=" << i;
}

}  // namespace

// ------------------------------------------------- ISA-parameterized run --

class FftConformance : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!fft::simd::available(GetParam()))
      GTEST_SKIP() << "ISA not available in this build/CPU: "
                   << fft::simd::isa_name(GetParam());
    fft::simd::force_isa(GetParam());
  }
  void TearDown() override { fft::simd::clear_forced_isa(); }
};

INSTANTIATE_TEST_SUITE_P(
    Isas, FftConformance,
    ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(fft::simd::isa_name(info.param));
    });

TEST_P(FftConformance, RoundTripC2C) {
  check_roundtrip_c2c<double>({6, 5, 4}, 3, 1000);
  check_roundtrip_c2c<float>({6, 5, 4}, 3, 1001);
}

TEST_P(FftConformance, BluesteinOddPrimeDims) {
  // Every axis of {11, 13, 9} except the last runs the chirp-z fallback.
  check_roundtrip_c2c<double>({11, 13, 9}, 2, 1010);
  check_roundtrip_c2c<float>({11, 13, 9}, 2, 1011);
}

TEST_P(FftConformance, Linearity) {
  check_linearity<double>({6, 5, 4}, 1020);
  check_linearity<float>({6, 5, 4}, 1021);
}

TEST_P(FftConformance, Parseval) {
  check_parseval<double>({8, 5, 7}, 1030);
  check_parseval<float>({8, 5, 7}, 1031);
}

TEST_P(FftConformance, Impulse) {
  check_impulse<double>({6, 6, 3});
  check_impulse<float>({6, 6, 3});
}

TEST_P(FftConformance, Width1Tiles) {
  // {1, 1, n} boxes push vlen == 1 tiles through the kernels on axis 2,
  // and the single-array call must stay bit-identical to a width-1 batch.
  check_roundtrip_c2c<double>({1, 1, 30}, 2, 1060);
  check_roundtrip_c2c<float>({1, 1, 30}, 2, 1061);
  fft::Fft3 f(6, 5, 4);
  auto a = random_box<double>(f.size(), 1062);
  auto b = a;
  f.forward(a.data());
  f.forward_batch(b.data(), 1);
  for (size_t i = 0; i < f.size(); ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ------------------------------------------------ bitwise scalar-vs-SIMD --

namespace {

// Forward + inverse of every available vector ISA must be bit-identical to
// the scalar kernels, FP64 and FP32 alike.
template <typename R>
void check_bitwise_vs_scalar(std::array<size_t, 3> d, size_t nbatch,
                             unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> f(d[0], d[1], d[2]);
  const size_t ng = f.size();
  const auto input = random_box<R>(nbatch * ng, seed);

  std::vector<C> ref_fwd, ref_inv;
  {
    IsaGuard g(Isa::kScalar);
    ref_fwd = input;
    f.forward_batch(ref_fwd.data(), nbatch);
    ref_inv = ref_fwd;
    f.inverse_batch(ref_inv.data(), nbatch);
  }

  for (const Isa isa : kAllIsas) {
    if (isa == Isa::kScalar || !fft::simd::available(isa)) continue;
    IsaGuard g(isa);
    auto fwd = input;
    f.forward_batch(fwd.data(), nbatch);
    auto inv = fwd;
    f.inverse_batch(inv.data(), nbatch);
    for (size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(fwd[i], ref_fwd[i])
          << fft::simd::isa_name(isa) << " fwd i=" << i;
      ASSERT_EQ(inv[i], ref_inv[i])
          << fft::simd::isa_name(isa) << " inv i=" << i;
    }
  }
}

}  // namespace

TEST(FftSimdBitwise, VectorIsasMatchScalarFp64) {
  check_bitwise_vs_scalar<double>({6, 5, 4}, 3, 2000);
  check_bitwise_vs_scalar<double>({11, 13, 9}, 2, 2001);  // Bluestein axes
  check_bitwise_vs_scalar<double>({16, 8, 4}, 1, 2002);   // pow-2 radix path
}

TEST(FftSimdBitwise, VectorIsasMatchScalarFp32) {
  check_bitwise_vs_scalar<float>({6, 5, 4}, 3, 2010);
  check_bitwise_vs_scalar<float>({11, 13, 9}, 2, 2011);
  check_bitwise_vs_scalar<float>({16, 8, 4}, 1, 2012);
}

TEST(FftSimdDispatch, SelectionAndForcing) {
  // The scalar table is always compiled and available; best_available()
  // and active_isa() return something this CPU can run; forcing an
  // unavailable ISA throws instead of silently misdispatching.
  EXPECT_TRUE(fft::simd::compiled(Isa::kScalar));
  EXPECT_TRUE(fft::simd::available(Isa::kScalar));
  EXPECT_TRUE(fft::simd::available(fft::simd::best_available()));
  EXPECT_TRUE(fft::simd::available(fft::simd::active_isa()));
  for (const Isa isa : kAllIsas) {
    if (!fft::simd::available(isa)) {
      EXPECT_THROW(fft::simd::force_isa(isa), Error);
    }
  }
}

// -------------------------------------------------- distributed variants --

namespace {

// This rank's z slab of `nbatch` full boxes.
template <typename C>
std::vector<C> slice_slab(const std::vector<C>& full,
                          const std::array<size_t, 3>& d,
                          const dist::BlockLayout& z, int r, size_t nbatch) {
  const size_t plane = d[0] * d[1];
  const size_t ng = plane * d[2];
  std::vector<C> out(nbatch * plane * z.count(r));
  size_t w = 0;
  for (size_t b = 0; b < nbatch; ++b)
    for (size_t zz = z.offset(r); zz < z.offset(r) + z.count(r); ++zz)
      for (size_t i = 0; i < plane; ++i)
        out[w++] = full[b * ng + zz * plane + i];
  return out;
}

// Slab-distributed forward + inverse on pg ranks vs the serial engine under
// the ISA the fixture forces: every pencil element equals the serial
// spectrum at its global index and every inverse slab element equals the
// serial inverse, bit for bit.
template <typename R>
void check_dist_vs_serial(std::array<size_t, 3> d, int pg, size_t nbatch,
                          unsigned seed) {
  using C = std::complex<R>;
  fft::Fft3T<R> serial(d[0], d[1], d[2]);
  const size_t ng = serial.size();
  const auto input = random_box<R>(nbatch * ng, seed);
  auto fwd = input;
  serial.forward_batch(fwd.data(), nbatch);
  auto inv = fwd;
  serial.inverse_batch(inv.data(), nbatch);

  ptmpi::run_ranks(pg, 2, [&](ptmpi::Comm& c) {
    fft::DistFft3T<R> f(d, c);
    const auto slab = slice_slab(input, d, f.zslabs(), c.rank(), nbatch);
    std::vector<C> pencil(nbatch * f.npencil());
    f.forward(slab.data(), pencil.data(), nbatch);
    for (size_t b = 0; b < nbatch; ++b)
      for (size_t i = 0; i < f.npencil(); ++i)
        ASSERT_EQ(pencil[b * f.npencil() + i],
                  fwd[b * ng + f.pencil_to_global(i)])
            << "rank " << c.rank() << " b=" << b << " i=" << i;
    std::vector<C> back(nbatch * f.nreal());
    f.inverse(pencil.data(), back.data(), nbatch);
    const auto ref = slice_slab(inv, d, f.zslabs(), c.rank(), nbatch);
    for (size_t i = 0; i < back.size(); ++i)
      ASSERT_EQ(back[i], ref[i]) << "rank " << c.rank() << " i=" << i;
  });
}

}  // namespace

TEST_P(FftConformance, DistributedMatchesSerialBitwise) {
  check_dist_vs_serial<double>({6, 5, 4}, 3, 3, 3000);
  check_dist_vs_serial<double>({4, 2, 3}, 5, 2, 3001);  // zero-row ranks
  check_dist_vs_serial<float>({6, 5, 4}, 3, 2, 3010);
}

// ------------------------------------------------------ concurrent plans --

namespace {

// Round-trip workload one thread runs on its own plan and buffers.
template <typename R>
void roundtrip_worker(const std::array<size_t, 3>& d, size_t nbatch,
                      unsigned seed, bool shared_plan,
                      const fft::Fft3T<R>* shared, double* max_err) {
  using C = std::complex<R>;
  fft::Fft3T<R> own(d[0], d[1], d[2]);
  const fft::Fft3T<R>& f = shared_plan ? *shared : own;
  const auto orig = random_box<R>(nbatch * f.size(), seed);
  std::vector<C> x;
  double err = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    x = orig;
    f.forward_batch(x.data(), nbatch);
    f.inverse_batch(x.data(), nbatch);
    for (size_t i = 0; i < x.size(); ++i)
      err = std::max(err, static_cast<double>(std::abs(x[i] - orig[i])));
  }
  *max_err = err;
}

}  // namespace

// Satellite of the scratch audit: ALL per-transform scratch of the serial
// engines (axis-pass tiles, Bluestein convolution buffers) is
// function-local — concurrent std::thread callers on DISTINCT plans and
// on one SHARED plan must both be race-free (the TSan CI job executes this
// suite) and exact. Only DistFft3T carries persistent mutable scratch,
// which its API contract pins to one call stream per instance.
TEST(FftConcurrency, DistinctPlansDontRace) {
  const int nthreads = 4;
  std::vector<double> errs(static_cast<size_t>(nthreads), 1.0);
  std::vector<std::thread> ts;
  const std::array<std::array<size_t, 3>, 4> dims{
      {{6, 5, 4}, {8, 6, 5}, {11, 13, 9}, {4, 4, 4}}};
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back(roundtrip_worker<double>, dims[static_cast<size_t>(t)], 2,
                    4000u + static_cast<unsigned>(t), false, nullptr,
                    &errs[static_cast<size_t>(t)]);
  for (auto& t : ts) t.join();
  for (int t = 0; t < nthreads; ++t)
    EXPECT_LT(errs[static_cast<size_t>(t)], 1e-10) << "thread " << t;
}

TEST(FftConcurrency, SharedPlanConcurrentCallers) {
  const int nthreads = 4;
  const std::array<size_t, 3> d{6, 5, 4};
  fft::Fft3 shared(d[0], d[1], d[2]);
  std::vector<double> errs(static_cast<size_t>(nthreads), 1.0);
  std::vector<std::thread> ts;
  for (int t = 0; t < nthreads; ++t)
    ts.emplace_back(roundtrip_worker<double>, d, 3,
                    4100u + static_cast<unsigned>(t), true, &shared,
                    &errs[static_cast<size_t>(t)]);
  for (auto& t : ts) t.join();
  for (int t = 0; t < nthreads; ++t)
    EXPECT_LT(errs[static_cast<size_t>(t)], 1e-10) << "thread " << t;
}
