#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/axis_pass.hpp"
#include "fft/simd.hpp"

namespace ptim::fft {

// The dispatched kernels size their stack tiles off simd::kMaxTile.
static_assert(simd::kMaxTile == Plan1DT<double>::kMaxTile,
              "simd::kMaxTile must match Plan1DT::kMaxTile");

namespace {

bool factors_into_small_primes(size_t n) {
  for (size_t p : {size_t{2}, size_t{3}, size_t{5}, size_t{7}})
    while (n % p == 0) n /= p;
  return n == 1;
}

size_t smallest_prime_factor(size_t n) {
  for (size_t p : {size_t{2}, size_t{3}, size_t{5}, size_t{7}})
    if (n % p == 0) return p;
  for (size_t p = 11; p * p <= n; p += 2)
    if (n % p == 0) return p;
  return n;
}

// Twiddle/chirp angles are evaluated in double regardless of the plan's
// scalar type, then rounded once — the float tables carry no generation
// error beyond the final rounding.
template <typename R>
std::complex<R> unit_root(double ang) {
  return {static_cast<R>(std::cos(ang)), static_cast<R>(std::sin(ang))};
}

}  // namespace

bool fft_size_ok(size_t n) { return n >= 1 && factors_into_small_primes(n); }

size_t next_fft_size(size_t n) {
  if (n < 1) return 1;
  while (!factors_into_small_primes(n)) ++n;
  return n;
}

template <typename R>
Plan1DT<R>::Plan1DT(size_t n) : n_(n) {
  PTIM_CHECK_MSG(n >= 1, "Plan1D: size must be positive");
  tw_.resize(n);
  const double dn = static_cast<double>(n);
  for (size_t k = 0; k < n; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / dn;
    tw_[k] = unit_root<R>(ang);
  }
  use_bluestein_ = !factors_into_small_primes(n) && n > 1;
  if (use_bluestein_) {
    m_ = 1;
    while (m_ < 2 * n - 1) m_ *= 2;
    conv_plan_ = std::make_unique<Plan1DT<R>>(m_);
    chirp_.resize(n);
    for (size_t k = 0; k < n; ++k) {
      // e^{-i pi k^2 / n}; reduce k^2 mod 2n to keep the angle accurate.
      const size_t k2 = (k * k) % (2 * n);
      const double ang = -kPi * static_cast<double>(k2) / dn;
      chirp_[k] = unit_root<R>(ang);
    }
    // Filter b_j = conj(chirp) extended circularly; precompute its FFT.
    std::vector<C> b(m_, C(0.0));
    b[0] = std::conj(chirp_[0]);
    for (size_t k = 1; k < n; ++k) {
      b[k] = std::conj(chirp_[k]);
      b[m_ - k] = std::conj(chirp_[k]);
    }
    bfft_.resize(m_);
    conv_plan_->forward(b.data(), bfft_.data());
  }
}

template <typename R>
void Plan1DT<R>::forward(const C* in, C* out) const {
  transform(in, out, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled(const C* in, C* out) const {
  transform(in, out, false);
}

template <typename R>
void Plan1DT<R>::inverse(const C* in, C* out) const {
  transform(in, out, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_; ++i) out[i] *= inv;
}

template <typename R>
void Plan1DT<R>::transform(const C* in, C* out, bool fwd) const {
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  if (in == out) {
    std::vector<C> tmp(in, in + n_);
    transform(tmp.data(), out, fwd);
    return;
  }
  if (use_bluestein_)
    bluestein(in, out, fwd);
  else
    recurse(n_, in, 1, out, 1, fwd);
}

// DFT_n of the input viewed with the given stride; tw_step maps local
// twiddle index k to the top-level root table: w_n^k == tw_[k * tw_step]
// (conjugated for the inverse transform).
template <typename R>
void Plan1DT<R>::recurse(size_t n, const C* in, size_t stride, C* out,
                         size_t tw_step, bool fwd) const {
  // Twiddles advance by a fixed stride per term: one modulo reduction per
  // row, then an add-with-conditional-subtract walks the root table — no
  // integer division in the inner loops (it used to dominate the FFT).
  auto root_at = [&](size_t idx) -> C {
    const C w = tw_[idx];
    return fwd ? w : std::conj(w);
  };

  if (n <= 7 || smallest_prime_factor(n) == n) {
    // Direct small DFT.
    for (size_t k = 0; k < n; ++k) {
      C acc = 0.0;
      const size_t step = (k * tw_step) % n_;
      size_t idx = 0;
      for (size_t j = 0; j < n; ++j) {
        acc += root_at(idx) * in[j * stride];
        idx += step;
        if (idx >= n_) idx -= n_;
      }
      out[k] = acc;
    }
    return;
  }

  const size_t r = smallest_prime_factor(n);
  const size_t m = n / r;
  // Sub-transforms of the r decimated sequences, each written contiguously.
  for (size_t j = 0; j < r; ++j)
    recurse(m, in + j * stride, stride * r, out + j * m, tw_step * r, fwd);

  // Butterfly combine: X[q*m + k2] = sum_j w_n^{j(q*m+k2)} Y_j[k2].
  C tmp[8];
  for (size_t k2 = 0; k2 < m; ++k2) {
    for (size_t q = 0; q < r; ++q) {
      C acc = 0.0;
      const size_t step = ((q * m + k2) * tw_step) % n_;
      size_t idx = 0;
      for (size_t j = 0; j < r; ++j) {
        acc += root_at(idx) * out[j * m + k2];
        idx += step;
        if (idx >= n_) idx -= n_;
      }
      tmp[q] = acc;
    }
    for (size_t q = 0; q < r; ++q) out[q * m + k2] = tmp[q];
  }
}

template <typename R>
void Plan1DT<R>::forward_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, false);
}

template <typename R>
void Plan1DT<R>::inverse_many(const C* in, C* out, size_t vlen) const {
  transform_many(in, out, vlen, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_ * vlen; ++i) out[i] *= inv;
}

// Interleaved-tile entry points: thin de/re-interleaving wrappers over the
// split-plane engine (kept for callers that hold complex tiles; the 3-D
// batch engine gathers into planes directly and skips this copy).
template <typename R>
void Plan1DT<R>::transform_many(const C* in, C* out, size_t vlen,
                                bool fwd) const {
  PTIM_CHECK_MSG(vlen >= 1 && vlen <= kMaxTile,
                 "Plan1D: vlen outside [1, kMaxTile]");
  PTIM_CHECK_MSG(in != out,
                 "Plan1D: *_many transforms do not support in == out aliasing");
  if (n_ == 1) {
    std::copy(in, in + vlen, out);
    return;
  }
  std::vector<R> ir(n_ * vlen), ii(n_ * vlen), wr(n_ * vlen), wi(n_ * vlen);
  for (size_t i = 0; i < n_ * vlen; ++i) {
    ir[i] = in[i].real();
    ii[i] = in[i].imag();
  }
  transform_many_split(ir.data(), ii.data(), wr.data(), wi.data(), vlen, fwd);
  for (size_t i = 0; i < n_ * vlen; ++i) out[i] = C(wr[i], wi[i]);
}

template <typename R>
void Plan1DT<R>::forward_many_split(const R* in_re, const R* in_im, R* out_re,
                                    R* out_im, size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, true);
}

template <typename R>
void Plan1DT<R>::inverse_unscaled_many_split(const R* in_re, const R* in_im,
                                             R* out_re, R* out_im,
                                             size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, false);
}

template <typename R>
void Plan1DT<R>::inverse_many_split(const R* in_re, const R* in_im, R* out_re,
                                    R* out_im, size_t vlen) const {
  transform_many_split(in_re, in_im, out_re, out_im, vlen, false);
  const R inv = R(1) / static_cast<R>(n_);
  for (size_t i = 0; i < n_ * vlen; ++i) {
    out_re[i] *= inv;
    out_im[i] *= inv;
  }
}

template <typename R>
void Plan1DT<R>::transform_many_split(const R* in_re, const R* in_im,
                                      R* out_re, R* out_im, size_t vlen,
                                      bool fwd) const {
  PTIM_CHECK_MSG(vlen >= 1 && vlen <= kMaxTile,
                 "Plan1D: vlen outside [1, kMaxTile]");
  PTIM_CHECK_MSG(in_re != out_re && in_re != out_im && in_im != out_re &&
                     in_im != out_im,
                 "Plan1D: *_many transforms do not support aliased planes");
  if (n_ == 1) {
    std::copy(in_re, in_re + vlen, out_re);
    std::copy(in_im, in_im + vlen, out_im);
    return;
  }
  if (use_bluestein_) {
    // Bluestein sizes never occur on FFT-friendly grids; keep the fallback
    // simple: re-interleave each line and run the scalar chirp transform.
    std::vector<C> line(n_), res(n_);
    for (size_t l = 0; l < vlen; ++l) {
      for (size_t k = 0; k < n_; ++k)
        line[k] = C(in_re[k * vlen + l], in_im[k * vlen + l]);
      bluestein(line.data(), res.data(), fwd);
      for (size_t k = 0; k < n_; ++k) {
        out_re[k * vlen + l] = res[k].real();
        out_im[k * vlen + l] = res[k].imag();
      }
    }
    return;
  }
  // Fetch the active ISA's kernel table once per transform; the recursion
  // below touches data only through it.
  const simd::PassKernels<R>& ker = simd::pass_kernels<R>(simd::active_isa());
  recurse_many_split(n_, in_re, in_im, 1, out_re, out_im, 1, fwd, vlen, ker);
}

// Vector analogue of recurse() on split planes: identical index algebra,
// but every twiddle is materialized once and swept across the `vlen`
// contiguous line slots of both planes. The two inner passes — the direct
// small-DFT leaf and the radix-r butterfly combine — live in the
// dispatched SIMD kernels (fft/simd*.cpp): the scalar table holds the
// verbatim pre-dispatch loops, the AVX2/AVX-512/NEON tables run the same
// per-lane operation order with explicit (never fused) vector intrinsics,
// so every ISA produces bitwise-identical planes. Twiddles advance by a
// fixed stride with one modulo per row (the inner loops are
// division-free).
template <typename R>
void Plan1DT<R>::recurse_many_split(size_t n, const R* in_re, const R* in_im,
                                    size_t stride, R* out_re, R* out_im,
                                    size_t tw_step, bool fwd, size_t vlen,
                                    const simd::PassKernels<R>& ker) const {
  if (n <= 7 || smallest_prime_factor(n) == n) {
    ker.dft_rows(n, in_re, in_im, stride, out_re, out_im, tw_.data(), n_,
                 tw_step, fwd, vlen);
    return;
  }

  const size_t r = smallest_prime_factor(n);
  const size_t m = n / r;
  for (size_t j = 0; j < r; ++j)
    recurse_many_split(m, in_re + j * stride * vlen, in_im + j * stride * vlen,
                       stride * r, out_re + j * m * vlen,
                       out_im + j * m * vlen, tw_step * r, fwd, vlen, ker);

  ker.butterfly(r, m, out_re, out_im, tw_.data(), n_, tw_step, fwd, vlen);
}

template <typename R>
void Plan1DT<R>::bluestein(const C* in, C* out, bool fwd) const {
  const size_t n = n_;
  std::vector<C> a(m_, C(0.0)), afft(m_);
  for (size_t k = 0; k < n; ++k) {
    const C c = fwd ? chirp_[k] : std::conj(chirp_[k]);
    a[k] = in[k] * c;
  }
  conv_plan_->forward(a.data(), afft.data());
  if (fwd) {
    for (size_t k = 0; k < m_; ++k) afft[k] *= bfft_[k];
  } else {
    // Inverse chirp filter is the conjugate; its FFT is index-reversed conj.
    for (size_t k = 0; k < m_; ++k) {
      const size_t rk = (m_ - k) % m_;
      afft[k] *= std::conj(bfft_[rk]);
    }
  }
  conv_plan_->inverse(afft.data(), a.data());
  for (size_t k = 0; k < n; ++k) {
    const C c = fwd ? chirp_[k] : std::conj(chirp_[k]);
    out[k] = a[k] * c;
  }
}

template <typename R>
Fft3T<R>::Fft3T(size_t n0, size_t n1, size_t n2)
    : n0_(n0), n1_(n1), n2_(n2), p0_(n0), p1_(n1), p2_(n2) {}

template <typename R>
void Fft3T<R>::forward_batch(C* data, size_t nbatch) const {
  if (nbatch == 0) return;
  transform_batch(data, nbatch, Dir::kForward);
}

template <typename R>
void Fft3T<R>::inverse_batch(C* data, size_t nbatch) const {
  if (nbatch == 0) return;
  transform_batch(data, nbatch, Dir::kInverse);
  const R s = R(1) / static_cast<R>(size());
  const size_t total = nbatch * size();
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < total; ++i) data[i] *= s;
}

// The whole batch runs through the shared axis pass (fft/axis_pass.hpp):
// lines are gathered in tiles of kMaxTile into element-major SPLIT-PLANE
// scratch (the de-interleave rides along with the gather for free), pushed
// through the split vector 1-D transforms (twiddles amortized over the
// tile, R-wide vectorization over the lanes), and scattered back.
// Consecutive line indices are chosen so that tile gathers walk memory
// contiguously on the strided axes. The distributed slab engine
// (DistFft3T) calls the SAME axis_pass on its local line sets, which is
// what makes it bit-identical to this engine by construction.
//
// Axis order: forward sweeps 0 -> 1 -> 2, the inverse sweeps 2 -> 1 -> 0.
// The reversed inverse is what makes a z-slab-distributed transform
// bit-identical with one transpose per direction: both directions touch
// the z axis only while the data is pencil-distributed (full z).
template <typename R>
void Fft3T<R>::transform_batch(C* data, size_t nbatch, Dir dir) const {
  const bool fwd = dir == Dir::kForward;
  const size_t ng = size();
  const size_t plane = n0_ * n1_;

  // Axis 0: contiguous lines, the whole batch is one flat line array.
  auto axis0 = [&] {
    detail::axis_pass(
        p0_, n0_, nbatch * n1_ * n2_, [&](size_t q) { return q * n0_; },
        size_t{1}, data, fwd);
  };
  // Axis 1: stride n0 within each (batch, i2) plane; consecutive q's are
  // consecutive i0, so tile gathers read contiguous memory.
  auto axis1 = [&] {
    detail::axis_pass(
        p1_, n1_, nbatch * n2_ * n0_,
        [&](size_t q) {
          const size_t b = q / (n2_ * n0_);
          const size_t rem = q % (n2_ * n0_);
          const size_t i2 = rem / n0_;
          const size_t i0 = rem % n0_;
          return b * ng + i2 * plane + i0;
        },
        n0_, data, fwd);
  };
  // Axis 2: stride n0*n1; consecutive q's walk the contiguous plane.
  auto axis2 = [&] {
    detail::axis_pass(
        p2_, n2_, nbatch * plane,
        [&](size_t q) { return (q / plane) * ng + (q % plane); }, plane, data,
        fwd);
  };

  if (fwd) {
    axis0();
    axis1();
    axis2();
  } else {
    axis2();
    axis1();
    axis0();
  }
}

// Single-array transforms are width-1 batches: one engine, so a single call
// is bit-identical to the corresponding batch member by construction (the
// per-line split-plane arithmetic is independent of the tile width).
template <typename R>
void Fft3T<R>::forward(C* data) const {
  transform_batch(data, 1, Dir::kForward);
}

template <typename R>
void Fft3T<R>::inverse(C* data) const {
  transform_batch(data, 1, Dir::kInverse);
  const R s = R(1) / static_cast<R>(size());
  const size_t ng = size();
  for (size_t i = 0; i < ng; ++i) data[i] *= s;
}

template class Plan1DT<float>;
template class Plan1DT<double>;
template class Fft3T<float>;
template class Fft3T<double>;

}  // namespace ptim::fft
