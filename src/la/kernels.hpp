#pragma once

// Explicit real/imaginary microkernels for the hot complex inner loops
// (GEMM panels, triangular solves, Householder updates).
//
// std::complex arithmetic at -O2/-O3 carries the Annex-G NaN-recovery
// branch on every multiply, which blocks vectorization of the loops that
// dominate the serial cost of the dense linear algebra. These kernels
// evaluate the same naive product formula in the same operation order, so
// for finite operands the results are BITWISE IDENTICAL to the
// std::complex versions — golden fixtures and cross-rank determinism
// checks are unaffected. (Operands that are already NaN/Inf produce NaN
// instead of the Annex-G recovered value; the solvers treat any
// non-finite intermediate as failure anyway.)

#include <cstddef>

#include "common/types.hpp"

namespace ptim::la {

// y[i] += alpha * x[i]
inline void cx_axpy(size_t n, cplx alpha, const cplx* x, cplx* y) {
  const real_t ar = alpha.real(), ai = alpha.imag();
  const real_t* xs = reinterpret_cast<const real_t*>(x);
  real_t* ys = reinterpret_cast<real_t*>(y);
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    ys[2 * i] += xr * ar - xi * ai;
    ys[2 * i + 1] += xr * ai + xi * ar;
  }
}

// acc + sum_i conj(x[i]) * y[i], added in index order
inline cplx cx_dotc(size_t n, const cplx* x, const cplx* y, cplx acc = 0.0) {
  const real_t* xs = reinterpret_cast<const real_t*>(x);
  const real_t* ys = reinterpret_cast<const real_t*>(y);
  real_t sr = acc.real(), si = acc.imag();
  for (size_t i = 0; i < n; ++i) {
    const real_t xr = xs[2 * i], xi = xs[2 * i + 1];
    const real_t yr = ys[2 * i], yi = ys[2 * i + 1];
    sr += xr * yr + xi * yi;
    si += xr * yi - xi * yr;
  }
  return {sr, si};
}

}  // namespace ptim::la
