#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"

namespace ptim::la {

MatC cholesky(const MatC& A) {
  PTIM_CHECK_MSG(A.rows() == A.cols(), "cholesky: matrix must be square");
  const size_t n = A.rows();
  MatC L(n, n);
  for (size_t j = 0; j < n; ++j) {
    // Diagonal element.
    real_t sum = std::real(A(j, j));
    for (size_t k = 0; k < j; ++k) sum -= std::norm(L(j, k));
    PTIM_CHECK_MSG(sum > 0.0, "cholesky: matrix not positive definite at row "
                                  << j << " (pivot " << sum << ")");
    const real_t ljj = std::sqrt(sum);
    L(j, j) = ljj;
    // Column below the diagonal.
    for (size_t i = j + 1; i < n; ++i) {
      cplx s = A(i, j);
      for (size_t k = 0; k < j; ++k) s -= L(i, k) * std::conj(L(j, k));
      L(i, j) = s / ljj;
    }
  }
  return L;
}

void solve_lower(const MatC& L, MatC& B) {
  const size_t n = L.rows();
  PTIM_CHECK(B.rows() == n);
  // Column-sweep forward solve: each b[i] receives the k = 0..i-1 updates
  // in the same order as the row-oriented dot, so results are bitwise
  // identical, but the L accesses walk contiguous columns. RHS columns are
  // tiled so each L column is read once per tile from L1 instead of once
  // per RHS column from L2/DRAM — the solve is bandwidth-bound when the
  // RHS is wide.
  const size_t ncols = B.cols();
  constexpr size_t tile = 24;
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < ncols; j0 += tile) {
    const size_t j1 = std::min(ncols, j0 + tile);
    for (size_t k = 0; k < n; ++k) {
      // The Cholesky diagonal is real positive by construction, so the
      // division is componentwise — no complex-divide libcall.
      const real_t lkk = L(k, k).real();
      const cplx* lk = L.col(k) + k + 1;
      for (size_t j = j0; j < j1; ++j) {
        cplx* b = B.col(j);
        b[k] = cplx(b[k].real() / lkk, b[k].imag() / lkk);
        cx_axpy(n - k - 1, -b[k], lk, b + k + 1);
      }
    }
  }
}

void solve_lower_herm(const MatC& L, MatC& B) {
  const size_t n = L.rows();
  PTIM_CHECK(B.rows() == n);
  const size_t ncols = B.cols();
  constexpr size_t tile = 24;
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < ncols; j0 += tile) {
    const size_t j1 = std::min(ncols, j0 + tile);
    for (size_t i = n; i-- > 0;) {
      const real_t lii = L(i, i).real();  // real positive diagonal
      const real_t* lc = reinterpret_cast<const real_t*>(L.col(i));
      for (size_t j = j0; j < j1; ++j) {
        cplx* b = B.col(j);
        real_t sr = b[i].real(), si = b[i].imag();
        const real_t* bs = reinterpret_cast<const real_t*>(b);
        for (size_t k = i + 1; k < n; ++k) {
          const real_t lr = lc[2 * k], li = lc[2 * k + 1];
          const real_t br = bs[2 * k], bi = bs[2 * k + 1];
          sr -= lr * br + li * bi;
          si -= lr * bi - li * br;
        }
        b[i] = cplx(sr / lii, si / lii);
      }
    }
  }
}

void cholesky_solve(const MatC& L, MatC& B) {
  solve_lower(L, B);
  solve_lower_herm(L, B);
}

void solve_upper_right(const MatC& L, MatC& B) {
  // X * L^H = B with L^H upper triangular: (L^H)_{kj} = conj(L_{jk}), k <= j.
  // Column j of X:
  //   X(:,j) = (B(:,j) - sum_{k<j} X(:,k) conj(L(j,k))) / conj(L(j,j)).
  const size_t n = L.rows();
  PTIM_CHECK(B.cols() == n);
  const size_t m = B.rows();
  for (size_t j = 0; j < n; ++j) {
    cplx* xj = B.col(j);
    for (size_t k = 0; k < j; ++k) {
      const cplx ljk = std::conj(L(j, k));
      if (ljk == cplx(0.0)) continue;
      const cplx* xk = B.col(k);
      for (size_t i = 0; i < m; ++i) xj[i] -= xk[i] * ljk;
    }
    const cplx d = std::conj(L(j, j));
    for (size_t i = 0; i < m; ++i) xj[i] /= d;
  }
}

}  // namespace ptim::la
