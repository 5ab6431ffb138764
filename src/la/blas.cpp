#include "la/blas.hpp"

#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace ptim::la {

namespace {

// Apply op to an element given the op code.
inline cplx op_elem(char trans, const MatC& A, size_t i, size_t j) {
  switch (trans) {
    case 'N': return A(i, j);
    case 'T': return A(j, i);
    default: return std::conj(A(j, i));  // 'C'
  }
}

inline size_t op_rows(char trans, const MatC& A) {
  return trans == 'N' ? A.rows() : A.cols();
}
inline size_t op_cols(char trans, const MatC& A) {
  return trans == 'N' ? A.cols() : A.rows();
}

}  // namespace

void gemm_nn(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.cols();
  PTIM_CHECK(B.rows() == k && C.rows() == m && C.cols() == n);
  // Output columns are tiled so each A column read feeds several axpy
  // panels; per output column the updates still arrive in ascending l, so
  // results are bitwise-identical to the untiled loop.
  constexpr size_t jtile = 4;
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < n; j0 += jtile) {
    const size_t j1 = std::min(n, j0 + jtile);
    for (size_t j = j0; j < j1; ++j) {
      cplx* cj = C.col(j);
      if (beta == cplx(0.0))
        for (size_t i = 0; i < m; ++i) cj[i] = 0.0;
      else if (beta != cplx(1.0))
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (size_t l = 0; l < k; ++l) {
      const cplx* al = A.col(l);
      for (size_t j = j0; j < j1; ++j) {
        const cplx ab = alpha * B.col(j)[l];
        if (ab == cplx(0.0)) continue;
        cx_axpy(m, ab, al, C.col(j));
      }
    }
  }
}

void gemm_cn(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t k = A.rows(), m = A.cols(), n = B.cols();
  PTIM_CHECK(B.rows() == k && C.rows() == m && C.cols() == n);
#pragma omp parallel for schedule(static)
  for (size_t j = 0; j < n; ++j) {
    const cplx* bj = B.col(j);
    cplx* cj = C.col(j);
    for (size_t i = 0; i < m; ++i) {
      const cplx acc = cx_dotc(k, A.col(i), bj);
      cj[i] = alpha * acc + (beta == cplx(0.0) ? cplx(0.0) : beta * cj[i]);
    }
  }
}

void gemm_nc(const MatC& A, const MatC& B, MatC& C, cplx alpha, cplx beta) {
  const size_t m = A.rows(), k = A.cols(), n = B.rows();
  PTIM_CHECK(B.cols() == k && C.rows() == m && C.cols() == n);
  constexpr size_t jtile = 4;
#pragma omp parallel for schedule(static)
  for (size_t j0 = 0; j0 < n; j0 += jtile) {
    const size_t j1 = std::min(n, j0 + jtile);
    for (size_t j = j0; j < j1; ++j) {
      cplx* cj = C.col(j);
      if (beta == cplx(0.0))
        for (size_t i = 0; i < m; ++i) cj[i] = 0.0;
      else if (beta != cplx(1.0))
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (size_t l = 0; l < k; ++l) {
      const cplx* al = A.col(l);
      for (size_t j = j0; j < j1; ++j) {
        const cplx ab = alpha * std::conj(B(j, l));
        if (ab == cplx(0.0)) continue;
        cx_axpy(m, ab, al, C.col(j));
      }
    }
  }
}

void gemm(char transA, char transB, cplx alpha, const MatC& A, const MatC& B,
          cplx beta, MatC& C) {
  if (transA == 'N' && transB == 'N') return gemm_nn(A, B, C, alpha, beta);
  if (transA == 'C' && transB == 'N') return gemm_cn(A, B, C, alpha, beta);
  if (transA == 'N' && transB == 'C') return gemm_nc(A, B, C, alpha, beta);

  const size_t m = op_rows(transA, A), k = op_cols(transA, A),
               n = op_cols(transB, B);
  PTIM_CHECK(op_rows(transB, B) == k && C.rows() == m && C.cols() == n);
#pragma omp parallel for schedule(static)
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < m; ++i) {
      cplx acc = 0.0;
      for (size_t l = 0; l < k; ++l)
        acc += op_elem(transA, A, i, l) * op_elem(transB, B, l, j);
      C(i, j) = alpha * acc + (beta == cplx(0.0) ? cplx(0.0) : beta * C(i, j));
    }
}

void axpy(size_t n, cplx alpha, const cplx* x, cplx* y) {
  cx_axpy(n, alpha, x, y);
}

cplx dotc(size_t n, const cplx* x, const cplx* y, cplx acc) {
  return cx_dotc(n, x, y, acc);
}

real_t nrm2(size_t n, const cplx* x) {
  real_t acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::norm(x[i]);
  return std::sqrt(acc);
}

void scal(size_t n, cplx alpha, cplx* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

real_t frob_diff(const MatC& A, const MatC& B) {
  PTIM_CHECK(A.same_shape(B));
  real_t acc = 0.0;
  for (size_t idx = 0; idx < A.size(); ++idx)
    acc += std::norm(A.data()[idx] - B.data()[idx]);
  return std::sqrt(acc);
}

real_t frob_norm(const MatC& A) {
  real_t acc = 0.0;
  for (size_t idx = 0; idx < A.size(); ++idx) acc += std::norm(A.data()[idx]);
  return std::sqrt(acc);
}

}  // namespace ptim::la
