#include "dist/mixer_dist.hpp"

#include <cmath>

#include "common/error.hpp"
#include "la/blas.hpp"

namespace ptim::dist {

DistAndersonMixer::DistAndersonMixer(ptmpi::Comm& c, size_t local_dim,
                                     size_t shared_dim, size_t max_history,
                                     real_t beta, real_t regularization)
    : c_(&c),
      local_dim_(local_dim),
      shared_dim_(shared_dim),
      max_history_(max_history),
      beta_(beta),
      reg_(regularization) {
  PTIM_CHECK(max_history >= 1);
}

void DistAndersonMixer::reset() {
  hist_x_.clear();
  hist_f_.clear();
}

cplx DistAndersonMixer::gdot(const std::vector<cplx>& a,
                             const std::vector<cplx>& b, size_t aug_len) {
  // Local band block: partial sum, reduced deterministically in rank order.
  cplx part = la::dotc(local_dim_, a.data(), b.data());
  c_->allreduce_sum(&part, 1);
  // Shared sigma tail + augmented regularization rows: identical on every
  // rank, counted exactly once after the reduction by continuing the same
  // running sum — so at one rank this is la::dotc over the whole vector.
  return la::dotc(shared_dim_ + aug_len, a.data() + local_dim_,
                  b.data() + local_dim_, part);
}

std::vector<cplx> DistAndersonMixer::mix(const std::vector<cplx>& x,
                                         const std::vector<cplx>& f) {
  const size_t dim = local_dim_ + shared_dim_;
  PTIM_CHECK(x.size() == dim && f.size() == dim);
  const size_t m = hist_x_.size();

  std::vector<cplx> xbar = x, fbar = f;
  if (m > 0) {
    // The serial mixer solves min_theta ||f - sum_i theta_i (f - f_i)||
    // with la::lsq_solve (MGS QR on the Tikhonov-augmented columns). Same
    // algorithm here; vectors carry m augmentation entries behind the
    // shared tail, as lsq_solve appends lambda*I rows behind the data.
    std::vector<std::vector<cplx>> q(m);
    for (size_t i = 0; i < m; ++i) {
      q[i].resize(dim + m, cplx(0.0));
      for (size_t r = 0; r < dim; ++r) q[i][r] = f[r] - hist_f_[i][r];
      if (reg_ > 0.0) q[i][dim + i] = reg_;
    }
    std::vector<cplx> rhs(dim + m, cplx(0.0));
    for (size_t r = 0; r < dim; ++r) rhs[r] = f[r];

    // Modified Gram-Schmidt with globally reduced inner products.
    la::MatC R(m, m);
    for (size_t j = 0; j < m; ++j) {
      for (size_t i = 0; i < j; ++i) {
        const cplx r = gdot(q[i], q[j], m);
        R(i, j) = r;
        la::axpy(dim + m, -r, q[i].data(), q[j].data());
      }
      const real_t nrm = std::sqrt(std::real(gdot(q[j], q[j], m)));
      PTIM_CHECK_MSG(nrm > 1e-300, "DistAndersonMixer: rank-deficient column "
                                       << j);
      R(j, j) = nrm;
      la::scal(dim + m, 1.0 / nrm, q[j].data());
    }

    // theta = R^{-1} Q^H rhs. The m projections are independent, so their
    // local parts go through one batched Allreduce instead of m scalar ones.
    std::vector<cplx> theta(m);
    for (size_t j = 0; j < m; ++j)
      theta[j] = la::dotc(local_dim_, q[j].data(), rhs.data());
    c_->allreduce_sum(theta.data(), m);
    for (size_t j = 0; j < m; ++j)
      theta[j] = la::dotc(shared_dim_ + m, q[j].data() + local_dim_,
                          rhs.data() + local_dim_, theta[j]);
    for (size_t i = m; i-- > 0;) {
      cplx s = theta[i];
      for (size_t j = i + 1; j < m; ++j) s -= R(i, j) * theta[j];
      theta[i] = s / R(i, i);
    }

    for (size_t i = 0; i < m; ++i) {
      const cplx th = theta[i];
      for (size_t r = 0; r < dim; ++r) {
        xbar[r] -= th * (x[r] - hist_x_[i][r]);
        fbar[r] -= th * (f[r] - hist_f_[i][r]);
      }
    }
  }

  hist_x_.push_back(x);
  hist_f_.push_back(f);
  if (hist_x_.size() > max_history_) {
    hist_x_.pop_front();
    hist_f_.pop_front();
  }

  std::vector<cplx> next(dim);
  for (size_t r = 0; r < dim; ++r) next[r] = xbar[r] + beta_ * fbar[r];
  return next;
}

}  // namespace ptim::dist
