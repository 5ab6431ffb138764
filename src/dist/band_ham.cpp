#include "dist/band_ham.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/rotate.hpp"
#include "dist/transpose.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"

namespace ptim::dist {

BandDistributedHamiltonian::BandDistributedHamiltonian(ptmpi::Comm& c,
                                                       ham::Hamiltonian& h,
                                                       size_t nbands,
                                                       BandHamOptions opt)
    : gridctx_(opt.grid.pg > 1
                   ? std::make_unique<GridContext>(c, opt.grid,
                                                   h.exchange_op().map())
                   : nullptr),
      c_(gridctx_ ? &gridctx_->band() : &c),
      h_(&h),
      bands_(nbands, c_->size()),
      rows_(h.sphere().npw(), c_->size()),
      opt_(opt),
      one_rank_(c.size() == 1) {
  // Validate the layout in every mode (pg == 1 included), so an
  // explicitly-set but inconsistent ProcessGrid is rejected rather than
  // silently ignored. The GridContext path has already checked pg > 1.
  if (!gridctx_) (void)opt_.grid.resolve_pb(c.size());
}

la::MatC BandDistributedHamiltonian::exchange_diag(
    const la::MatC& src_local, const std::vector<real_t>& d_local,
    const la::MatC& tgt_local) {
  ScopedTimer t("exchange.diag");
  if (gridctx_)
    return exchange_apply_slab_local(*gridctx_, h_->exchange_op(), src_local,
                                     d_local, tgt_local, bands_, opt_.pattern);
  return exchange_apply_distributed_local(*c_, h_->exchange_op(), src_local,
                                          d_local, tgt_local, bands_,
                                          opt_.pattern);
}

la::MatC BandDistributedHamiltonian::exchange_mixed(
    const la::MatC& src_local, const la::MatC& theta_local,
    const la::MatC& tgt_local) {
  if (gridctx_)
    return exchange_apply_slab_mixed_local(*gridctx_, h_->exchange_op(),
                                           src_local, theta_local, tgt_local,
                                           bands_, opt_.pattern);
  return exchange_apply_distributed_mixed_local(*c_, h_->exchange_op(),
                                                src_local, theta_local,
                                                tgt_local, bands_,
                                                opt_.pattern);
}

la::MatC BandDistributedHamiltonian::overlap(const la::MatC& a_local,
                                             const la::MatC& b_local) {
  // Paper Fig. 1: band -> grid transpose (Alltoallv), partial gemm over the
  // local row slab, then one Allreduce (optionally SHM-staged, Fig. 6).
  const la::MatC ga = band_to_grid(*c_, a_local, bands_, rows_);
  if (&a_local == &b_local)
    return overlap_distributed(*c_, ga, ga, opt_.overlap_shm);
  const la::MatC gb = band_to_grid(*c_, b_local, bands_, rows_);
  return overlap_distributed(*c_, ga, gb, opt_.overlap_shm);
}

void BandDistributedHamiltonian::overlap_pair(const la::MatC& a_local,
                                              const la::MatC& b_local,
                                              la::MatC* aa, la::MatC* ab) {
  const la::MatC ga = band_to_grid(*c_, a_local, bands_, rows_);
  const la::MatC gb = band_to_grid(*c_, b_local, bands_, rows_);
  *aa = overlap_distributed(*c_, ga, ga, opt_.overlap_shm);
  *ab = overlap_distributed(*c_, ga, gb, opt_.overlap_shm);
}

la::MatC BandDistributedHamiltonian::rotate(const la::MatC& a_local,
                                            const la::MatC& r) {
  return rotate_bands(*c_, a_local, r, bands_, opt_.pattern);
}

la::MatC BandDistributedHamiltonian::solve_upper_right(
    const la::MatC& l, const la::MatC& a_local) {
  return solve_upper_right_distributed(*c_, l, a_local, bands_, rows_);
}

std::vector<real_t> BandDistributedHamiltonian::density(
    const la::MatC& phi_local, const la::MatC& sigma, bool naive) {
  if (naive && one_rank_)
    return ham::density_sigma_naive(phi_local, sigma, h_->den_map());
  ScopedTimer t("density.sigma");
  std::vector<real_t> occ_local;
  const la::MatC rot_local = eigen_rotate(phi_local, sigma, &occ_local);
  std::vector<real_t> rho =
      ham::density_diag(rot_local, occ_local, h_->den_map());
  c_->allreduce_sum(rho.data(), rho.size());
  return rho;
}

std::vector<real_t> BandDistributedHamiltonian::density(
    const la::MatC& rot_local, const std::vector<real_t>& occ_local) {
  ScopedTimer t("density.sigma");
  std::vector<real_t> rho =
      ham::density_diag(rot_local, occ_local, h_->den_map());
  c_->allreduce_sum(rho.data(), rho.size());
  return rho;
}

void BandDistributedHamiltonian::set_exchange_source_mixed_naive(
    const la::MatC& phi_local, const la::MatC& sigma) {
  xsrc_local_ = phi_local;
  if (one_rank_)
    xsigma_ = sigma;
  else
    xtheta_local_ = rotate(phi_local, sigma);
  xmode_ = BandExchangeMode::kMixedNaive;
}

la::MatC BandDistributedHamiltonian::eigen_rotate(
    const la::MatC& phi_local, la::MatC sigma, std::vector<real_t>* occ_local) {
  la::hermitize(sigma);
  const auto eig = la::eig_herm(sigma);
  const int me = c_->rank();
  occ_local->assign(
      eig.w.begin() + static_cast<long>(bands_.offset(me)),
      eig.w.begin() + static_cast<long>(bands_.offset(me) + bands_.count(me)));
  return rotate(phi_local, eig.V);
}

void BandDistributedHamiltonian::set_exchange_source_mixed_diag(
    la::MatC rot_local, std::vector<real_t> occ_local) {
  xsrc_local_ = std::move(rot_local);
  xocc_local_ = std::move(occ_local);
  xmode_ = BandExchangeMode::kMixedDiag;
}

real_t BandDistributedHamiltonian::set_ace(const la::MatC& src_local,
                                           const std::vector<real_t>& d_local,
                                           const la::MatC& w_local) {
  ScopedTimer t("ace.build");
  // B = -src^H W (+ ridge for the semidefinite edge), Cholesky,
  // xi = W L^{-H} — replicated small matrices, so every rank factors the
  // same B.
  la::MatC b = overlap(src_local, w_local);
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = -b.data()[i];
  la::hermitize(b);
  const size_t n = b.rows();
  real_t dmax = 0.0;
  for (size_t i = 0; i < n; ++i) dmax = std::max(dmax, std::real(b(i, i)));
  const real_t ridge = std::max(dmax, real_t(1.0)) * 1e-13;
  for (size_t i = 0; i < n; ++i) b(i, i) += ridge;
  const la::MatC l = la::cholesky(b);
  xi_local_ = solve_upper_right(l, w_local);
  xmode_ = BandExchangeMode::kAce;

  // Exchange-energy estimate sum_b d_b <src_b|W_b>: local bands, then the
  // deterministic Allreduce — replicated like every other scalar.
  real_t ex = 0.0;
  for (size_t k = 0; k < src_local.cols(); ++k)
    ex += d_local[k] *
          std::real(la::dotc(src_local.rows(), src_local.col(k),
                             w_local.col(k)));
  c_->allreduce_sum(&ex, 1);
  return ex;
}

void BandDistributedHamiltonian::apply(const la::MatC& phi_local,
                                       la::MatC& hphi_local) {
  h_->apply_semilocal(phi_local, hphi_local);
  switch (xmode_) {
    case BandExchangeMode::kNone:
      break;
    case BandExchangeMode::kMixedNaive: {
      if (one_rank_) {
        h_->exchange_op().apply_mixed_naive(xsrc_local_, xsigma_, phi_local,
                                            hphi_local, /*accumulate=*/true);
        break;
      }
      const la::MatC vx = exchange_mixed(xsrc_local_, xtheta_local_, phi_local);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] += vx.data()[i];
      break;
    }
    case BandExchangeMode::kMixedDiag: {
      const la::MatC vx = exchange_diag(xsrc_local_, xocc_local_, phi_local);
      for (size_t i = 0; i < hphi_local.size(); ++i)
        hphi_local.data()[i] += vx.data()[i];
      break;
    }
    case BandExchangeMode::kAce: {
      // V_ACE tgt = -xi (xi^H tgt): replicated G = xi^H tgt, then one
      // accumulating rotation hphi += xi (-G)[:, my bands] — at one rank
      // the serial AceOperator::apply arithmetic.
      ScopedTimer t("ace.apply");
      la::MatC g = overlap(xi_local_, phi_local);
      for (size_t i = 0; i < g.size(); ++i) g.data()[i] = -g.data()[i];
      rotate_bands_add(*c_, xi_local_, g, bands_, opt_.pattern, hphi_local);
      break;
    }
  }
}

}  // namespace ptim::dist
