#include "td/ptim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/mixer_dist.hpp"
#include "dist/rotate.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/util.hpp"

namespace ptim::td {

namespace {

// The fixed-point unknowns (Phi slice ++ sigma) as one Anderson vector.
void flatten(const la::MatC& phi, const la::MatC& sigma,
             std::vector<cplx>& out) {
  out.resize(phi.size() + sigma.size());
  std::copy(phi.data(), phi.data() + phi.size(), out.begin());
  std::copy(sigma.data(), sigma.data() + sigma.size(),
            out.begin() + static_cast<long>(phi.size()));
}

void unflatten(const std::vector<cplx>& in, la::MatC& phi, la::MatC& sigma) {
  std::copy(in.begin(), in.begin() + static_cast<long>(phi.size()),
            phi.data());
  std::copy(in.begin() + static_cast<long>(phi.size()), in.end(),
            sigma.data());
}

// (a + b) / 2, the midpoint of paper Eq. 4.
la::MatC midpoint(const la::MatC& a, const la::MatC& b) {
  la::MatC m(a.rows(), a.cols());
  for (size_t i = 0; i < m.size(); ++i)
    m.data()[i] = 0.5 * (a.data()[i] + b.data()[i]);
  return m;
}

// The exchange knobs of PtImOptions reach the rank-local operator: the ring
// slabs follow its precision and backend while sigma/overlap Allreduces stay
// FP64, so trajectories stay bit-identical across ranks.
void apply_exchange_knobs(ham::Hamiltonian& h, const PtImOptions& opt) {
  if (opt.exchange_precision) h.set_exchange_precision(*opt.exchange_precision);
  if (opt.exchange_backend) h.set_exchange_backend(*opt.exchange_backend);
}

}  // namespace

TdState scatter_state(const TdState& full, const dist::BlockLayout& bands,
                      int rank) {
  TdState s;
  s.phi = dist::scatter_bands(full.phi, bands, rank);
  s.sigma = full.sigma;
  s.time = full.time;
  return s;
}

TdState gather_state(ptmpi::Comm& c, const TdState& local,
                     const dist::BlockLayout& bands) {
  TdState s;
  s.phi = dist::gather_bands(c, local.phi, bands);
  s.sigma = local.sigma;
  s.time = local.time;
  return s;
}

PtImPropagator::PtImPropagator(ham::Hamiltonian& h, PtImOptions opt,
                               const LaserPulse* laser)
    : local_(&h),
      self_(std::make_unique<ptmpi::SelfComm>()),
      opt_(opt),
      laser_(laser) {
  apply_exchange_knobs(h, opt_);
}

PtImPropagator::PtImPropagator(dist::BandDistributedHamiltonian& h,
                               PtImOptions opt, const LaserPulse* laser)
    : local_(&h.local()), h_(&h), opt_(opt), laser_(laser) {
  apply_exchange_knobs(h.local(), opt_);
}

PtImPropagator::~PtImPropagator() = default;

void PtImPropagator::bind(const TdState& s) {
  if (!self_ || (owned_ && owned_->bands().total() == s.nbands())) return;
  owned_ = std::make_unique<dist::BandDistributedHamiltonian>(
      self_->comm(), *local_, s.nbands());
  h_ = owned_.get();
}

void PtImPropagator::set_midpoint(const la::MatC& phih,
                                  const la::MatC& sigmah) {
  if (opt_.hybrid && opt_.variant == PtImVariant::kDiag) {
    // One eigen-rotation of (Phi_h, sigma_h) feeds both the density and the
    // Diag exchange source.
    std::vector<real_t> occ;
    la::MatC rot = h_->eigen_rotate(phih, sigmah, &occ);
    h_->set_density(h_->density(rot, occ));
    h_->set_exchange_source_mixed_diag(std::move(rot), std::move(occ));
    if (stats_) ++stats_->exchange_applications;
    return;
  }
  const bool naive = opt_.variant == PtImVariant::kBaseline;
  h_->set_density(h_->density(phih, sigmah, naive));
  if (!opt_.hybrid) {
    h_->set_exchange_none();
  } else if (naive) {
    h_->set_exchange_source_mixed_naive(phih, sigmah);
    if (stats_) ++stats_->exchange_applications;
  }
  // kAce: the ACE operator is installed by step_advance; nothing to refresh
  // per inner iteration.
}

int PtImPropagator::fixed_point(const TdState& start, la::MatC& phi1,
                                la::MatC& sigma1, real_t t_half,
                                real_t* residual_out) {
  const la::MatC& phin = start.phi;
  const la::MatC& sigman = start.sigma;
  const size_t npw = phin.rows();
  const size_t nloc = phin.cols();
  const size_t nb = sigman.rows();
  const cplx idt{0.0, opt_.dt};

  dist::DistAndersonMixer mixer(h_->comm(), npw * nloc, nb * nb,
                                opt_.anderson_history, opt_.anderson_beta);
  if (laser_) local_->set_vector_potential(laser_->vector_potential(t_half));

  la::MatC hphi(npw, nloc), x(nb, nb);
  std::vector<cplx> xv, fv;

  int it = 1;
  for (; it <= opt_.max_scf; ++it) {
    // Midpoints (paper Eq. 4).
    const la::MatC phih = midpoint(phi1, phin);
    la::MatC sigmah = midpoint(sigma1, sigman);
    la::hermitize(sigmah);

    // Midpoint density and Hamiltonian (Eq. 5); rho is Allreduced, so every
    // rank's local Hamiltonian sees identical potentials.
    set_midpoint(phih, sigmah);
    h_->apply(phih, hphi);

    // Overlap S = Phi_h^H Phi_h and M = Phi_h^H H Phi_h (replicated), from
    // one band->grid transpose of each block.
    la::MatC s, m;
    h_->overlap_pair(phih, hphi, &s, &m);

    // Projector part: P~ H Phi_h = Phi_h S^{-1} M.
    x = m;
    const la::MatC l = la::cholesky(s);
    la::cholesky_solve(l, x);
    const la::MatC proj = h_->rotate(phih, x);

    // Updates (Eq. 6).
    la::MatC phi_new(npw, nloc), sigma_new(nb, nb);
    for (size_t i = 0; i < phi_new.size(); ++i)
      phi_new.data()[i] =
          phin.data()[i] - idt * (hphi.data()[i] - proj.data()[i]);
    if (opt_.evolve_sigma) {
      la::MatC msh(nb, nb), shm(nb, nb);
      la::gemm_nn(m, sigmah, msh);
      la::gemm_nn(sigmah, m, shm);
      for (size_t i = 0; i < sigma_new.size(); ++i)
        sigma_new.data()[i] =
            sigman.data()[i] - idt * (msh.data()[i] - shm.data()[i]);
    } else {
      sigma_new = sigman;  // PT-CN: occupations frozen
    }

    // Residual of the fixed point: Phi part reduced over ranks, sigma part
    // (replicated) added once after the reduction.
    real_t acc[2] = {0.0, 0.0};
    for (size_t i = 0; i < phi_new.size(); ++i) {
      acc[0] += std::norm(phi_new.data()[i] - phi1.data()[i]);
      acc[1] += std::norm(phi1.data()[i]);
    }
    h_->comm().allreduce_sum(acc, 2);
    real_t rnum = acc[0], rden = acc[1];
    for (size_t i = 0; i < sigma_new.size(); ++i) {
      rnum += std::norm(sigma_new.data()[i] - sigma1.data()[i]);
      rden += std::norm(sigma1.data()[i]);
    }
    const real_t res = std::sqrt(rnum / std::max(rden, real_t(1e-30)));
    if (residual_out) *residual_out = res;
    if (res < opt_.tol) {
      phi1 = std::move(phi_new);
      sigma1 = std::move(sigma_new);
      break;
    }

    // Anderson mixing of the combined unknowns (Alg. 1 line 8).
    flatten(phi1, sigma1, xv);
    fv.resize(xv.size());
    for (size_t i = 0; i < phi1.size(); ++i)
      fv[i] = phi_new.data()[i] - phi1.data()[i];
    for (size_t i = 0; i < sigma1.size(); ++i)
      fv[phi1.size() + i] = sigma_new.data()[i] - sigma1.data()[i];
    unflatten(mixer.mix(xv, fv), phi1, sigma1);
  }
  return it;
}

// Alg. 1 line 13: orthogonalize Phi, conjugate-symmetrize sigma. The
// congruence sigma -> L^H sigma L keeps P = Phi sigma Phi^H invariant.
void PtImPropagator::commit(TdState& s, la::MatC phi1, la::MatC sigma1) {
  const la::MatC sfinal = h_->overlap(phi1, phi1);
  const la::MatC l = la::cholesky(sfinal);
  phi1 = h_->solve_upper_right(l, phi1);  // Phi <- Phi L^{-H}
  la::MatC tmp(sigma1.rows(), sigma1.cols());
  la::gemm('C', 'N', 1.0, l, sigma1, 0.0, tmp);  // L^H sigma
  la::gemm_nn(tmp, l, sigma1);                   // (L^H sigma) L
  la::hermitize(sigma1);

  s.phi = std::move(phi1);
  s.sigma = std::move(sigma1);
  s.time += opt_.dt;
}

void PtImPropagator::stage_ace_sources(StepSession& sess, const la::MatC& phi,
                                       la::MatC sigma) {
  ScopedTimer t("ptim.ace_prepare");
  sess.ace_phi = h_->eigen_rotate(phi, std::move(sigma), &sess.ace_occ);
}

PtImPropagator::StepSession PtImPropagator::step_begin(const TdState& s) {
  PTIM_CHECK_MSG(opt_.variant == PtImVariant::kAce && opt_.hybrid,
                 "staged stepping is defined for the kAce hybrid variant");
  bind(s);
  StepSession sess;
  sess.t_half = s.time + 0.5 * opt_.dt;
  sess.phi1 = s.phi;
  sess.sigma1 = s.sigma;
  // First inner SCF runs with the ACE built at t_n (Fig. 4b).
  stage_ace_sources(sess, s.phi, s.sigma);
  return sess;
}

bool PtImPropagator::step_advance(const TdState& s, StepSession& sess,
                                  const la::MatC& w) {
  // Install the ACE surrogate compressed from the staged sources and their
  // freshly applied exchange W, and estimate the Fock energy.
  const real_t ex = h_->set_ace(sess.ace_phi, sess.ace_occ, w);
  ++sess.stats.exchange_applications;

  if (sess.outer == 0) {
    sess.ex_prev = ex;  // the t_n build: no convergence check yet
  } else {
    const real_t dex = std::abs(ex - sess.ex_prev);
    sess.ex_prev = ex;
    if (dex < opt_.tol_fock || sess.outer >= opt_.max_outer) return false;
  }

  ++sess.stats.outer_iterations;
  sess.stats.scf_iterations +=
      fixed_point(s, sess.phi1, sess.sigma1, sess.t_half, &sess.residual);
  ++sess.outer;

  // Rebuild ACE from the converged midpoint state.
  stage_ace_sources(sess, midpoint(sess.phi1, s.phi),
                    midpoint(sess.sigma1, s.sigma));
  return true;
}

PtImStepStats PtImPropagator::step_finish(TdState& s, StepSession& sess) {
  sess.stats.residual = sess.residual;
  sess.stats.converged = sess.residual < opt_.tol;
  commit(s, std::move(sess.phi1), std::move(sess.sigma1));
  return sess.stats;
}

PtImStepStats PtImPropagator::step(TdState& s) {
  bind(s);
  // Span names the layer table keys on: a serial step, or one rank's
  // distributed step.
  ScopedTimer timer(h_->comm().size() == 1 ? "td.ptim_step" : "td.dist_step",
                    obs::Cat::kStep);

  if (opt_.variant == PtImVariant::kAce && opt_.hybrid) {
    // The ACE double loop, driven through the staged protocol (so the
    // golden-trajectory suite pins the same code the ensemble driver
    // batches): each round applies exchange to the staged sources, then
    // step_advance installs the ACE and runs the inner fixed point.
    StepSession sess = step_begin(s);
    la::MatC w = h_->exchange_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi);
    while (step_advance(s, sess, w))
      w = h_->exchange_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi);
    return step_finish(s, sess);
  }

  PtImStepStats stats;
  stats_ = &stats;
  la::MatC phi1 = s.phi;
  la::MatC sigma1 = s.sigma;
  stats.outer_iterations = 1;
  stats.scf_iterations =
      fixed_point(s, phi1, sigma1, s.time + 0.5 * opt_.dt, &stats.residual);
  stats.converged = stats.residual < opt_.tol;
  stats_ = nullptr;
  commit(s, std::move(phi1), std::move(sigma1));
  return stats;
}

}  // namespace ptim::td
