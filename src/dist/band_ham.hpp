#pragma once
// Band-parallel view of the Kohn-Sham Hamiltonian: the layer the PT-IM
// propagator runs on (paper Secs. IV-B/IV-C). Every ptmpi rank owns a
// BlockLayout band slice of {Phi, sigma-contracted quantities}; nb x nb
// matrices (sigma, overlaps, M = Phi^H H Phi) stay replicated but are only
// ever produced from Allreduced data, so they are bit-identical on every
// rank. A serial run is the one-rank layout: the slice is the whole
// matrix, every collective is a local copy, and the circulations apply the
// one slab in place.
//
// Communication map (the measured analogue of Table I):
//  * exact exchange          — Bcast / Ring / Async-Ring slab circulation
//                              with the batched-FFT pair kernel inside each
//                              round (dist/exchange_dist),
//  * wavefunction rotations  — the same circulation over coefficient slabs
//                              (dist/rotate),
//  * overlaps S, M           — band->grid Alltoallv transpose + partial
//                              gemm + Allreduce, optionally staged through
//                              the node-shared window (dist/transpose),
//  * density                 — the sigma eigen-rotation (a band rotation),
//                              ham::density_diag on the local block +
//                              grid Allreduce,
//  * occupations / gathers   — Allgatherv.
//
// Each rank must bring its OWN ham::Hamiltonian instance (the Hamiltonian
// carries mutable density state); all instances see identical densities
// because rho is Allreduced before set_density. The layer never changes the
// Hamiltonian's exchange mode: it applies exchange itself and uses only the
// semilocal part of the Hamiltonian, so a caller's Hamiltonian keeps its
// Fock energy term.

#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "dist/slab_exchange.hpp"
#include "ham/hamiltonian.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

struct BandHamOptions {
  ExchangePattern pattern = ExchangePattern::kAsyncRing;
  // Stage overlap reductions through the MPI-3-style node-shared window
  // before the Allreduce (paper Fig. 6).
  bool overlap_shm = false;
  // 2-D band x grid process layout. With grid.pg == 1 (the default) the
  // construction is a bitwise no-op against the pure band-parallel path:
  // the world communicator IS the band communicator and no split happens.
  // With pg > 1 the world splits into pb band communicators (bands and all
  // nb x nb collectives live there) and pg grid communicators (the
  // real-space grid is z-slab-distributed and exact exchange runs through
  // dist/slab_exchange). Everything outside exchange is computed
  // redundantly (and therefore bit-identically) by the pg column replicas.
  ProcessGrid grid{};
};

// Mirrors ham::ExchangeMode for the band-distributed state.
enum class BandExchangeMode { kNone, kMixedNaive, kMixedDiag, kAce };

class BandDistributedHamiltonian {
 public:
  BandDistributedHamiltonian(ptmpi::Comm& c, ham::Hamiltonian& h,
                             size_t nbands, BandHamOptions opt = {});

  // The BAND communicator: the pb ranks this instance's band slices and
  // nb x nb collectives are distributed over. Equal to the construction
  // communicator when grid.pg == 1.
  ptmpi::Comm& comm() { return *c_; }
  ham::Hamiltonian& local() { return *h_; }
  const BlockLayout& bands() const { return bands_; }
  const BlockLayout& rows() const { return rows_; }
  const BandHamOptions& options() const { return opt_; }
  // Non-null iff grid.pg > 1 (the 2-D layout is active).
  GridContext* grid_context() { return gridctx_.get(); }

  // --- band-block collectives -----------------------------------------
  // Full nb x nb overlap A^H B from band blocks, replicated on every rank.
  // A == B transposes the argument only once.
  la::MatC overlap(const la::MatC& a_local, const la::MatC& b_local);
  // S = A^H A and M = A^H B from a single transpose of each argument — the
  // fixed-point loop's pair, where A (the midpoint wavefunction) is the
  // largest payload in the step.
  void overlap_pair(const la::MatC& a_local, const la::MatC& b_local,
                    la::MatC* aa, la::MatC* ab);
  // (A * R)[:, my bands] for replicated nb x nb R.
  la::MatC rotate(const la::MatC& a_local, const la::MatC& r);
  // A <- A L^{-H} (replicated lower-triangular L), serial-identical rows.
  la::MatC solve_upper_right(const la::MatC& l, const la::MatC& a_local);

  // --- density ----------------------------------------------------------
  // rho = 2 sum_b d_b |(Phi Q)_b(r)|^2 in sigma's eigenbasis (sigma =
  // Q D Q^H): eigen_rotate, ham::density_diag on this rank's block, then
  // the grid Allreduce (identical on every rank). At one rank this is
  // bitwise ham::density_sigma. naive = the paper's Alg. 2 baseline: at
  // one rank the N^2 pair sum of ham::density_sigma_naive runs instead.
  std::vector<real_t> density(const la::MatC& phi_local, const la::MatC& sigma,
                              bool naive = false);
  // The same density from an eigen_rotate result (rotated block and its
  // eigen-occupation slice), for callers that reuse the rotation.
  std::vector<real_t> density(const la::MatC& rot_local,
                              const std::vector<real_t>& occ_local);
  void set_density(const std::vector<real_t>& rho) { h_->set_density(rho); }

  // --- exchange configuration (the P in Vx[P]) -------------------------
  void set_exchange_none() { xmode_ = BandExchangeMode::kNone; }
  // Alg. 2 baseline. At one rank the full sigma is kept and the exchange
  // runs the naive N^3 pair loop (ExchangeOperator::apply_mixed_naive),
  // which is the cost the paper's BL -> Diag step removes. Distributed, the
  // sigma contraction rides along as theta = Phi sigma, circulated here.
  void set_exchange_source_mixed_naive(const la::MatC& phi_local,
                                       const la::MatC& sigma);
  // Diag optimization: exchange sources are an eigen_rotate result (the
  // rotated block and its eigen-occupation slice), circulated as they are.
  void set_exchange_source_mixed_diag(la::MatC rot_local,
                                      std::vector<real_t> occ_local);
  // Eigen-rotation of (Phi, sigma): hermitize sigma, diagonalize it
  // (replicated, so Q is identical on every rank) and return this rank's
  // block of Phi Q; occ_local receives the matching eigenvalue slice.
  la::MatC eigen_rotate(const la::MatC& phi_local, la::MatC sigma,
                        std::vector<real_t>* occ_local);
  // alpha Vx[src, d] tgt_local for diagonal occupations, through the
  // configured layout (1-D band circulation, or the 2-D slab path when
  // grid.pg > 1). Collective call.
  la::MatC exchange_diag(const la::MatC& src_local,
                         const std::vector<real_t>& d_local,
                         const la::MatC& tgt_local);
  // Install the ACE surrogate from sources (src, d) and their applied
  // exchange W = exchange_diag(src, d, src): Cholesky compression
  // xi = W L^{-H} of B = -src^H W. Returns the exchange-energy estimate
  // sum_b d_b <src_b|W_b> (replicated). Switches the mode to kAce.
  real_t set_ace(const la::MatC& src_local, const std::vector<real_t>& d_local,
                 const la::MatC& w_local);
  BandExchangeMode exchange_mode() const { return xmode_; }

  // --- application ------------------------------------------------------
  // hphi_local = H * phi_local (semilocal on the local block + the
  // configured exchange term). Collective call.
  void apply(const la::MatC& phi_local, la::MatC& hphi_local);

 private:
  la::MatC exchange_mixed(const la::MatC& src_local,
                          const la::MatC& theta_local,
                          const la::MatC& tgt_local);

  std::unique_ptr<GridContext> gridctx_;  // pg > 1 only; owns the splits
  ptmpi::Comm* c_;  // band communicator (world when pg == 1)
  ham::Hamiltonian* h_;
  BlockLayout bands_;
  BlockLayout rows_;
  BandHamOptions opt_;

  // One rank, no grid split: where the Alg. 2 baseline keeps its naive
  // density and exchange loops.
  bool one_rank_;

  BandExchangeMode xmode_ = BandExchangeMode::kNone;
  la::MatC xsrc_local_;    // rotated orbitals (diag) or raw Phi (naive)
  la::MatC xtheta_local_;  // Phi*sigma block (naive mode, distributed)
  la::MatC xsigma_;        // full sigma (naive mode, one rank)
  std::vector<real_t> xocc_local_;  // eigen-occupation slice (diag mode)
  la::MatC xi_local_;      // ACE projector block
};

}  // namespace ptim::dist
