#pragma once
// Parallel-transport implicit-midpoint propagator for finite-temperature
// rt-TDDFT (paper Sec. II-A, Alg. 1) and its ACE-accelerated double-SCF
// variant (Sec. IV-A2, Fig. 4).
//
// One step solves the fixed-point equations (paper Eq. 6)
//   Phi_{n+1}  = Phi_n  - i dt (I - P~_{n+1/2}) H_{n+1/2} Phi_{n+1/2}
//   sigma_{n+1}= sigma_n- i dt [ Phi_{n+1/2}^H H Phi_{n+1/2}, sigma_{n+1/2} ]
// by self-consistent iteration with Anderson mixing of {Phi, sigma}
// (history 20, as in the paper), then orthonormalizes Phi and conjugate-
// symmetrizes sigma. When Phi is re-orthonormalized (Phi -> Phi L^{-H}),
// sigma is congruence-transformed (sigma -> L^H sigma L) so the physical
// density matrix P = Phi sigma Phi^H is untouched.
//
// There is one implementation, band-parallel (paper Secs. IV-B/IV-C): it
// runs on a dist::BandDistributedHamiltonian, each rank propagating its
// band slice of Phi while sigma and every nb x nb matrix stay replicated.
// A serial propagator is the one-rank layout on the calling thread, built
// by the ham::Hamiltonian constructor; there every collective is a copy and
// the arithmetic is the dense serial one bit for bit. Results are
// bit-identical across the ranks of one run; different rank counts agree
// to rounding (the golden fixture pins 1e-10).
//
// Variants map onto the paper's optimization ladder:
//   kBaseline — Alg. 2 naive mixed-state exchange (N^3 FFTs at one rank) +
//               naive density,
//   kDiag     — occupation-matrix diagonalization (N^2 FFTs),
//   kAce      — kDiag plus the ACE double loop (exact exchange applied only
//               once per outer iteration; the paper's 25 -> 5 reduction).

#include <memory>
#include <optional>

#include "dist/band_ham.hpp"
#include "ham/hamiltonian.hpp"
#include "ptmpi/comm.hpp"
#include "td/laser.hpp"
#include "td/state.hpp"

namespace ptim::td {

enum class PtImVariant { kBaseline, kDiag, kAce };

struct PtImOptions {
  real_t dt = 50.0 / units::au_time_as;  // 50 as, the paper's step
  int max_scf = 30;        // inner fixed-point cap (paper: ~25 avg / ~13 ACE)
  real_t tol = 1e-6;       // relative {Phi, sigma} residual
  int max_outer = 8;       // ACE outer loop cap (paper: ~5 avg)
  real_t tol_fock = 1e-6;  // exchange-energy outer tolerance (paper: 1e-6)
  size_t anderson_history = 20;
  real_t anderson_beta = 0.7;
  PtImVariant variant = PtImVariant::kDiag;
  bool hybrid = true;
  // When set, applied to the Hamiltonian's exchange operator at propagator
  // construction: the exchange pair FFTs (and, distributed, the ring slabs)
  // run at this precision while all propagator algebra — midpoints,
  // Anderson mixing, orthonormalization, sigma evolution — stays FP64.
  // Unset keeps whatever the Hamiltonian was configured with.
  std::optional<Precision> exchange_precision;
  // Execution backend of the distributed exchange ring (backend subsystem:
  // kHostSerial inline streams, kHostAsync overlapped compute/comm).
  // Applied like exchange_precision; unset keeps the Hamiltonian's
  // configuration. Trajectories are bit-identical across backends.
  std::optional<backend::Kind> exchange_backend;
  // false = PT-CN mode: freeze sigma and evolve only Phi — the earlier
  // parallel-transport Crank-Nicolson scheme (Jia et al., JCTC 2018) that
  // is valid for gapped/pure-state systems. PT-IM generalizes it to mixed
  // states; keeping both enables the paper's motivating comparison.
  bool evolve_sigma = true;
};

struct PtImStepStats {
  int scf_iterations = 0;        // inner iterations (summed over outer)
  int outer_iterations = 0;      // 1 for non-ACE variants
  int exchange_applications = 0; // full Vx*Phi evaluations this step
  real_t residual = 0.0;
  bool converged = false;
};

// This rank's band slice of a full state (sigma and time are replicated),
// and the full state back from every rank's slice — a collective over the
// band communicator.
TdState scatter_state(const TdState& full, const dist::BlockLayout& bands,
                      int rank);
TdState gather_state(ptmpi::Comm& c, const TdState& local,
                     const dist::BlockLayout& bands);

class PtImPropagator {
 public:
  // Serial propagator: wraps h in a one-rank band layer that it owns (built
  // at the first step, when the band count is known) and runs on the
  // calling thread.
  PtImPropagator(ham::Hamiltonian& h, PtImOptions opt, const LaserPulse* laser);
  // Propagator over a band layout; every rank of h.comm() steps its own
  // slice (TdState::phi holds this rank's bands). Collective calls.
  PtImPropagator(dist::BandDistributedHamiltonian& h, PtImOptions opt,
                 const LaserPulse* laser);
  ~PtImPropagator();

  // One PT-IM step. The returned stats are identical on every rank.
  PtImStepStats step(TdState& s);
  const PtImOptions& options() const { return opt_; }

  // --- staged stepping (kAce + hybrid only) ------------------------------
  // The ACE double loop of step() split at its exchange applications so an
  // external driver can batch the expensive W = (alpha Vx) Phi evaluation
  // across several trajectories (core::EnsembleDriver packs one
  // ExchangeOperator::DiagApplyJob per in-flight trajectory). Protocol:
  //
  //   auto sess = prop.step_begin(s);
  //   do {
  //     // W for THIS session's pending ACE sources, by any bit-identical
  //     // route (step() uses the band layer's exchange_diag; at one rank
  //     // the ensemble driver uses apply_diag_packed):
  //     xop.apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi, w, false);
  //   } while (prop.step_advance(s, sess, w));
  //   stats = prop.step_finish(s, sess);
  //
  // step() itself runs exactly this protocol, so the golden-trajectory
  // suite pins the staged path; a driver interleaving the advance calls of
  // several sessions gets per-trajectory results bitwise identical to
  // serial step() calls (each session keeps its own iteration order, and
  // the packed exchange is bitwise per job).
  struct StepSession {
    real_t t_half = 0.0;
    la::MatC phi1, sigma1;        // fixed-point iterate (phi1: this rank's)
    la::MatC ace_phi;             // pending ACE build sources: this rank's
    std::vector<real_t> ace_occ;  // rotated orbitals + eigen-occupations
    real_t ex_prev = 0.0;         // last exchange-energy estimate
    real_t residual = 0.0;
    int outer = 0;                // fixed-point rounds completed
    PtImStepStats stats;
  };

  // Initialize a session and stage the t_n ACE sources (Fig. 4b's first
  // build). The state must not be mutated until step_finish.
  StepSession step_begin(const TdState& s);
  // Consume W = (alpha Vx[ace_phi, ace_occ]) ace_phi for the pending
  // sources: install the ACE operator, run the convergence check, and —
  // when another round is due — run the inner fixed point and stage the
  // midpoint sources. Returns true while another W is needed.
  bool step_advance(const TdState& s, StepSession& sess, const la::MatC& w);
  // Orthonormalization epilogue; commits the new state and returns stats.
  PtImStepStats step_finish(TdState& s, StepSession& sess);

 private:
  // Point h_ at the owned one-rank layer for s's band count (Hamiltonian
  // constructor only; a no-op over a caller's band layer).
  void bind(const TdState& s);

  // Inner fixed-point loop with the currently configured exchange; updates
  // (phi1, sigma1) in place and returns iterations used.
  int fixed_point(const TdState& start, la::MatC& phi1, la::MatC& sigma1,
                  real_t t_half, real_t* residual_out);

  // Midpoint density and Hamiltonian (Eq. 5): set the density and refresh
  // the exchange source (Baseline / Diag; ACE is installed by
  // step_advance). Diag's density and exchange share one eigen-rotation.
  void set_midpoint(const la::MatC& phih, const la::MatC& sigmah);

  // Stage ACE build sources into the session: the eigen-rotation of
  // (phi, sigma) (the expensive exchange application on these sources is
  // the caller's job).
  void stage_ace_sources(StepSession& sess, const la::MatC& phi,
                         la::MatC sigma);

  // Alg. 1 line 13: orthonormalize, congruence-transform sigma, advance
  // time.
  void commit(TdState& s, la::MatC phi1, la::MatC sigma1);

  ham::Hamiltonian* local_;                       // this rank's Hamiltonian
  std::unique_ptr<ptmpi::SelfComm> self_;         // Hamiltonian ctor only
  std::unique_ptr<dist::BandDistributedHamiltonian> owned_;
  dist::BandDistributedHamiltonian* h_ = nullptr;
  PtImOptions opt_;
  const LaserPulse* laser_;
  PtImStepStats* stats_ = nullptr;  // active step statistics
};

}  // namespace ptim::td
