#pragma once
// The propagated state of a finite-temperature rt-TDDFT run: orbitals Phi
// (parallel-transport gauge) and the occupation-number matrix sigma, with
// the physical density matrix P = Phi sigma Phi^H (paper Eq. 2). Inside a
// band-distributed run phi holds this rank's band slice (the whole matrix
// at one rank) while sigma and time are replicated.

#include "la/matrix.hpp"

namespace ptim::td {

struct TdState {
  la::MatC phi;    // npw x N (npw x this rank's bands when distributed)
  la::MatC sigma;  // N x N Hermitian, eigenvalues in [0, 1]
  real_t time = 0.0;

  size_t nbands() const { return sigma.rows(); }

  static TdState from_occupations(la::MatC phi0,
                                  const std::vector<real_t>& occ) {
    TdState s;
    s.phi = std::move(phi0);
    s.sigma.resize(s.phi.cols(), s.phi.cols());
    for (size_t i = 0; i < occ.size(); ++i) s.sigma(i, i) = occ[i];
    return s;
  }
};

}  // namespace ptim::td
