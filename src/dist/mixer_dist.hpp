#pragma once
// Band-parallel Anderson mixing for the distributed PT-IM fixed point
// (Alg. 1 line 8). Each rank mixes the concatenation of its OWN band block
// of Phi (the "local" part) and the replicated sigma (the "shared" part,
// bit-identical on every rank). The least-squares problem is solved with
// the same modified Gram-Schmidt as la::lsq_solve, but every inner product
// is formed globally: local contributions are Allreduced in rank order and
// the shared tail continues that sum once — so the mixing coefficients
// theta match the serial la::AndersonMixer on the assembled vector to
// rounding (bitwise at one rank), and are bit-identical across ranks.

#include <deque>
#include <vector>

#include "common/types.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

class DistAndersonMixer {
 public:
  // local_dim: rank-local vector length (this rank's Phi block);
  // shared_dim: replicated tail length (sigma), identical on every rank.
  DistAndersonMixer(ptmpi::Comm& c, size_t local_dim, size_t shared_dim,
                    size_t max_history = 20, real_t beta = 0.7,
                    real_t regularization = 1e-12);

  // x/f are (local ++ shared) concatenations; the shared part must be
  // bit-identical on every rank (it is, because it is produced from
  // Allreduced data). Collective call.
  std::vector<cplx> mix(const std::vector<cplx>& x,
                        const std::vector<cplx>& f);

  void reset();
  size_t history_size() const { return hist_x_.size(); }

 private:
  // Global <a|b> over (local ++ shared ++ aug) with aug rows counted once.
  cplx gdot(const std::vector<cplx>& a, const std::vector<cplx>& b,
            size_t aug_len);

  ptmpi::Comm* c_;
  size_t local_dim_;
  size_t shared_dim_;
  size_t max_history_;
  real_t beta_;
  real_t reg_;
  std::deque<std::vector<cplx>> hist_x_;
  std::deque<std::vector<cplx>> hist_f_;
};

}  // namespace ptim::dist
