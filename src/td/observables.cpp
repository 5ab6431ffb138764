#include "td/observables.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/ordered_sum.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"

namespace ptim::td {

real_t dipole(const std::vector<real_t>& rho, const grid::FftGrid& g,
              const grid::Vec3& dir) {
  PTIM_CHECK(rho.size() == g.size());
  const auto& dims = g.dims();
  const grid::Vec3 center = g.lattice().center();
  // Per-plane partial sums added in plane order (ordered_sum, chunk 1).
  const real_t acc = ordered_sum(
      dims[2],
      [&](size_t i2) {
        real_t plane = 0.0;
        for (size_t i1 = 0; i1 < dims[1]; ++i1)
          for (size_t i0 = 0; i0 < dims[0]; ++i0) {
            const grid::Vec3 r = g.rvec(i0, i1, i2) - center;
            plane += grid::dot(r, dir) * rho[g.linear(i0, i1, i2)];
          }
        return plane;
      },
      1);
  return acc * g.dvol();
}

real_t current(const la::MatC& phi, const la::MatC& sigma,
               const grid::GSphere& sphere, const grid::Vec3& avec,
               const grid::Vec3& dir) {
  PTIM_CHECK(phi.rows() == sphere.npw() && sigma.rows() == phi.cols());
  la::MatC theta(phi.rows(), phi.cols());
  la::gemm_nn(phi, sigma, theta);
  real_t acc = 0.0;
  for (size_t g = 0; g < sphere.npw(); ++g) {
    const real_t kdir = grid::dot(sphere.gvec(g) + avec, dir);
    if (kdir == 0.0) continue;
    cplx s = 0.0;
    for (size_t b = 0; b < phi.cols(); ++b)
      s += std::conj(phi(g, b)) * theta(g, b);
    acc += kdir * std::real(s);
  }
  return 2.0 * acc / sphere.lattice().volume();
}

real_t sigma_trace(const la::MatC& sigma) {
  return std::real(la::trace(sigma));
}

real_t sigma_hermiticity_defect(const la::MatC& sigma) {
  return la::hermiticity_defect(sigma);
}

real_t sigma_idempotency_defect(const la::MatC& sigma) {
  la::MatC s2(sigma.rows(), sigma.cols());
  la::gemm_nn(sigma, sigma, s2);
  for (size_t i = 0; i < s2.size(); ++i) s2.data()[i] -= sigma.data()[i];
  return la::frob_norm(s2);
}

}  // namespace ptim::td
