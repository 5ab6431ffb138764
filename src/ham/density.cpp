#include "ham/density.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/ordered_sum.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"

namespace ptim::ham {

std::vector<real_t> density_diag(const la::MatC& phi_coeffs,
                                 const std::vector<real_t>& occ,
                                 const pw::SphereGridMap& map) {
  ScopedTimer t("density.diag");
  PTIM_CHECK(occ.size() == phi_coeffs.cols());
  constexpr size_t kTile = 4;
  const size_t npw = phi_coeffs.rows();
  const size_t ng = map.grid().size();
  std::vector<size_t> live;  // occupied columns, in band order
  for (size_t b = 0; b < occ.size(); ++b)
    if (occ[b] != 0.0) live.push_back(b);

  std::vector<real_t> rho(ng, 0.0);
  la::MatC tile, real_tile;
  for (size_t t0 = 0; t0 < live.size(); t0 += kTile) {
    const size_t nt = std::min(kTile, live.size() - t0);
    real_t w[kTile] = {};
    tile.resize(npw, nt);
    for (size_t k = 0; k < nt; ++k) {
      const size_t b = live[t0 + k];
      w[k] = 2.0 * occ[b];
      std::copy(phi_coeffs.col(b), phi_coeffs.col(b) + npw, tile.col(k));
    }
    map.to_real_batch(tile, real_tile);
    const cplx* r = real_tile.data();
#pragma omp parallel for schedule(static)
    for (size_t j = 0; j < ng; ++j) {
      real_t acc = rho[j];
      for (size_t k = 0; k < nt; ++k) acc += w[k] * std::norm(r[k * ng + j]);
      rho[j] = acc;
    }
  }
  return rho;
}

std::vector<real_t> density_sigma(const la::MatC& phi_coeffs,
                                  const la::MatC& sigma,
                                  const pw::SphereGridMap& map) {
  ScopedTimer t("density.sigma");
  const size_t nb = phi_coeffs.cols();
  PTIM_CHECK(sigma.rows() == nb && sigma.cols() == nb);
  la::MatC s = sigma;
  la::hermitize(s);
  const auto eig = la::eig_herm(s);
  la::MatC rotated(phi_coeffs.rows(), nb);
  la::gemm_nn(phi_coeffs, eig.V, rotated);
  return density_diag(rotated, eig.w, map);
}

std::vector<real_t> density_sigma_naive(const la::MatC& phi_coeffs,
                                        const la::MatC& sigma,
                                        const pw::SphereGridMap& map) {
  ScopedTimer t("density.naive");
  const size_t nb = phi_coeffs.cols();
  PTIM_CHECK(sigma.rows() == nb && sigma.cols() == nb);
  const size_t ng = map.grid().size();

  la::MatC real_orbs;
  map.to_real_batch(phi_coeffs, real_orbs);

  std::vector<real_t> rho(ng, 0.0);
  for (size_t i = 0; i < nb; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      const cplx s = sigma(i, j);
      if (s == cplx(0.0)) continue;
      const cplx* pi = real_orbs.col(i);
      const cplx* pj = real_orbs.col(j);
#pragma omp parallel for schedule(static)
      for (size_t k = 0; k < ng; ++k)
        rho[k] += 2.0 * std::real(s * pi[k] * std::conj(pj[k]));
    }
  }
  return rho;
}

real_t integrate(const std::vector<real_t>& rho, const grid::FftGrid& g) {
  PTIM_CHECK(rho.size() == g.size());
  return ordered_sum(rho.size(), [&](size_t i) { return rho[i]; }) * g.dvol();
}

}  // namespace ptim::ham
