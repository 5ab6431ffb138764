#pragma once
// Shared fixtures: tiny silicon-like systems small enough for sub-second
// unit tests, random-matrix helpers, and the golden-trajectory fixture
// format every regression suite pins against (tests/golden/).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/rotate.hpp"
#include "grid/fft_grid.hpp"
#include "grid/gsphere.hpp"
#include "ham/hamiltonian.hpp"
#include "la/matrix.hpp"
#include "pseudo/atoms.hpp"
#include "pw/transforms.hpp"
#include "pw/wavefunction.hpp"

namespace ptim::test {

// A self-contained tiny periodic system: 2 Si atoms in a small cubic box.
struct TinySystem {
  std::unique_ptr<grid::Lattice> lattice;
  pseudo::AtomList atoms;
  std::unique_ptr<grid::GSphere> sphere;
  std::unique_ptr<grid::FftGrid> wfc_grid;
  std::unique_ptr<grid::FftGrid> den_grid;
  std::unique_ptr<ham::Hamiltonian> ham;

  static TinySystem make(real_t ecut = 3.0, real_t box = 8.0,
                         ham::HamiltonianOptions opt = {}) {
    TinySystem s;
    s.lattice = std::make_unique<grid::Lattice>(grid::Lattice::cubic(box));
    s.atoms.species = pseudo::Species::silicon_ah();
    s.atoms.positions = {{0.1 * box, 0.15 * box, 0.2 * box},
                         {0.6 * box, 0.55 * box, 0.65 * box}};
    s.sphere = std::make_unique<grid::GSphere>(*s.lattice, ecut);
    s.wfc_grid = std::make_unique<grid::FftGrid>(*s.lattice,
                                                 s.sphere->suggest_dims(1));
    s.den_grid = std::make_unique<grid::FftGrid>(*s.lattice,
                                                 s.sphere->suggest_dims(2));
    s.ham = std::make_unique<ham::Hamiltonian>(
        *s.lattice, s.atoms, *s.sphere, *s.wfc_grid, *s.den_grid, opt);
    return s;
  }
};

inline la::MatC random_matrix(size_t rows, size_t cols, unsigned seed) {
  Rng rng(seed);
  la::MatC m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_cplx();
  return m;
}

inline la::MatC random_hermitian(size_t n, unsigned seed) {
  la::MatC a = random_matrix(n, n, seed);
  la::MatC h(n, n);
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < n; ++i)
      h(i, j) = 0.5 * (a(i, j) + std::conj(a(j, i)));
  return h;
}

// Random Hermitian with eigenvalues in (0,1) — a physical occupation matrix.
inline la::MatC random_occupation_matrix(size_t n, unsigned seed) {
  la::MatC h = random_hermitian(n, seed);
  // Map spectrum into (0,1) via logistic of a scaled Hermitian: cheap —
  // shift/scale using Gershgorin bound.
  real_t bound = 0.0;
  for (size_t i = 0; i < n; ++i) {
    real_t row = 0.0;
    for (size_t j = 0; j < n; ++j) row += std::abs(h(i, j));
    bound = std::max(bound, row);
  }
  la::MatC occ(n, n);
  for (size_t j = 0; j < n; ++j)
    for (size_t i = 0; i < n; ++i)
      occ(i, j) = h(i, j) * (0.45 / std::max(bound, real_t(1.0)));
  for (size_t i = 0; i < n; ++i) occ(i, i) += 0.5;
  return occ;
}

// Orthonormal random orbitals on a sphere basis.
inline la::MatC random_orbitals(size_t npw, size_t nb, unsigned seed) {
  la::MatC phi = random_matrix(npw, nb, seed);
  pw::orthonormalize_lowdin(phi);
  return phi;
}

// This rank's block of alpha*Vx[src,d]*tgt from full (replicated) inputs:
// slices src, d and tgt over c.size() ranks with BlockLayout and calls the
// rank-local distributed exchange.
inline la::MatC exchange_block(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                               const la::MatC& src,
                               const std::vector<real_t>& d,
                               const la::MatC& tgt, dist::ExchangePattern pat) {
  const int me = c.rank();
  const dist::BlockLayout sb(src.cols(), c.size()), tb(tgt.cols(), c.size());
  const std::vector<real_t> d_local(
      d.begin() + static_cast<long>(sb.offset(me)),
      d.begin() + static_cast<long>(sb.offset(me) + sb.count(me)));
  return dist::exchange_apply_distributed_local(
      c, xop, dist::scatter_bands(src, sb, me), d_local,
      dist::scatter_bands(tgt, tb, me), sb, pat);
}

// ------------------------------------------------------ golden fixtures --
// Serialized per-step observables of a reference trajectory, pinned in
// tests/golden/ and replayed by regression suites (serial, band-parallel
// and 2-D band x grid configurations must all land within tolerance of the
// SAME file). Text format, one header line then one line per step with
// full-precision (%.17g) values:
//   # <free-form description>
//   step <k> energy <E> dipole <D> sigma_trace <T>
// PTIM_GOLDEN_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree fixture directory, so ctest can run from any build dir.
// Regenerate with PTIM_GOLDEN_REGEN=1 (see test_golden.cpp).

struct GoldenStep {
  real_t energy = 0.0;
  real_t dipole = 0.0;
  real_t sigma_trace = 0.0;
};

struct GoldenTrajectory {
  std::string description;
  std::vector<GoldenStep> steps;
};

inline std::string golden_path(const std::string& name) {
#ifdef PTIM_GOLDEN_DIR
  return std::string(PTIM_GOLDEN_DIR) + "/" + name;
#else
  return "tests/golden/" + name;
#endif
}

inline GoldenTrajectory golden_load(const std::string& name) {
  const std::string path = golden_path(name);
  std::FILE* f = std::fopen(path.c_str(), "r");
  PTIM_CHECK_MSG(f != nullptr, "golden fixture missing: " << path);
  GoldenTrajectory t;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    if (line[0] == '#') {
      t.description += line + 1;
      continue;
    }
    int k = 0;
    double e = 0.0, d = 0.0, tr = 0.0;
    if (std::sscanf(line, "step %d energy %lf dipole %lf sigma_trace %lf",
                    &k, &e, &d, &tr) == 4) {
      PTIM_CHECK_MSG(k == static_cast<int>(t.steps.size()),
                     "golden fixture out of order: " << path);
      t.steps.push_back({e, d, tr});
    }
  }
  std::fclose(f);
  PTIM_CHECK_MSG(!t.steps.empty(), "golden fixture empty: " << path);
  return t;
}

inline void golden_save(const std::string& name, const GoldenTrajectory& t) {
  const std::string path = golden_path(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  PTIM_CHECK_MSG(f != nullptr, "cannot write golden fixture: " << path);
  std::fprintf(f, "#%s\n", t.description.c_str());
  for (size_t k = 0; k < t.steps.size(); ++k)
    std::fprintf(f, "step %zu energy %.17g dipole %.17g sigma_trace %.17g\n",
                 k, t.steps[k].energy, t.steps[k].dipole,
                 t.steps[k].sigma_trace);
  std::fclose(f);
}

}  // namespace ptim::test
