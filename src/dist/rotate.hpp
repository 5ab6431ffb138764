#pragma once
// Ring-based wavefunction rotation (the paper's band-parallel workhorse):
// every column mix Phi' = Phi * R — sigma-eigenvector rotations, the
// parallel-transport projector Phi * S^{-1}M, ACE applications — needs data
// from every band, so band blocks circulate exactly like the exchange
// slabs. Rank r enters holding its npw x bands.count(r) block of Phi and a
// replicated nb x nb matrix R, and leaves holding its block of Phi * R.

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "la/matrix.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// out_local = (A * R)[:, bands-of-this-rank], with A band-distributed over
// c.size() ranks and R replicated (bands.total() x bands.total()).
la::MatC rotate_bands(ptmpi::Comm& c, const la::MatC& a_local,
                      const la::MatC& r, const BlockLayout& bands,
                      ExchangePattern pattern);
// out_local += (A * R)[:, bands-of-this-rank], one accumulating gemm per
// circulated block (at one rank: la::gemm_nn with beta = 1).
void rotate_bands_add(ptmpi::Comm& c, const la::MatC& a_local,
                      const la::MatC& r, const BlockLayout& bands,
                      ExchangePattern pattern, la::MatC& out_local);

// Rank-local band slice / reassembly helpers.
la::MatC scatter_bands(const la::MatC& full, const BlockLayout& bands,
                       int rank);
la::MatC gather_bands(ptmpi::Comm& c, const la::MatC& a_local,
                      const BlockLayout& bands);

// X <- A * L^{-H} for band-distributed A with L replicated lower-triangular
// (the ACE basis transform and the PT-IM re-orthonormalization). Internally
// transposes to the grid layout, runs the serial row-wise triangular solve
// on the local row slab — arithmetically identical to the serial
// la::solve_upper_right — and transposes back.
la::MatC solve_upper_right_distributed(ptmpi::Comm& c, const la::MatC& l,
                                       const la::MatC& a_local,
                                       const BlockLayout& bands,
                                       const BlockLayout& rows);

}  // namespace ptim::dist
