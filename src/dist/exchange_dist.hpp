#pragma once
// Distributed exact-exchange application (paper Fig. 5): every rank owns a
// band block of targets and a band block of sources; real-space source
// slabs circulate so each rank accumulates every source's contribution
// onto its local targets. Three circulation patterns, matching Table I
// (see dist/pattern.hpp). All produce results identical to the serial
// operator.
//
// Each rank passes only the band blocks it owns (the layout of the PT-IM
// propagator state); callers holding full matrices slice them with
// dist::scatter_bands first.

#include <vector>

#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "ham/exchange.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

// Diagonal-occupation exchange on rank-local blocks: this rank holds
// src_local = src[:, src_bands-of-rank] with occupations d_local (same
// slice) and an arbitrary-width local target block. Occupation slices are
// shared once with Allgatherv; real-space source slabs then circulate in
// the requested pattern. Returns alpha*Vx[src,d]*tgt_local
// (npw x tgt_local.cols()).
la::MatC exchange_apply_distributed_local(ptmpi::Comm& c,
                                          const ham::ExchangeOperator& xop,
                                          const la::MatC& src_local,
                                          const std::vector<real_t>& d_local,
                                          const la::MatC& tgt_local,
                                          const BlockLayout& src_bands,
                                          ExchangePattern p);

// Mixed-state (full sigma) exchange on rank-local blocks. The sigma
// contraction is carried by theta_local = (Phi * sigma)[:, local bands]:
// pairs of (phi_k, theta_k) real-space slabs circulate and each round
// accumulates -alpha sum_k theta_k(r) V[conj(phi_k) tgt_j](r) — equal to
// the serial apply_mixed_naive without replicating Phi or sigma.
la::MatC exchange_apply_distributed_mixed_local(
    ptmpi::Comm& c, const ham::ExchangeOperator& xop, const la::MatC& src_local,
    const la::MatC& theta_local, const la::MatC& tgt_local,
    const BlockLayout& src_bands, ExchangePattern p);

}  // namespace ptim::dist
