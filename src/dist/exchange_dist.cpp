#include "dist/exchange_dist.hpp"

#include <algorithm>

#include "backend/executor.hpp"
#include "dist/circulate.hpp"

namespace ptim::dist {

const char* pattern_name(ExchangePattern p) {
  switch (p) {
    case ExchangePattern::kBcast: return "bcast";
    case ExchangePattern::kRing: return "ring";
    case ExchangePattern::kAsyncRing: return "async";
  }
  return "?";
}

namespace {

// Circulation bodies shared by the FP64 and FP32 pipelines, templated over
// the slab scalar (CS = cplx or cplxf) so the precision modes cannot drift
// apart: with CS = cplxf the sources are down-converted once at the
// real-space edge and the ring moves half the bytes, while the apply
// overloads keep the accumulation into `out` FP64.

template <typename CS>
la::MatC diag_circulation(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                          const la::MatC& src_local,
                          const std::vector<real_t>& d_all,
                          const la::MatC& tgt_local,
                          const BlockLayout& src_bands, ExchangePattern pat) {
  const auto& map = xop.map();
  const size_t ng = map.grid().size();

  la::Matrix<CS> mine;
  map.to_real_batch(src_local, mine);

  la::MatC out(tgt_local.rows(), tgt_local.cols(), cplx(0.0));
  auto apply_block = [&](const CS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || tgt_local.cols() == 0) return;
    xop.apply_diag_realspace(slab, w, d_all.data() + src_bands.offset(origin),
                             tgt_local, out, /*accumulate=*/true);
  };
  circulate_slabs(c, src_bands, ng, mine.data(), pat, apply_block,
                  &backend::shared_executor(xop.options().backend));
  return out;
}

template <typename CS>
la::MatC mixed_circulation(ptmpi::Comm& c, const ham::ExchangeOperator& xop,
                           const la::MatC& src_local,
                           const la::MatC& theta_local,
                           const la::MatC& tgt_local,
                           const BlockLayout& src_bands, ExchangePattern pat) {
  const auto& map = xop.map();
  const size_t ng = map.grid().size();
  const size_t w_me = src_local.cols();

  // Payload per band: [phi_k | theta_k] real-space pair, so one circulation
  // moves both the bra orbital and its sigma-contracted weight.
  la::Matrix<CS> phi_r, theta_r;
  map.to_real_batch(src_local, phi_r);
  map.to_real_batch(theta_local, theta_r);
  std::vector<CS> mine(2 * w_me * ng);
  for (size_t b = 0; b < w_me; ++b) {
    std::copy(phi_r.col(b), phi_r.col(b) + ng, mine.begin() + 2 * b * ng);
    std::copy(theta_r.col(b), theta_r.col(b) + ng,
              mine.begin() + (2 * b + 1) * ng);
  }

  la::MatC out(tgt_local.rows(), tgt_local.cols(), cplx(0.0));
  std::vector<CS> phis, thetas;
  auto apply_block = [&](const CS* slab, int origin) {
    const size_t w = src_bands.count(origin);
    if (w == 0 || tgt_local.cols() == 0) return;
    phis.resize(w * ng);
    thetas.resize(w * ng);
    for (size_t b = 0; b < w; ++b) {
      std::copy(slab + 2 * b * ng, slab + (2 * b + 1) * ng,
                phis.begin() + b * ng);
      std::copy(slab + (2 * b + 1) * ng, slab + (2 * b + 2) * ng,
                thetas.begin() + b * ng);
    }
    xop.apply_weighted_realspace(phis.data(), thetas.data(), w, tgt_local, out,
                                 /*accumulate=*/true);
  };
  circulate_slabs(c, src_bands, 2 * ng, mine.data(), pat, apply_block,
                  &backend::shared_executor(xop.options().backend));
  return out;
}

}  // namespace

la::MatC exchange_apply_distributed_local(ptmpi::Comm& c,
                                          const ham::ExchangeOperator& xop,
                                          const la::MatC& src_local,
                                          const std::vector<real_t>& d_local,
                                          const la::MatC& tgt_local,
                                          const BlockLayout& src_bands,
                                          ExchangePattern pat) {
  const int p = c.size();
  const int me = c.rank();
  PTIM_CHECK(src_bands.parts() == p);
  PTIM_CHECK(d_local.size() == src_local.cols());
  PTIM_CHECK(src_local.cols() == src_bands.count(me));

  // Occupation slices are tiny; share them once so any origin's slab can be
  // weighted locally. They stay FP64 in every precision mode.
  std::vector<size_t> counts(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r)
    counts[static_cast<size_t>(r)] = src_bands.count(r);
  std::vector<real_t> d(src_bands.total());
  c.allgatherv(d_local.data(), d_local.size(), d.data(), counts);

  if (xop.options().precision != Precision::kDouble)
    return diag_circulation<cplxf>(c, xop, src_local, d, tgt_local, src_bands,
                                   pat);
  return diag_circulation<cplx>(c, xop, src_local, d, tgt_local, src_bands,
                                pat);
}

la::MatC exchange_apply_distributed_mixed_local(
    ptmpi::Comm& c, const ham::ExchangeOperator& xop, const la::MatC& src_local,
    const la::MatC& theta_local, const la::MatC& tgt_local,
    const BlockLayout& src_bands, ExchangePattern pat) {
  PTIM_CHECK(src_bands.parts() == c.size());
  PTIM_CHECK(src_local.cols() == src_bands.count(c.rank()));
  PTIM_CHECK(theta_local.cols() == src_local.cols());

  if (xop.options().precision != Precision::kDouble)
    return mixed_circulation<cplxf>(c, xop, src_local, theta_local, tgt_local,
                                    src_bands, pat);
  return mixed_circulation<cplx>(c, xop, src_local, theta_local, tgt_local,
                                 src_bands, pat);
}

}  // namespace ptim::dist
