#include "ham/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"

namespace ptim::ham {

namespace {

void check_batch_size(size_t bs) {
  if (bs == 0)
    throw Error(
        "ExchangeOptions::batch_size must be >= 1 (got 0): the batched "
        "pair-FFT pipeline needs at least one lane; use 1 for the per-pair "
        "baseline");
}

}  // namespace

ExchangeOperator::ExchangeOperator(const pw::SphereGridMap& wfc_map,
                                   ExchangeOptions opt)
    : map_(&wfc_map), opt_(opt) {
  // Validate the batch width here rather than deep inside an apply: a zero
  // width would otherwise surface as an opaque failure in the hot path.
  check_batch_size(opt.batch_size);
  const auto& g = wfc_map.grid();
  kernel_.resize(g.size());
  const real_t mu2 = opt.mu * opt.mu;
#pragma omp parallel for schedule(static)
  for (size_t i = 0; i < g.size(); ++i) {
    const real_t g2 = g.g2()[i];
    if (opt.screened) {
      kernel_[i] = (g2 < 1e-12)
                       ? kPi / mu2
                       : kFourPi / g2 * (1.0 - std::exp(-g2 / (4.0 * mu2)));
    } else {
      // Bare Coulomb with a spherical-truncation G=0 value: 2 pi Rc^2 with
      // Rc the radius of the sphere of equal cell volume.
      if (g2 < 1e-12) {
        const real_t omega = g.lattice().volume();
        const real_t rc = std::cbrt(3.0 * omega / kFourPi);
        kernel_[i] = kTwoPi * rc * rc;
      } else {
        kernel_[i] = kFourPi / g2;
      }
    }
  }
  // FP32 twin, rounded once from the FP64 table — kept regardless of the
  // initial precision so set_precision can toggle modes without a rebuild.
  kernelf_.resize(kernel_.size());
  for (size_t i = 0; i < kernel_.size(); ++i)
    kernelf_[i] = static_cast<realf_t>(kernel_[i]);
}

// Core pair loop shared by the diag paths. src_real holds source orbitals
// in real space; for each target j accumulate
//   acc_j(r) = sum_i d_i phi_i(r) * IFFT[ K(G) FFT[ conj(phi_i) psi_j ] ](r)
// and return -alpha * acc_j gathered to the sphere. Zero-occupation sources
// are compressed away, then the work is dispatched to the per-pair baseline
// or the batched-FFT hot path depending on ExchangeOptions::batch_size, and
// to the FP32 pipeline when the precision policy asks for it.
void ExchangeOperator::pair_accumulate(const cplx* src_real, size_t nsrc,
                                       const real_t* d, const la::MatC& tgt,
                                       la::MatC& out, bool accumulate) const {
  if (opt_.precision != Precision::kDouble) {
    // Down-convert the sources once at the edge; everything downstream of
    // this point runs the float pair pipeline.
    const size_t ng = map_->grid().size();
    std::vector<cplxf> srcf(nsrc * ng);
#pragma omp parallel for schedule(static)
    for (size_t i = 0; i < nsrc * ng; ++i)
      srcf[i] = static_cast<cplxf>(src_real[i]);
    pair_accumulate_f32(srcf.data(), nsrc, d, tgt, out, accumulate);
    return;
  }
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());

  std::vector<size_t> active;
  active.reserve(nsrc);
  for (size_t i = 0; i < nsrc; ++i)
    if (d[i] != 0.0) active.push_back(i);
  if (active.empty()) return;

  if (opt_.batch_size <= 1)
    pair_accumulate_single(src_real, d, active, tgt, out);
  else
    pair_accumulate_blocks(src_real, d, active, tgt, out);
}

void ExchangeOperator::pair_accumulate_f32(const cplxf* src_real, size_t nsrc,
                                           const real_t* d, const la::MatC& tgt,
                                           la::MatC& out,
                                           bool accumulate) const {
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());

  std::vector<size_t> active;
  active.reserve(nsrc);
  for (size_t i = 0; i < nsrc; ++i)
    if (d[i] != 0.0) active.push_back(i);
  if (active.empty()) return;

  pair_accumulate_blocks(src_real, d, active, tgt, out);
}

void ExchangeOperator::pair_accumulate_single(
    const cplx* src_real, const real_t* d, const std::vector<size_t>& active,
    const la::MatC& tgt, la::MatC& out) const {
  const size_t ng = map_->grid().size();
  const size_t ntgt = tgt.cols();
  const auto& fft3 = map_->grid().fft();

  std::vector<cplx> tgt_real(ng), pair(ng), acc(ng), gathered(tgt.rows());
  for (size_t j = 0; j < ntgt; ++j) {
    map_->to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    for (const size_t i : active) {
      const cplx* si = src_real + i * ng;
#pragma omp parallel for schedule(static)
      for (size_t r = 0; r < ng; ++r) pair[r] = std::conj(si[r]) * tgt_real[r];
      fft3.forward(pair.data());
      const real_t inv_ng = 1.0 / static_cast<real_t>(ng);
#pragma omp parallel for schedule(static)
      for (size_t r = 0; r < ng; ++r) pair[r] *= kernel_[r] * inv_ng;
      fft3.inverse(pair.data());
      fft_count += 2;
      // inverse() scaled by 1/Ng; undo it (we want the unscaled synthesis).
      const real_t w = d[i] * static_cast<real_t>(ng);
#pragma omp parallel for schedule(static)
      for (size_t r = 0; r < ng; ++r) acc[r] += w * si[r] * pair[r];
    }
    map_->to_sphere(acc.data(), gathered.data());
    cplx* oj = out.col(j);
    const real_t a = -opt_.alpha;
    for (size_t p = 0; p < tgt.rows(); ++p) oj[p] += a * gathered[p];
  }
}

// --- stage primitives ------------------------------------------------------
// The hot-path stages, each the exact loop the fused engines below are
// assembled from. They are public (and composed by dist/slab_exchange) so a
// stage-by-stage composition is bit-identical to the batched applies by
// construction.

template <typename CS>
void ExchangeOperator::pair_form_block(const CS* src_real, const size_t* idx,
                                       size_t nb, const CS* tgt_real, CS* block,
                                       size_t nloc) const {
  OBS_SPAN("xchg.pair_form", obs::Cat::kCompute);
  // Pair densities for the whole block, one fused parallel region.
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < nloc; ++r)
      block[i * nloc + r] =
          std::conj(src_real[idx[i] * nloc + r]) * tgt_real[r];
}

template <typename CS>
void ExchangeOperator::kernel_filter_block(CS* block, size_t nb) const {
  OBS_SPAN("xchg.kernel_filter", obs::Cat::kFft);
  using RS = typename CS::value_type;
  const size_t ng = map_->grid().size();
  const auto& fft3 = [&]() -> const auto& {
    if constexpr (std::is_same_v<CS, cplx>)
      return map_->grid().fft();
    else
      return map_->grid().fft_f32();
  }();
  const RS* kernel = [&] {
    if constexpr (std::is_same_v<CS, cplx>)
      return kernel_.data();
    else
      return kernelf_.data();
  }();
  const RS inv_ng = RS(1) / static_cast<RS>(ng);
  fft3.forward_batch(block, nb);
#pragma omp parallel for schedule(static) collapse(2)
  for (size_t i = 0; i < nb; ++i)
    for (size_t r = 0; r < ng; ++r) block[i * ng + r] *= kernel[r] * inv_ng;
  fft3.inverse_batch(block, nb);
  fft_count += static_cast<long>(2 * nb);
}

template <typename CS>
void ExchangeOperator::accumulate_block(const CS* src_real, const size_t* idx,
                                        const real_t* d, size_t nb,
                                        const CS* block, cplx* acc,
                                        size_t nloc) const {
  OBS_SPAN("xchg.accumulate", obs::Cat::kCompute);
  const size_t ng = map_->grid().size();
  // Fused accumulate over the block; parallel over grid points so the
  // acc[] updates never race.
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < nloc; ++r) {
    for (size_t i = 0; i < nb; ++i) {
      const size_t s = idx[i];
      // Undo the inverse-FFT 1/Ng scaling (unscaled synthesis wanted).
      acc[r] += (d[s] * static_cast<real_t>(ng)) *
                static_cast<cplx>(src_real[s * nloc + r]) *
                static_cast<cplx>(block[i * nloc + r]);
    }
  }
}

template <typename CS>
void ExchangeOperator::accumulate_weighted_block(const CS* weight_real,
                                                 const size_t* idx, size_t nb,
                                                 const CS* block, cplx* acc,
                                                 size_t nloc) const {
  const size_t ng = map_->grid().size();
#pragma omp parallel for schedule(static)
  for (size_t r = 0; r < nloc; ++r) {
    for (size_t i = 0; i < nb; ++i) {
      // Undo the inverse-FFT 1/Ng scaling (unscaled synthesis wanted).
      acc[r] += static_cast<real_t>(ng) *
                static_cast<cplx>(weight_real[idx[i] * nloc + r]) *
                static_cast<cplx>(block[i * nloc + r]);
    }
  }
}

void ExchangeOperator::gather_accumulate(const cplx* acc, cplx* scratch,
                                         cplx* out_col) const {
  OBS_SPAN("xchg.gather", obs::Cat::kCompute);
  map_->to_sphere(acc, scratch);
  const size_t npw = map_->sphere().npw();
  const real_t a = -opt_.alpha;
  for (size_t p = 0; p < npw; ++p) out_col[p] += a * scratch[p];
}

// The stage templates are defined here only; these are the scalars the
// pipelines run (FP64 and FP32 slabs).
template void ExchangeOperator::pair_form_block(const cplx*, const size_t*,
                                                size_t, const cplx*, cplx*,
                                                size_t) const;
template void ExchangeOperator::pair_form_block(const cplxf*, const size_t*,
                                                size_t, const cplxf*, cplxf*,
                                                size_t) const;
template void ExchangeOperator::kernel_filter_block(cplx*, size_t) const;
template void ExchangeOperator::kernel_filter_block(cplxf*, size_t) const;
template void ExchangeOperator::accumulate_block(const cplx*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplx*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::accumulate_block(const cplxf*, const size_t*,
                                                 const real_t*, size_t,
                                                 const cplxf*, cplx*,
                                                 size_t) const;
template void ExchangeOperator::accumulate_weighted_block(const cplx*,
                                                          const size_t*, size_t,
                                                          const cplx*, cplx*,
                                                          size_t) const;
template void ExchangeOperator::accumulate_weighted_block(const cplxf*,
                                                          const size_t*, size_t,
                                                          const cplxf*, cplx*,
                                                          size_t) const;

// Shared batched block engine for the diag paths, templated over the slab
// scalar: CS = cplx runs the FP64 pipeline, CS = cplxf the FP32 one (pair
// forming, FFTs and kernel filter in single precision; every float product
// is promoted to FP64 exactly once inside the accumulation). batch_size == 1
// degenerates to width-1 blocks, preserving the per-pair transform count.
// The body is a straight-line composition of the stage primitives above.
template <typename CS>
void ExchangeOperator::pair_accumulate_blocks(const CS* src_real,
                                              const real_t* d,
                                              const std::vector<size_t>& active,
                                              const la::MatC& tgt,
                                              la::MatC& out) const {
  const size_t ng = map_->grid().size();
  const size_t ntgt = tgt.cols();
  const size_t bs = opt_.batch_size;

  std::vector<CS> tgt_real(ng), block(bs * ng);
  std::vector<cplx> acc(ng), gathered(tgt.rows());
  for (size_t j = 0; j < ntgt; ++j) {
    map_->to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    for (size_t i0 = 0; i0 < active.size(); i0 += bs) {
      const size_t nb = std::min(bs, active.size() - i0);
      pair_form_block(src_real, active.data() + i0, nb, tgt_real.data(),
                      block.data(), ng);
      kernel_filter_block(block.data(), nb);
      accumulate_block(src_real, active.data() + i0, d, nb, block.data(),
                       acc.data(), ng);
    }
    gather_accumulate(acc.data(), gathered.data(), out.col(j));
  }
}

// Weighted-pair analogue of pair_accumulate_blocks (scalar occupation d_k
// replaced by the real-space weight field w_k), same CS convention.
template <typename CS>
void ExchangeOperator::weighted_blocks(const CS* src_real,
                                       const CS* weight_real, size_t nsrc,
                                       const la::MatC& tgt,
                                       la::MatC& out) const {
  const size_t ng = map_->grid().size();
  const size_t ntgt = tgt.cols();
  const size_t bs = opt_.batch_size;

  // Every source participates (the weight field carries the sigma
  // contraction), so the stage index list is the identity.
  std::vector<size_t> idx(nsrc);
  for (size_t i = 0; i < nsrc; ++i) idx[i] = i;

  std::vector<CS> tgt_real(ng), block(bs * ng);
  std::vector<cplx> acc(ng), gathered(tgt.rows());
  for (size_t j = 0; j < ntgt; ++j) {
    map_->to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    for (size_t i0 = 0; i0 < nsrc; i0 += bs) {
      const size_t nb = std::min(bs, nsrc - i0);
      pair_form_block(src_real, idx.data() + i0, nb, tgt_real.data(),
                      block.data(), ng);
      kernel_filter_block(block.data(), nb);
      accumulate_weighted_block(weight_real, idx.data() + i0, nb,
                                block.data(), acc.data(), ng);
    }
    gather_accumulate(acc.data(), gathered.data(), out.col(j));
  }
}

// Alg. 2 verbatim with the pair FFT inside the i loop on purpose — this
// reproduces the baseline's N^3 transform count (see DESIGN.md). With
// batch_size > 1 the i loop is blocked: each block member transforms its
// own (redundant) copy of the pair density, preserving the count while
// going through the batched FFT engine. Same CS convention as above.
template <typename CS>
void ExchangeOperator::mixed_naive_blocks(const la::Matrix<CS>& src_real,
                                          const la::MatC& sigma,
                                          const la::MatC& tgt,
                                          la::MatC& out) const {
  const size_t ng = map_->grid().size();
  const size_t nsrc = src_real.cols();
  const size_t bs = opt_.batch_size;

  std::vector<CS> tgt_real(ng), block(bs * ng);
  std::vector<cplx> acc(ng), gathered(tgt.rows());
  for (size_t j = 0; j < tgt.cols(); ++j) {
    map_->to_real(tgt.col(j), tgt_real.data());
    std::fill(acc.begin(), acc.end(), cplx(0.0));
    for (size_t k = 0; k < nsrc; ++k) {
      const CS* sk = src_real.col(k);
      std::vector<size_t> active;
      active.reserve(nsrc);
      for (size_t i = 0; i < nsrc; ++i)
        if (sigma(i, k) != cplx(0.0)) active.push_back(i);
      for (size_t i0 = 0; i0 < active.size(); i0 += bs) {
        const size_t nb = std::min(bs, active.size() - i0);
#pragma omp parallel for schedule(static) collapse(2)
        for (size_t i = 0; i < nb; ++i)
          for (size_t r = 0; r < ng; ++r)
            block[i * ng + r] = std::conj(sk[r]) * tgt_real[r];
        kernel_filter_block(block.data(), nb);
#pragma omp parallel for schedule(static)
        for (size_t r = 0; r < ng; ++r) {
          for (size_t i = 0; i < nb; ++i) {
            const cplx w = sigma(active[i0 + i], k) * static_cast<real_t>(ng);
            acc[r] += w * static_cast<cplx>(src_real.col(active[i0 + i])[r]) *
                      static_cast<cplx>(block[i * ng + r]);
          }
        }
      }
    }
    map_->to_sphere(acc.data(), gathered.data());
    cplx* oj = out.col(j);
    const real_t a = -opt_.alpha;
    for (size_t p = 0; p < tgt.rows(); ++p) oj[p] += a * gathered[p];
  }
}

void ExchangeOperator::apply_weighted_realspace(const cplx* src_real,
                                                const cplx* weight_real,
                                                size_t nsrc,
                                                const la::MatC& tgt,
                                                la::MatC& out,
                                                bool accumulate) const {
  if (opt_.precision != Precision::kDouble) {
    const size_t ng = map_->grid().size();
    std::vector<cplxf> srcf(nsrc * ng), wf(nsrc * ng);
#pragma omp parallel for schedule(static)
    for (size_t i = 0; i < nsrc * ng; ++i) {
      srcf[i] = static_cast<cplxf>(src_real[i]);
      wf[i] = static_cast<cplxf>(weight_real[i]);
    }
    apply_weighted_realspace(srcf.data(), wf.data(), nsrc, tgt, out,
                             accumulate);
    return;
  }
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());
  if (nsrc == 0) return;
  weighted_blocks(src_real, weight_real, nsrc, tgt, out);
}

void ExchangeOperator::apply_weighted_realspace(const cplxf* src_real,
                                                const cplxf* weight_real,
                                                size_t nsrc,
                                                const la::MatC& tgt,
                                                la::MatC& out,
                                                bool accumulate) const {
  if (!accumulate) out.fill(cplx(0.0));
  PTIM_CHECK(out.rows() == tgt.rows() && out.cols() == tgt.cols());
  if (nsrc == 0) return;
  weighted_blocks(src_real, weight_real, nsrc, tgt, out);
}

void ExchangeOperator::set_batch_size(size_t bs) {
  check_batch_size(bs);
  opt_.batch_size = bs;
}

void ExchangeOperator::apply_diag(const la::MatC& src,
                                  const std::vector<real_t>& d,
                                  const la::MatC& tgt, la::MatC& out,
                                  bool accumulate) const {
  ScopedTimer t("exchange.diag");
  PTIM_CHECK(d.size() == src.cols());
  if (opt_.precision != Precision::kDouble) {
    // Sources go straight to FP32 real space (down-convert at the edge).
    la::MatCf src_real;
    map_->to_real_batch(src, src_real);
    pair_accumulate_f32(src_real.data(), src_real.cols(), d.data(), tgt, out,
                        accumulate);
    return;
  }
  la::MatC src_real;
  map_->to_real_batch(src, src_real);
  pair_accumulate(src_real.data(), src_real.cols(), d.data(), tgt, out,
                  accumulate);
}

namespace {

// Per-job progress of a packed application (CS = cplx or cplxf, matching
// the operator's precision policy). Each cursor replays EXACTLY the loop
// structure of pair_accumulate_blocks — column by column, block by block in
// order — so sharing the FFT batch with other jobs cannot change its
// arithmetic.
template <typename CS>
struct PackedCursor {
  la::Matrix<CS> src_real;       // sources in real space (owned)
  const real_t* d = nullptr;     // occupations, indexed by `active`
  const la::MatC* tgt = nullptr;
  la::MatC* out = nullptr;
  std::vector<size_t> active;    // nonzero-occupation source list
  std::vector<CS> tgt_real;
  std::vector<cplx> acc, gathered;
  size_t j = 0;                  // current target column
  size_t i0 = 0;                 // next source block start within `active`
  bool col_open = false;
  bool done = false;
};

// Round-robin block engine over a pack of cursors: one batch_size block per
// unfinished job per round, one concatenated kernel_filter_block call, then
// per-job accumulation. Uses only the public stage primitives, so each
// job's per-block arithmetic is the fused engine's by construction.
template <typename CS>
void packed_blocks(const ExchangeOperator& x,
                   std::vector<PackedCursor<CS>>& cur) {
  const size_t ng = x.map().grid().size();
  const size_t bs = x.batch_size();
  std::vector<CS> block(cur.size() * bs * ng);
  struct Member {
    PackedCursor<CS>* c;
    size_t nb;
    size_t off;  // element offset into the shared block buffer
  };
  std::vector<Member> members;
  members.reserve(cur.size());
  for (;;) {
    members.clear();
    size_t width = 0;
    for (auto& c : cur) {
      if (c.done) continue;
      if (!c.col_open) {
        x.map().to_real(c.tgt->col(c.j), c.tgt_real.data());
        std::fill(c.acc.begin(), c.acc.end(), cplx(0.0));
        c.i0 = 0;
        c.col_open = true;
      }
      const size_t nb = std::min(bs, c.active.size() - c.i0);
      x.pair_form_block(c.src_real.data(), c.active.data() + c.i0, nb,
                        c.tgt_real.data(), block.data() + width * ng, ng);
      members.push_back({&c, nb, width});
      width += nb;
    }
    if (members.empty()) break;
    x.kernel_filter_block(block.data(), width);
    for (const Member& m : members) {
      PackedCursor<CS>& c = *m.c;
      x.accumulate_block(c.src_real.data(), c.active.data() + c.i0, c.d, m.nb,
                         block.data() + m.off * ng, c.acc.data(), ng);
      c.i0 += m.nb;
      if (c.i0 >= c.active.size()) {
        x.gather_accumulate(c.acc.data(), c.gathered.data(),
                            c.out->col(c.j));
        ++c.j;
        c.col_open = false;
        if (c.j >= c.tgt->cols()) c.done = true;
      }
    }
  }
}

template <typename CS>
void run_packed(const ExchangeOperator& x,
                const std::vector<ExchangeOperator::DiagApplyJob>& jobs) {
  const size_t ng = x.map().grid().size();
  std::vector<PackedCursor<CS>> cur(jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    const auto& job = jobs[k];
    PackedCursor<CS>& c = cur[k];
    x.map().to_real_batch(*job.src, c.src_real);
    c.d = job.d->data();
    c.tgt = job.tgt;
    c.out = job.out;
    c.active.reserve(job.d->size());
    for (size_t i = 0; i < job.d->size(); ++i)
      if ((*job.d)[i] != 0.0) c.active.push_back(i);
    c.tgt_real.resize(ng);
    c.acc.resize(ng);
    c.gathered.resize(job.tgt->rows());
    c.done = c.active.empty() || job.tgt->cols() == 0;
  }
  packed_blocks(x, cur);
}

}  // namespace

void ExchangeOperator::apply_diag_packed(const std::vector<DiagApplyJob>& jobs,
                                         bool accumulate) const {
  ScopedTimer t("exchange.diag_packed");
  for (const DiagApplyJob& job : jobs) {
    PTIM_CHECK(job.src && job.d && job.tgt && job.out);
    PTIM_CHECK(job.d->size() == job.src->cols());
    PTIM_CHECK(job.out->rows() == job.tgt->rows() &&
               job.out->cols() == job.tgt->cols());
    if (!accumulate) job.out->fill(cplx(0.0));
  }
  if (jobs.empty()) return;
  if (opt_.precision != Precision::kDouble)
    run_packed<cplxf>(*this, jobs);
  else
    run_packed<cplx>(*this, jobs);
}

void ExchangeOperator::apply_mixed_naive(const la::MatC& src,
                                         const la::MatC& sigma,
                                         const la::MatC& tgt, la::MatC& out,
                                         bool accumulate) const {
  ScopedTimer t("exchange.naive");
  const size_t nsrc = src.cols();
  PTIM_CHECK(sigma.rows() == nsrc && sigma.cols() == nsrc);
  if (!accumulate) out.fill(cplx(0.0));

  if (opt_.precision != Precision::kDouble) {
    la::MatCf src_real;
    map_->to_real_batch(src, src_real);
    mixed_naive_blocks(src_real, sigma, tgt, out);
    return;
  }
  la::MatC src_real;
  map_->to_real_batch(src, src_real);
  mixed_naive_blocks(src_real, sigma, tgt, out);
}

void ExchangeOperator::apply_mixed_diag(const la::MatC& src,
                                        const la::MatC& sigma,
                                        const la::MatC& tgt, la::MatC& out,
                                        bool accumulate) const {
  ScopedTimer t("exchange.mixed_diag");
  const size_t nsrc = src.cols();
  PTIM_CHECK(sigma.rows() == nsrc && sigma.cols() == nsrc);
  // sigma = Q D Q^H (Hermitian by construction in PT-IM). The
  // diagonalization and rotation stay FP64 in every precision mode — only
  // the pair pipeline inside apply_diag narrows.
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(src.rows(), nsrc);
  la::gemm_nn(src, eig.V, rotated);
  std::vector<real_t> d = eig.w;
  apply_diag(rotated, d, tgt, out, accumulate);
}

real_t ExchangeOperator::energy_diag(const la::MatC& src,
                                     const std::vector<real_t>& d) const {
  la::MatC w(src.rows(), src.cols());
  apply_diag(src, d, src, w, false);
  real_t e = 0.0;
  for (size_t b = 0; b < src.cols(); ++b)
    e += d[b] * std::real(la::dotc(src.rows(), src.col(b), w.col(b)));
  return e;
}

real_t ExchangeOperator::energy_mixed(const la::MatC& src,
                                      const la::MatC& sigma) const {
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(src.rows(), src.cols());
  la::gemm_nn(src, eig.V, rotated);
  return energy_diag(rotated, eig.w);
}

}  // namespace ptim::ham
