#pragma once
// Screened Fock exchange operator (the hybrid-functional cost driver).
//
// Kernel: HSE-style short-range Coulomb, K(G) = 4 pi/G^2 (1 - e^{-G^2/4 mu^2})
// with the finite limit K(0) = pi/mu^2 — this is why Gamma-only hybrid
// calculations are well-posed here. A bare-Coulomb mode with a spherically
// truncated G = 0 regularization is provided for ablation.
//
// Three application paths, mirroring the paper's progression:
//  * apply_diag        — diagonal occupations d_i: O(N^2) pair FFTs
//                        (Eq. 9 / Eq. 13),
//  * apply_mixed_naive — Alg. 2 verbatim: triple (k,i,j) loop with the FFT
//                        in the innermost loop, O(N^3) FFTs. This is the
//                        paper's baseline *including* its redundancy,
//  * apply_mixed_diag  — the "Diag" optimization: sigma = Q D Q^H,
//                        phi' = Phi Q, then apply_diag (Sec. IV-A1).
// All produce identical results (tests enforce agreement to 1e-12).
//
// Every path runs complex pair densities conj(phi_i) psi_j through complex
// FFTs: PT-IM propagates complex orbitals, so there is no real-field
// (Γ-point, r2c) variant of the pipeline.
//
// Precision policy (ExchangeOptions::precision): with Precision::kSingle
// the pair densities, their FFTs and the kernel multiply run in FP32 —
// sources and targets are down-converted once at the real-space edge — while
// the per-grid-point accumulation of the exchange contribution and the final
// gather back to the sphere stay in FP64. The same policy makes the
// distributed ring circulate FP32 slabs (half the bytes); see
// dist/exchange_dist. The propagated trajectory is always FP64.
//
// The mixing fraction alpha is folded into the returned operator so callers
// always see  out (+)= alpha * Vx[P] * targets.

#include <atomic>
#include <vector>

#include "backend/backend.hpp"
#include "la/matrix.hpp"
#include "pw/transforms.hpp"

namespace ptim::ham {

struct ExchangeOptions {
  real_t alpha = 0.25;  // hybrid mixing fraction (HSE06)
  real_t mu = 0.106;    // screening parameter, bohr^-1 (HSE06: 0.2 A^-1)
  bool screened = true;
  // Source orbitals per batched-FFT block. Pair densities are formed,
  // transformed and accumulated in blocks of this size through
  // Fft3::forward_batch/inverse_batch; 1 selects the original per-pair
  // path (one FFT at a time), kept as the ablation baseline.
  size_t batch_size = 8;
  // Scalar type of the pair-FFT hot path and ring payloads (see above).
  Precision precision = Precision::kDouble;
  // Execution backend of the distributed ring exchange (dist/): the
  // stream-pipelined engine runs on kHostSerial (inline, the bitwise
  // reference) or kHostAsync (the slab transfer overlaps the previous
  // slab's compute). Bit-identical in both.
  backend::Kind backend = backend::default_kind();
};

class ExchangeOperator {
 public:
  ExchangeOperator(const pw::SphereGridMap& wfc_map, ExchangeOptions opt);

  const ExchangeOptions& options() const { return opt_; }
  const std::vector<real_t>& kernel() const { return kernel_; }
  // FP32 twin of the kernel table (rounded once) — the slab-distributed
  // exchange filter (dist/slab_exchange) indexes it by global grid index.
  const std::vector<realf_t>& kernel_f32() const { return kernelf_; }

  // Switch the pair-FFT precision in place (both kernel tables are always
  // built); benches/tests sweep modes on one operator this way.
  void set_precision(Precision p) { opt_.precision = p; }
  Precision precision() const { return opt_.precision; }

  // Execution backend of the distributed ring (see ExchangeOptions).
  void set_backend(backend::Kind k) { opt_.backend = k; }
  backend::Kind backend() const { return opt_.backend; }

  // Batched-FFT block width of the pair pipeline. Bit-identical across
  // widths (the per-column block partitioning only regroups the same
  // per-lane transforms and the same in-order FP64 accumulation), so this
  // is a pure throughput knob. A width of 0 throws (as in the constructor).
  void set_batch_size(size_t bs);
  size_t batch_size() const { return opt_.batch_size; }

  // out (+)= alpha*Vx*tgt with sources (src, d). src/tgt/out: npw x nband.
  void apply_diag(const la::MatC& src, const std::vector<real_t>& d,
                  const la::MatC& tgt, la::MatC& out,
                  bool accumulate = false) const;

  // One independent apply_diag problem of a packed application: the job's
  // sources/occupations/targets are its own, only the batched pair FFTs are
  // shared with the other jobs of the pack.
  struct DiagApplyJob {
    const la::MatC* src = nullptr;        // npw x nsrc source orbitals
    const std::vector<real_t>* d = nullptr;  // nsrc occupations
    const la::MatC* tgt = nullptr;        // npw x ntgt targets
    la::MatC* out = nullptr;              // accumulated result, tgt shape
  };

  // Apply several independent diag-exchange problems through SHARED batched
  // pair FFTs: each round takes one batch_size block from every unfinished
  // job, concatenates them into a single forward/inverse batch, then
  // accumulates each slice back into its own job. The ensemble driver packs
  // one job per in-flight trajectory this way. Per job the result is
  // BITWISE identical to a standalone apply_diag call: every job keeps its
  // own column order, block partitioning and FP64 accumulation order, and
  // each lane of the batched FFT transforms independently of its neighbors
  // (see fft/fft.hpp).
  void apply_diag_packed(const std::vector<DiagApplyJob>& jobs,
                         bool accumulate = false) const;

  // Paper Alg. 2 baseline: full sigma, triple loop, FFT innermost.
  void apply_mixed_naive(const la::MatC& src, const la::MatC& sigma,
                         const la::MatC& tgt, la::MatC& out,
                         bool accumulate = false) const;

  // Diag optimization: diagonalize sigma, rotate sources, call apply_diag.
  void apply_mixed_diag(const la::MatC& src, const la::MatC& sigma,
                        const la::MatC& tgt, la::MatC& out,
                        bool accumulate = false) const;

  // Partial application with sources already in real space: the primitive
  // used by the distributed Bcast/Ring/Async patterns (src/dist), where the
  // circulating blocks are real-space orbital slabs. out (+)= contribution
  // of these sources only.
  void apply_diag_realspace(const la::MatC& src_real,
                            const std::vector<real_t>& d, const la::MatC& tgt,
                            la::MatC& out, bool accumulate) const {
    PTIM_CHECK(d.size() == src_real.cols());
    PTIM_CHECK(src_real.rows() == map_->grid().size());
    pair_accumulate(src_real.data(), src_real.cols(), d.data(), tgt, out,
                    accumulate);
  }

  // Raw-pointer variant for circulating ring buffers (dist layer): nsrc
  // real-space orbitals stored contiguously, nsrc occupation weights.
  void apply_diag_realspace(const cplx* src_real, size_t nsrc,
                            const real_t* d, const la::MatC& tgt,
                            la::MatC& out, bool accumulate) const {
    pair_accumulate(src_real, nsrc, d, tgt, out, accumulate);
  }
  // FP32-slab variant: the sources arrive as single-precision real-space
  // orbitals (the distributed ring's halved payload) and feed the FP32 pair
  // kernel directly — no intermediate up-conversion.
  void apply_diag_realspace(const cplxf* src_real, size_t nsrc,
                            const real_t* d, const la::MatC& tgt,
                            la::MatC& out, bool accumulate) const {
    pair_accumulate_f32(src_real, nsrc, d, tgt, out, accumulate);
  }

  // Generalized pair accumulation for the distributed mixed-state (full
  // sigma) path: the scalar occupation d_k is replaced by a real-space
  // weight field w_k = Theta_k = sum_i sigma_ik phi_i, so
  //   out_j (+)= -alpha sum_k w_k(r) IFFT[K FFT[conj(src_k) psi_j]](r).
  // With w_k = d_k src_k this reduces to apply_diag_realspace; with
  // Theta = Phi*sigma it equals apply_mixed_naive without requiring every
  // rank to hold the full source block.
  void apply_weighted_realspace(const cplx* src_real, const cplx* weight_real,
                                size_t nsrc, const la::MatC& tgt, la::MatC& out,
                                bool accumulate) const;
  // FP32-slab variant (distributed ring payloads in single precision).
  void apply_weighted_realspace(const cplxf* src_real,
                                const cplxf* weight_real, size_t nsrc,
                                const la::MatC& tgt, la::MatC& out,
                                bool accumulate) const;

  // --- stage primitives --------------------------------------------------
  // The hot-path stages of the batched diag/weighted pipelines. The batched
  // apply paths below and dist/slab_exchange are built from exactly these
  // calls, so any stage-by-stage composition is bit-identical to the fused
  // host apply. idx selects source columns: source i of the block is column
  // idx[i] of src_real (the compressed active-occupation list).
  //
  // Each stage is one template over the slab scalar (CS = cplx for the FP64
  // pipeline, cplxf for FP32), explicitly instantiated in exchange.cpp. nloc is the per-orbital element
  // count (column stride and loop bound): map().grid().size() for the
  // rank-local paths, the z-slab size for the 2-D band x grid layout. The
  // unscaled-synthesis weight always uses the GLOBAL grid size (it undoes
  // the inverse-FFT 1/Ng normalization, a property of the transform, not of
  // the slab), so the slab composition stays bit-identical to the full-grid
  // one on the points each rank owns.
  //
  // pair_form_block: block[i] = conj(src[idx[i]]) ⊙ tgt_real (nb pairs).
  template <typename CS>
  void pair_form_block(const CS* src_real, const size_t* idx, size_t nb,
                       const CS* tgt_real, CS* block, size_t nloc) const;
  // kernel_filter_block: forward batch FFT, K(G)/Ng multiply, inverse batch
  // FFT on nb full-grid pair densities (with FFT-count bookkeeping).
  template <typename CS>
  void kernel_filter_block(CS* block, size_t nb) const;
  // accumulate_block: acc[r] += sum_i d[idx[i]]*Ng * src[idx[i]](r) *
  // block[i](r), FP64 regardless of the block scalar.
  template <typename CS>
  void accumulate_block(const CS* src_real, const size_t* idx, const real_t* d,
                        size_t nb, const CS* block, cplx* acc,
                        size_t nloc) const;
  // Weighted variant (mixed-state path): the scalar occupation is replaced
  // by the real-space weight field w, acc[r] += sum_i Ng * w[idx[i]](r) *
  // block[i](r).
  template <typename CS>
  void accumulate_weighted_block(const CS* weight_real, const size_t* idx,
                                 size_t nb, const CS* block, cplx* acc,
                                 size_t nloc) const;
  // gather_accumulate: out_col[p] += -alpha * to_sphere(acc)[p]. scratch
  // must hold npw elements; always FP64 (the paper keeps the gather exact).
  void gather_accumulate(const cplx* acc, cplx* scratch, cplx* out_col) const;

  // Real-space transform helper for the distributed paths.
  const pw::SphereGridMap& map() const { return *map_; }

  // Exchange energy E_x = alpha * sum_i d_i <phi_i|Vx|phi_i> (negative).
  // Pass the same orbitals as sources and probes.
  real_t energy_diag(const la::MatC& src, const std::vector<real_t>& d) const;
  real_t energy_mixed(const la::MatC& src, const la::MatC& sigma) const;

  // FFT count bookkeeping (reset per bench) — validates the paper's
  // N^3 -> N^2 complexity claims. Counted identically in both precisions.
  mutable std::atomic<long> fft_count{0};

 private:
  void pair_accumulate(const cplx* src_real, size_t nsrc, const real_t* d,
                       const la::MatC& tgt, la::MatC& out,
                       bool accumulate) const;
  // Per-pair baseline (batch_size == 1): one FFT at a time, per-loop
  // OpenMP regions — the ablation reference.
  void pair_accumulate_single(const cplx* src_real, const real_t* d,
                              const std::vector<size_t>& active,
                              const la::MatC& tgt, la::MatC& out) const;
  // Batched hot path: blocks of batch_size pair densities through the
  // batched FFT with fused elementwise passes.
  void pair_accumulate_batched(const cplx* src_real, const real_t* d,
                               const std::vector<size_t>& active,
                               const la::MatC& tgt, la::MatC& out) const;
  // FP32 pipeline: float sources, float pair FFTs, FP64 accumulation.
  // batch_size == 1 runs width-1 blocks so the transform count matches the
  // per-pair baseline exactly.
  void pair_accumulate_f32(const cplxf* src_real, size_t nsrc,
                           const real_t* d, const la::MatC& tgt, la::MatC& out,
                           bool accumulate) const;
  // One block engine per apply shape, templated over the slab scalar
  // (CS = cplx for the FP64 pipeline, cplxf for FP32): pair forming, the
  // kernel filter and the FP64 accumulation share a single body so the
  // precision modes cannot drift apart. Defined in exchange.cpp only.
  template <typename CS>
  void pair_accumulate_blocks(const CS* src_real, const real_t* d,
                              const std::vector<size_t>& active,
                              const la::MatC& tgt, la::MatC& out) const;
  template <typename CS>
  void weighted_blocks(const CS* src_real, const CS* weight_real, size_t nsrc,
                       const la::MatC& tgt, la::MatC& out) const;
  template <typename CS>
  void mixed_naive_blocks(const la::Matrix<CS>& src_real,
                          const la::MatC& sigma, const la::MatC& tgt,
                          la::MatC& out) const;

  const pw::SphereGridMap* map_;
  ExchangeOptions opt_;
  std::vector<real_t> kernel_;    // K(G) on the wavefunction grid
  std::vector<realf_t> kernelf_;  // K(G) rounded once for the FP32 path
};

}  // namespace ptim::ham
