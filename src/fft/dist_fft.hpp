#pragma once
// Distributed slab-decomposed 3-D FFT (the G-space dimension of the 2-D
// band x grid process layout; paper Sec. IV-B, and the scheme of the
// Summit PT-TDDFT and GPU-SPARC hybrid-functional codes).
//
// Decomposition over the pg ranks of a grid communicator:
//   * real space     — z slabs: rank g owns whole xy planes for the
//                      contiguous z range zslabs().offset(g) ..+count(g);
//                      local layout i0 + n0*(i1 + n1*z_local),
//   * reciprocal     — y pencils: rank g owns whole (x, z) sheets for the
//     space             i1 range yrows().offset(g) ..+count(g);
//                      local layout i0 + n0*(i1_local + ny_local*i2).
//
// forward: local axis-0/axis-1 transforms on the z slab, one Alltoallv
// pencil transpose, local axis-2 transforms on the y pencil. inverse runs
// the exact mirror (axis 2, transpose back, axis 1, axis 0, then the
// 1/size() scale). Because the serial engine (Fft3T) sweeps its axes in
// the same orders (forward 0->1->2, inverse 2->1->0) and every 1-D line
// goes through the same split-plane tile transforms, the distributed
// result is bit-identical to the serial one for any pg — including ranks
// that own zero planes (nz < pg or ny < pg; their Alltoallv rows are
// simply empty).
//
// Batched entry points move the whole batch through ONE Alltoallv, the
// distributed analogue of Fft3T::forward_batch. Templated over the scalar
// like the serial engine: DistFft3 (FP64) carries the exact-exchange pair
// transforms, DistFft3f the FP32 policy (half the transpose bytes).

#include <array>
#include <complex>
#include <vector>

#include "common/timer.hpp"
#include "dist/layout.hpp"
#include "fft/fft.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::fft {

template <typename R>
class DistFft3T {
 public:
  using C = std::complex<R>;

  // `grid_comm` is the pg-wide grid (column) communicator this transform
  // is collective over; the Comm is copied (it is a lightweight view).
  DistFft3T(std::array<size_t, 3> dims, ptmpi::Comm grid_comm);

  size_t n0() const { return n0_; }
  size_t n1() const { return n1_; }
  size_t n2() const { return n2_; }
  size_t size() const { return n0_ * n1_ * n2_; }

  const dist::BlockLayout& zslabs() const { return zslabs_; }
  const dist::BlockLayout& yrows() const { return yrows_; }

  // Local element counts of one array in each distribution.
  size_t nreal() const { return n0_ * n1_ * zslabs_.count(rank_); }
  size_t npencil() const { return n0_ * yrows_.count(rank_) * n2_; }

  // Global linear grid index (FftGrid convention) of pencil-local index i.
  size_t pencil_to_global(size_t i) const {
    const size_t nyloc = yrows_.count(rank_);
    const size_t i0 = i % n0_;
    const size_t i1 = yrows_.offset(rank_) + (i / n0_) % nyloc;
    const size_t i2 = i / (n0_ * nyloc);
    return i0 + n0_ * (i1 + n1_ * i2);
  }
  // Pencil-local index of global linear grid index g, or npos if the
  // (x, z) sheet of g's i1 row belongs to another rank.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t global_to_pencil(size_t g) const {
    const size_t i1 = (g / n0_) % n1_;
    const size_t y0 = yrows_.offset(rank_);
    if (i1 < y0 || i1 >= y0 + yrows_.count(rank_)) return npos;
    const size_t i0 = g % n0_;
    const size_t i2 = g / (n0_ * n1_);
    return i0 + n0_ * ((i1 - y0) + yrows_.count(rank_) * i2);
  }

  // nbatch consecutive nreal()-element slabs -> nbatch npencil() pencils.
  // Collective over the grid communicator. NOT reentrant per instance: the
  // staging/transpose scratch is persistent (hot-loop calls must not churn
  // the allocator), so one DistFft3T serves one stream of calls — the
  // slab-exchange contract, where every transform of a rank runs on that
  // rank's (single) compute stream.
  void forward(const C* slab, C* pencil, size_t nbatch = 1) const;
  // Exact inverse, scaled by 1/size() like the serial engine.
  void inverse(const C* pencil, C* slab, size_t nbatch = 1) const;

  ptmpi::Comm& comm() const { return comm_; }
  int rank() const { return rank_; }
  int parts() const { return zslabs_.parts(); }

  // Wall seconds spent inside forward()/inverse() on this rank (benches
  // report it as the slab-FFT column).
  double seconds() const { return seconds_; }
  void reset_seconds() { seconds_ = 0.0; }

 private:
  // Transpose z slabs (after the xy passes) into y pencils and back; pure
  // data movement via one Alltoallv per call, whole batch packed at once.
  void slab_to_pencil(const C* slab, C* pencil, size_t nbatch) const;
  void pencil_to_slab(const C* pencil, C* slab, size_t nbatch) const;

  size_t n0_, n1_, n2_;
  mutable ptmpi::Comm comm_;
  int rank_;
  dist::BlockLayout zslabs_;
  dist::BlockLayout yrows_;
  Plan1DT<R> p0_, p1_, p2_;
  mutable double seconds_ = 0.0;
  // Persistent scratch (see the reentrancy note on forward()): the staged
  // axis-pass copy and the transpose pack/unpack buffers, reused across
  // calls so the exchange hot loop performs no per-call allocations once
  // the high-water batch size has been seen.
  mutable std::vector<C> work_, sendbuf_, recvbuf_;
};

using DistFft3 = DistFft3T<real_t>;
using DistFft3f = DistFft3T<realf_t>;

extern template class DistFft3T<float>;
extern template class DistFft3T<double>;

}  // namespace ptim::fft
