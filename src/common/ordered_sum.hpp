#pragma once
// Deterministic parallel sums. An OpenMP reduction(+) clause combines the
// threads' partial sums in arrival order, so the same input can give
// results that differ in the last bit from call to call and between team
// widths. ordered_sum fixes the association instead: terms are summed in
// fixed chunks of `chunk` consecutive indices, and the chunk partials are
// added in index order — the same bits at every team width.

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace ptim {

// sum_{i < n} f(i). f is called exactly once per index (it may also write
// per-index outputs).
template <typename F>
real_t ordered_sum(size_t n, F&& f, size_t chunk = 256) {
  const size_t nchunk = (n + chunk - 1) / chunk;
  std::vector<real_t> part(nchunk);
#pragma omp parallel for schedule(static)
  for (size_t c = 0; c < nchunk; ++c) {
    const size_t end = std::min(n, (c + 1) * chunk);
    real_t acc = 0.0;
    for (size_t i = c * chunk; i < end; ++i) acc += f(i);
    part[c] = acc;
  }
  real_t acc = 0.0;
  for (const real_t p : part) acc += p;
  return acc;
}

}  // namespace ptim
