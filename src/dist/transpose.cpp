#include "dist/transpose.hpp"

#include <algorithm>
#include <vector>

#include "la/blas.hpp"

namespace ptim::dist {

la::MatC band_to_grid(ptmpi::Comm& c, const la::MatC& band_block,
                      const BlockLayout& bands, const BlockLayout& rows) {
  const int p = c.size();
  const int me = c.rank();
  const size_t npw = rows.total();
  const size_t my_nb = bands.count(me);
  const size_t my_rows = rows.count(me);
  PTIM_CHECK(band_block.rows() == npw && band_block.cols() == my_nb);
  if (p == 1) return band_block;  // one rank: both layouts are the matrix

  // To rank r: my bands' rows [rows.offset(r), +rows.count(r)), band-major.
  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] = rows.count(r) * my_nb;
    recv_counts[static_cast<size_t>(r)] = my_rows * bands.count(r);
    send_total += send_counts[static_cast<size_t>(r)];
    recv_total += recv_counts[static_cast<size_t>(r)];
  }
  std::vector<cplx> send(send_total), recv(recv_total);
  size_t pos = 0;
  for (int r = 0; r < p; ++r)
    for (size_t b = 0; b < my_nb; ++b) {
      const cplx* col = band_block.col(b) + rows.offset(r);
      std::copy(col, col + rows.count(r), send.begin() + pos);
      pos += rows.count(r);
    }
  c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);

  la::MatC g(my_rows, bands.total());
  pos = 0;
  for (int q = 0; q < p; ++q)
    for (size_t b = 0; b < bands.count(q); ++b) {
      std::copy(recv.begin() + pos, recv.begin() + pos + my_rows,
                g.col(bands.offset(q) + b));
      pos += my_rows;
    }
  return g;
}

la::MatC grid_to_band(ptmpi::Comm& c, const la::MatC& grid_block,
                      const BlockLayout& bands, const BlockLayout& rows) {
  const int p = c.size();
  const int me = c.rank();
  const size_t my_rows = rows.count(me);
  const size_t my_nb = bands.count(me);
  PTIM_CHECK(grid_block.rows() == my_rows &&
             grid_block.cols() == bands.total());
  if (p == 1) return grid_block;

  // To rank r: my row slab of r's bands, band-major — the mirror image of
  // band_to_grid's receive layout.
  std::vector<size_t> send_counts(static_cast<size_t>(p)),
      recv_counts(static_cast<size_t>(p));
  size_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    send_counts[static_cast<size_t>(r)] = my_rows * bands.count(r);
    recv_counts[static_cast<size_t>(r)] = rows.count(r) * my_nb;
    send_total += send_counts[static_cast<size_t>(r)];
    recv_total += recv_counts[static_cast<size_t>(r)];
  }
  std::vector<cplx> send(send_total), recv(recv_total);
  size_t pos = 0;
  for (int r = 0; r < p; ++r)
    for (size_t b = 0; b < bands.count(r); ++b) {
      const cplx* col = grid_block.col(bands.offset(r) + b);
      std::copy(col, col + my_rows, send.begin() + pos);
      pos += my_rows;
    }
  c.alltoallv(send.data(), send_counts, recv.data(), recv_counts);

  la::MatC band(rows.total(), my_nb);
  pos = 0;
  for (int q = 0; q < p; ++q)
    for (size_t b = 0; b < my_nb; ++b) {
      std::copy(recv.begin() + pos, recv.begin() + pos + rows.count(q),
                band.col(b) + rows.offset(q));
      pos += rows.count(q);
    }
  return band;
}

la::MatC overlap_distributed(ptmpi::Comm& c, const la::MatC& a,
                             const la::MatC& b, bool use_shm) {
  PTIM_CHECK(a.rows() == b.rows());
  const size_t m = a.cols(), n = b.cols();
  la::MatC local(m, n);
  la::gemm_cn(a, b, local);

  std::vector<cplx> buf(m * n, cplx(0.0));
  if (use_shm) {
    // Accumulate node-locally through a shared window; only node leaders
    // then carry data into the (single) Allreduce.
    cplx* win = c.shm_allocate("overlap_shm", m * n);
    for (int nr = 0; nr < c.ranks_per_node(); ++nr) {
      if (c.node_rank() == nr) {
        if (nr == 0)
          std::copy(local.data(), local.data() + m * n, win);
        else
          for (size_t i = 0; i < m * n; ++i) win[i] += local.data()[i];
      }
      c.barrier();
    }
    if (c.node_rank() == 0) std::copy(win, win + m * n, buf.begin());
    c.barrier();  // everyone reads/zeroes before the window is reused
  } else {
    std::copy(local.data(), local.data() + m * n, buf.begin());
  }
  c.allreduce_sum(buf.data(), m * n);

  la::MatC s(m, n);
  std::copy(buf.begin(), buf.end(), s.data());
  return s;
}

}  // namespace ptim::dist
