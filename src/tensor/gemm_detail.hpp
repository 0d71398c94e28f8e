// Shared packing / register-blocking / K-blocking machinery behind the
// int8 GEMM kernels (qgemm.cpp) and their float twin (ops.cpp).
//
// One template on (element, widened-multiply, accumulator) types keeps the
// packing layout and blocking parameters in a single place: int8 kernels
// instantiate <int8_t, int16_t, int32_t> (widening so the inner loop
// auto-vectorizes to widening multiply-adds), float kernels
// <float, float, float>.
//
// Accumulation discipline: each output element is produced by exactly one
// row-panel task and accumulated through a single ascending-k chain (K
// blocks in order, one scalar accumulator per element inside the micro
// kernel). For integer types that makes any blocking bit-identical to the
// naive loop; for float it makes per-element rounding independent of row
// partitioning, so results match the serial kernel at any thread count.
// The int8 driver (qgemm_driver_into) adds a row-direct path for A operands
// with fewer than kGemmMr rows; the float twin always packs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/math_util.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor::detail {

inline constexpr size_t kGemmMr = 4;    // micro-kernel rows (A panel width)
inline constexpr size_t kGemmNr = 8;    // micro-kernel cols (B panel width)
inline constexpr size_t kGemmKc = 256;  // K cache block

/// Elements a packed-B scratch buffer must hold for an (n)-column operand:
/// one K block's worth of column panels, zero-padded to kGemmNr.
inline size_t pack_b_elems(size_t n) {
  return util::ceil_div(n, kGemmNr) * kGemmNr * kGemmKc;
}

/// A panel: kGemmMr rows interleaved column-major, zero-padded to kGemmMr
/// so the micro-kernel never branches on the ragged edge. `a`/`lda` address
/// the full operand; works for owning matrices and arena views alike.
template <typename T>
void pack_a_panel(const T* a, size_t lda, size_t i0, size_t h, size_t k0,
                  size_t kc, T* dst) {
  const T* base = a + i0 * lda + k0;
  for (size_t p = 0; p < kc; ++p) {
    for (size_t i = 0; i < kGemmMr; ++i) {
      dst[p * kGemmMr + i] = i < h ? base[i * lda + p] : T{};
    }
  }
}

/// B panels for a K block, normal (k x n) layout: panel cp holds columns
/// [cp*kGemmNr, ...) interleaved as [p][j], zero-padded to kGemmNr.
/// `M` is any row-major matrix-like type (Matrix or MatrixView).
template <typename M, typename T>
void pack_b_block(const M& b, size_t k0, size_t kc, size_t n, T* dst) {
  const size_t ldb = b.cols();
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    T* panel = dst + cp * kc * kGemmNr;
    const T* src = b.data() + k0 * ldb + j0;
    for (size_t p = 0; p < kc; ++p) {
      for (size_t j = 0; j < w; ++j) panel[p * kGemmNr + j] = src[j];
      for (size_t j = w; j < kGemmNr; ++j) panel[p * kGemmNr + j] = T{};
      src += ldb;
    }
  }
}

/// Same packed layout from a transposed (n x k) operand — the transpose
/// happens here, during packing, so the micro-kernel is shared.
template <typename M, typename T>
void pack_bt_block(const M& bt, size_t k0, size_t kc, size_t n, T* dst) {
  const size_t ldb = bt.cols();
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    T* panel = dst + cp * kc * kGemmNr;
    for (size_t j = 0; j < w; ++j) {
      const T* src = bt.data() + (j0 + j) * ldb + k0;
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = src[p];
    }
    for (size_t j = w; j < kGemmNr; ++j) {
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = T{};
    }
  }
}

/// Cursor over a RowSpanListI8's rows in ascending order: row() addresses
/// the current row, advance() steps to the next, crossing run boundaries
/// without a per-row search. Advancing past the final row is allowed (the
/// cursor is then never dereferenced).
struct SpanRowCursor {
  const RowSpanI8* run = nullptr;
  size_t offset = 0;  // row within *run

  const int8_t* row(size_t row_stride) const {
    return run->base + offset * row_stride;
  }
  void advance() {
    if (++offset == run->rows) {
      offset = 0;
      ++run;
    }
  }
};

/// Cursor positioned at logical row `row` (< list.rows) of `list`.
inline SpanRowCursor span_row_cursor(const RowSpanListI8& list, size_t row) {
  SpanRowCursor cur{list.runs.data(), row};
  while (cur.offset >= cur.run->rows) {
    cur.offset -= cur.run->rows;
    ++cur.run;
  }
  return cur;
}

/// Element readers for a span-list B operand: load(row, j) returns
/// element j of the row starting at `row`. The span pack functions and
/// the row-direct loops read B only through one of these, so one loop
/// body serves every stored format.

/// The bytes are int8 values.
struct Int8Load {
  int8_t operator()(const int8_t* row, size_t j) const { return row[j]; }
};

/// The bytes are stored codes, read through a 256-entry dequant table.
struct LutLoad {
  const int8_t* lut;
  int8_t operator()(const int8_t* row, size_t j) const {
    return lut[static_cast<uint8_t>(row[j])];
  }
};

/// Two 4-bit codes per byte (low nibble = even element), each read
/// through the dequant table.
struct NibbleLutLoad {
  const int8_t* lut;
  int8_t operator()(const int8_t* row, size_t j) const {
    const auto byte = static_cast<uint8_t>(row[j / 2]);
    return lut[j % 2 == 0 ? byte & 0x0f : byte >> 4];
  }
};

/// Calls `f` with the load functor that reads `b`'s elements — the one
/// place a span list's storage format is dispatched on.
template <typename F>
void with_span_load(const RowSpanListI8& b, const F& f) {
  if (b.nibbles) {
    f(NibbleLutLoad{b.decode});
  } else if (b.decode != nullptr) {
    f(LutLoad{b.decode});
  } else {
    f(Int8Load{});
  }
}

/// pack_b_block over a span-list operand (list.rows x list.cols = k x n):
/// B's rows stream straight out of the runs' storage — packing is the
/// only stage that touches B element-by-element, so reading the runs here
/// makes the whole GEMM gather-free while the micro-kernel stays put.
/// Stored codes become int8 values through `load` in the same pass, so
/// the micro-kernel and everything downstream see plain int8. Zero
/// padding stays literal 0: padded lanes are synthesized in the decoded
/// domain.
template <typename Load>
void pack_b_block_spans(const RowSpanListI8& b, size_t k0, size_t kc,
                        size_t n, Load load, int8_t* dst) {
  // Row-major walk: each block-strided source row (potentially a whole
  // pooled token row away from its neighbor) is touched exactly once and
  // scattered across every column panel — the panel writes land in the
  // small dense pack buffer, so the expensive strided traffic stays
  // single-pass.
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  SpanRowCursor cur = span_row_cursor(b, k0);
  for (size_t p = 0; p < kc; ++p) {
    const int8_t* src = cur.row(b.row_stride);
    for (size_t cp = 0; cp < col_panels; ++cp) {
      const size_t j0 = cp * kGemmNr;
      const size_t w = std::min(kGemmNr, n - j0);
      int8_t* panel_row = dst + cp * kc * kGemmNr + p * kGemmNr;
      for (size_t j = 0; j < w; ++j) panel_row[j] = load(src, j0 + j);
      for (size_t j = w; j < kGemmNr; ++j) panel_row[j] = 0;
    }
    cur.advance();
  }
}

/// pack_bt_block over a span-list operand (list.rows x list.cols = n x k):
/// packed column j is list row j (K in Q.K^T), transposed during packing
/// exactly like pack_bt_block. Rows ascend monotonically across the
/// column panels, so one cursor walk per K block covers the whole pack.
template <typename Load>
void pack_bt_block_spans(const RowSpanListI8& bt, size_t k0, size_t kc,
                         size_t n, Load load, int8_t* dst) {
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  SpanRowCursor cur = span_row_cursor(bt, 0);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    int8_t* panel = dst + cp * kc * kGemmNr;
    for (size_t j = 0; j < w; ++j) {
      const int8_t* src = cur.row(bt.row_stride);
      for (size_t p = 0; p < kc; ++p) {
        panel[p * kGemmNr + j] = load(src, k0 + p);
      }
      cur.advance();
    }
    for (size_t j = w; j < kGemmNr; ++j) {
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = 0;
    }
  }
}

/// kGemmMr x kGemmNr register block; operands are widened to Mul before
/// multiplying.
template <typename T, typename Mul, typename Acc>
void micro_kernel(size_t kc, const T* __restrict ap, const T* __restrict bp,
                  Acc* __restrict acc) {
  for (size_t p = 0; p < kc; ++p) {
    const T* arow = ap + p * kGemmMr;
    const T* brow = bp + p * kGemmNr;
    for (size_t i = 0; i < kGemmMr; ++i) {
      const Mul ai = static_cast<Mul>(arow[i]);
      Acc* accrow = acc + i * kGemmNr;
      for (size_t j = 0; j < kGemmNr; ++j) {
        accrow[j] += static_cast<Acc>(ai * static_cast<Mul>(brow[j]));
      }
    }
  }
}

/// Allocation-free driver core: `c` is the caller's (m x n) output and
/// `bbuf` the caller's packed-B scratch (>= pack_b_elems(n) elements —
/// the workspace arena provides both on the runtime's steady-state path).
template <typename T, typename Mul, typename Acc, typename PackB>
void gemm_driver_into(const T* a, size_t m, size_t k, size_t n, Acc* c,
                      T* bbuf, util::ThreadPool* pool, const PackB& pack_b) {
  std::fill(c, c + m * n, Acc{});
  if (m == 0 || n == 0 || k == 0) return;

  const size_t row_panels = util::ceil_div(m, kGemmMr);
  const size_t col_panels = util::ceil_div(n, kGemmNr);

  for (size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const size_t kc = std::min(kGemmKc, k - k0);
    pack_b(k0, kc, bbuf);

    auto row_panel_task = [&](size_t rp) {
      alignas(64) T apanel[kGemmMr * kGemmKc];
      alignas(64) Acc acc[kGemmMr * kGemmNr];
      const size_t i0 = rp * kGemmMr;
      const size_t h = std::min(kGemmMr, m - i0);
      pack_a_panel(a, k, i0, h, k0, kc, apanel);
      for (size_t cp = 0; cp < col_panels; ++cp) {
        std::fill(acc, acc + kGemmMr * kGemmNr, Acc{});
        micro_kernel<T, Mul, Acc>(kc, apanel, bbuf + cp * kc * kGemmNr,
                                  acc);
        const size_t j0 = cp * kGemmNr;
        const size_t w = std::min(kGemmNr, n - j0);
        for (size_t i = 0; i < h; ++i) {
          Acc* crow = c + (i0 + i) * n + j0;
          const Acc* accrow = acc + i * kGemmNr;
          for (size_t j = 0; j < w; ++j) crow[j] += accrow[j];
        }
      }
    };

    if (pool != nullptr && pool->size() > 1 && row_panels > 1) {
      pool->parallel_for(0, row_panels, row_panel_task);
    } else {
      for (size_t rp = 0; rp < row_panels; ++rp) row_panel_task(rp);
    }
  }
}

// --- Row-direct int8 path ----------------------------------------------------
//
// A decode step multiplies one activation row by a whole weight matrix.
// Through the packed path that row is zero-padded to kGemmMr (3/4 of the
// micro-kernel's lanes multiply zeros) and all K x N of B is copied to do
// K x N MACs. An A operand with fewer than kGemmMr rows instead computes
// each output row straight from B's native layout, with no pack at all:
// one dot product per B row when B is stored transposed (n x k), an axpy
// over B rows when it is stored (k x n). Integer accumulation is exact, so
// the sums are the packed path's bit for bit.

/// c(i,j) = sum_p a(i,p) * bt(j,p): list row j is B^T's row j (k wide).
/// Each K block of A's rows is widened to int16 once and reused against
/// every B row, which lets the dot product lower to pairwise widening
/// multiply-adds. `c` must be zeroed.
template <typename Load>
void row_direct_dot(const int8_t* a, size_t m, size_t k,
                    const RowSpanListI8& bt, Load load, int32_t* c) {
  const size_t n = bt.rows;
  alignas(64) int16_t aw[kGemmMr][kGemmKc];
  for (size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const size_t kc = std::min(kGemmKc, k - k0);
    for (size_t i = 0; i < m; ++i) {
      std::copy(a + i * k + k0, a + i * k + k0 + kc, aw[i]);
    }
    SpanRowCursor cur = span_row_cursor(bt, 0);
    for (size_t j = 0; j < n; ++j) {
      const int8_t* brow = cur.row(bt.row_stride);
      for (size_t i = 0; i < m; ++i) {
        int32_t sum = 0;
        for (size_t p = 0; p < kc; ++p) {
          sum += int32_t{aw[i][p]} * int32_t{load(brow, k0 + p)};
        }
        c[i * n + j] += sum;
      }
      cur.advance();
    }
  }
}

/// c(i,:) += a(i,p) * b(p,:) over p: list row p is B's row p (n wide).
/// Two B rows per pass halve the read-modify-writes of `c`, which must be
/// zeroed.
template <typename Load>
void row_direct_axpy(const int8_t* a, size_t m, size_t k,
                     const RowSpanListI8& b, Load load, int32_t* c) {
  const size_t n = b.cols;
  SpanRowCursor cur = span_row_cursor(b, 0);
  size_t p = 0;
  for (; p + 2 <= k; p += 2) {
    const int8_t* r0 = cur.row(b.row_stride);
    cur.advance();
    const int8_t* r1 = cur.row(b.row_stride);
    cur.advance();
    for (size_t i = 0; i < m; ++i) {
      const int32_t a0 = a[i * k + p];
      const int32_t a1 = a[i * k + p + 1];
      int32_t* crow = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += a0 * load(r0, j) + a1 * load(r1, j);
      }
    }
  }
  if (p < k) {
    const int8_t* r0 = cur.row(b.row_stride);
    for (size_t i = 0; i < m; ++i) {
      const int32_t a0 = a[i * k + p];
      int32_t* crow = c + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] += a0 * load(r0, j);
    }
  }
}

/// The int8 driver every qgemm entry point runs through, and the one place
/// the path is chosen: fewer than kGemmMr rows of A go row-direct, reading
/// B's elements through `load`; the rest pack through `pack_b` into the
/// 4x8 micro-kernel. `b` addresses B in its native layout (a dense
/// operand is a one-run list); `b_transposed` says it is stored (n x k).
/// `c` is the (a.rows x n) output, `bbuf` the packed-B scratch.
template <typename Load, typename PackB>
void qgemm_driver_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                       bool b_transposed, Load load, MatrixViewI32 c,
                       int8_t* bbuf, util::ThreadPool* pool,
                       const PackB& pack_b) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b_transposed ? b.rows : b.cols;
  if (m >= kGemmMr) {
    gemm_driver_into<int8_t, int16_t, int32_t>(a.data(), m, k, n, c.data(),
                                               bbuf, pool, pack_b);
    return;
  }
  c.fill(0);
  if (m == 0 || n == 0 || k == 0) return;
  if (b_transposed) {
    row_direct_dot(a.data(), m, k, b, load, c.data());
  } else {
    row_direct_axpy(a.data(), m, k, b, load, c.data());
  }
}

/// Owning-output convenience: resizes `c` and allocates the packing
/// scratch per call (the float kernels).
template <typename T, typename Mul, typename Acc, typename PackB>
void gemm_driver(const Matrix<T>& a, size_t n, Matrix<Acc>& c,
                 util::ThreadPool* pool, const PackB& pack_b) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  c = Matrix<Acc>(m, n, Acc{});
  std::vector<T> bbuf(pack_b_elems(n));
  gemm_driver_into<T, Mul, Acc>(a.data(), m, k, n, c.data(), bbuf.data(),
                                pool, pack_b);
}

}  // namespace protea::tensor::detail
