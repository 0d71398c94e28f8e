#include "tensor/qgemm.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/gemm_detail.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor {
namespace {

std::unique_ptr<util::ThreadPool>& default_pool_storage() {
  static std::unique_ptr<util::ThreadPool> pool;
  return pool;
}

}  // namespace

void qgemm(const MatrixI8& a, const MatrixI8& b, MatrixI32& c,
           util::ThreadPool* pool) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm: inner dimension mismatch");
  }
  c = MatrixI32(a.rows(), b.cols());
  std::vector<int8_t> pack(qgemm_pack_elems(b.cols()));
  qgemm_into(a, b, c, pack, pool);
}

void qgemm_bt(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c,
              util::ThreadPool* pool) {
  if (a.cols() != bt.cols()) {
    throw std::invalid_argument("qgemm_bt: inner dimension mismatch");
  }
  c = MatrixI32(a.rows(), bt.rows());
  std::vector<int8_t> pack(qgemm_pack_elems(bt.rows()));
  qgemm_bt_into(a, bt, c, pack, pool);
}

size_t qgemm_pack_elems(size_t n) { return detail::pack_b_elems(n); }

namespace {

void check_into_args(ConstMatrixViewI8 a, size_t b_k, size_t b_n,
                     MatrixViewI32 c, std::span<int8_t> pack_buf,
                     const char* name) {
  if (a.cols() != b_k) {
    throw std::invalid_argument(std::string(name) +
                                ": inner dimension mismatch");
  }
  if (c.rows() != a.rows() || c.cols() != b_n) {
    throw std::invalid_argument(std::string(name) +
                                ": output view shape mismatch");
  }
  if (pack_buf.size() < qgemm_pack_elems(b_n)) {
    throw std::invalid_argument(std::string(name) +
                                ": packing scratch too small");
  }
}

void check_span_list(const RowSpanListI8& list, const char* name) {
  size_t total = 0;
  for (const RowSpanI8& run : list.runs) {
    // The span cursor steps from one run to the next as it leaves a run,
    // so an empty run would be read as if it held rows.
    if (run.rows == 0) {
      throw std::invalid_argument(std::string(name) + ": empty span run");
    }
    total += run.rows;
  }
  if (total != list.rows) {
    throw std::invalid_argument(std::string(name) +
                                ": span run rows do not sum to rows");
  }
  if (list.rows > 0 && list.row_stride < list.cols) {
    throw std::invalid_argument(std::string(name) +
                                ": span row stride below row width");
  }
}

const int8_t* check_lut(const int8_t* lut, const char* name) {
  if (lut == nullptr) {
    throw std::invalid_argument(std::string(name) + ": null dequant table");
  }
  return lut;
}

/// A dense operand as a one-run span list, so the row-direct path reads
/// every B layout through the same cursor.
RowSpanListI8 one_run(ConstMatrixViewI8 m, const RowSpanI8& run,
                      const int8_t* decode = nullptr) {
  return {std::span<const RowSpanI8>(&run, 1), m.rows(), m.cols(), m.cols(),
          decode};
}

/// c = a * B with B a span list, packed straight from its runs (decoding
/// stored codes when the list carries a table).
void run_spans(ConstMatrixViewI8 a, const RowSpanListI8& b, bool b_transposed,
               MatrixViewI32 c, std::span<int8_t> pack_buf,
               util::ThreadPool* pool) {
  const size_t n = b_transposed ? b.rows : b.cols;
  detail::qgemm_driver_into(
      a, b, b_transposed, c, pack_buf.data(), pool,
      [&](size_t k0, size_t kc, int8_t* dst) {
        if (b_transposed) {
          if (b.decode != nullptr) {
            detail::pack_bt_block_spans_lut(b, k0, kc, n, b.decode, dst);
          } else {
            detail::pack_bt_block_spans(b, k0, kc, n, dst);
          }
        } else if (b.decode != nullptr) {
          detail::pack_b_block_spans_lut(b, k0, kc, n, b.decode, dst);
        } else {
          detail::pack_b_block_spans(b, k0, kc, n, dst);
        }
      });
}

}  // namespace

void qgemm_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b, MatrixViewI32 c,
                std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, b.rows(), b.cols(), c, pack_buf, "qgemm_into");
  const RowSpanI8 rows{b.data(), b.rows()};
  detail::qgemm_driver_into(
      a, one_run(b, rows), false, c, pack_buf.data(), pool,
      [&](size_t k0, size_t kc, int8_t* dst) {
        detail::pack_b_block(b, k0, kc, b.cols(), dst);
      });
}

void qgemm_bt_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt, MatrixViewI32 c,
                   std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, bt.cols(), bt.rows(), c, pack_buf, "qgemm_bt_into");
  const RowSpanI8 rows{bt.data(), bt.rows()};
  detail::qgemm_driver_into(
      a, one_run(bt, rows), true, c, pack_buf.data(), pool,
      [&](size_t k0, size_t kc, int8_t* dst) {
        detail::pack_bt_block(bt, k0, kc, bt.rows(), dst);
      });
}

void qgemm_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                      MatrixViewI32 c, std::span<int8_t> pack_buf,
                      util::ThreadPool* pool) {
  check_into_args(a, b.rows, b.cols, c, pack_buf, "qgemm_spans_into");
  check_span_list(b, "qgemm_spans_into");
  run_spans(a, b, false, c, pack_buf, pool);
}

void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf,
                         util::ThreadPool* pool) {
  check_into_args(a, bt.cols, bt.rows, c, pack_buf, "qgemm_bt_spans_into");
  check_span_list(bt, "qgemm_bt_spans_into");
  run_spans(a, bt, true, c, pack_buf, pool);
}

void qgemm_lut_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b,
                    const int8_t* lut, MatrixViewI32 c,
                    std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, b.rows(), b.cols(), c, pack_buf, "qgemm_lut_into");
  const RowSpanI8 rows{b.data(), b.rows()};
  run_spans(a, one_run(b, rows, check_lut(lut, "qgemm_lut_into")), false, c,
            pack_buf, pool);
}

void qgemm_bt_lut_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt,
                       const int8_t* lut, MatrixViewI32 c,
                       std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, bt.cols(), bt.rows(), c, pack_buf, "qgemm_bt_lut_into");
  const RowSpanI8 rows{bt.data(), bt.rows()};
  run_spans(a, one_run(bt, rows, check_lut(lut, "qgemm_bt_lut_into")), true,
            c, pack_buf, pool);
}

void qgemm_naive(const MatrixI8& a, const MatrixI8& b, MatrixI32& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm_naive: inner dimension mismatch");
  }
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  c = MatrixI32(m, n, 0);
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    for (size_t j = 0; j < n; ++j) {
      int32_t sum = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += int32_t{arow[kk]} * b(kk, j);
      }
      c(i, j) = sum;
    }
  }
}

void qgemm_bt_naive(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c) {
  if (a.cols() != bt.cols()) {
    throw std::invalid_argument("qgemm_bt_naive: inner dimension mismatch");
  }
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = bt.rows();
  c = MatrixI32(m, n, 0);
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    for (size_t j = 0; j < n; ++j) {
      const auto brow = bt.row(j);
      int32_t sum = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += int32_t{arow[kk]} * brow[kk];
      }
      c(i, j) = sum;
    }
  }
}

util::ThreadPool* qgemm_default_pool() { return default_pool_storage().get(); }

void qgemm_set_threads(size_t n) {
  auto& pool = default_pool_storage();
  if (n <= 1) {
    pool.reset();
  } else {
    pool = std::make_unique<util::ThreadPool>(n);
  }
}

}  // namespace protea::tensor
