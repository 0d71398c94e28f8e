// Tests for the packed int8 GEMM kernel layer: exact equivalence with the
// retained naive references on ragged and degenerate shapes (every entry
// point, on both sides of the row-direct / packed boundary), thread-count
// invariance, and bit-identity of the engines that ride on it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/engines.hpp"
#include "accel/quantized_model.hpp"
#include "numeric/requantize.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor {
namespace {

MatrixI8 random_i8(size_t r, size_t c, uint64_t seed) {
  MatrixI8 m(r, c);
  util::Xoshiro256 rng(seed);
  for (auto& x : m.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  return m;
}

struct Shape {
  size_t m, k, n;
};

// Ragged (non-multiples of the 4x8 register block and the 256 K block),
// degenerate, and decode-step shapes.
const Shape kShapes[] = {
    {1, 1, 1},      {4, 8, 8},    {5, 7, 9},     {13, 31, 17},
    {3, 300, 11},   {64, 64, 64}, {1, 128, 96},  // SL=1 decode step
    {0, 8, 8},      {8, 0, 8},    {8, 8, 0},     {65, 257, 33},
};

TEST(QGemm, MatchesNaiveOnRaggedShapes) {
  uint64_t seed = 1;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto b = random_i8(s.k, s.n, seed++);
    MatrixI32 packed, naive;
    qgemm(a, b, packed);
    qgemm_naive(a, b, naive);
    EXPECT_EQ(packed, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(QGemmBt, MatchesNaiveOnRaggedShapes) {
  uint64_t seed = 100;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto bt = random_i8(s.n, s.k, seed++);
    MatrixI32 packed, naive;
    qgemm_bt(a, bt, packed);
    qgemm_bt_naive(a, bt, naive);
    EXPECT_EQ(packed, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(QGemm, AgreesWithBtOnTransposedOperand) {
  const auto a = random_i8(9, 33, 7);
  const auto b = random_i8(33, 21, 8);
  MatrixI8 bt(b.cols(), b.rows());
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) bt(c, r) = b(r, c);
  }
  MatrixI32 c1, c2;
  qgemm(a, b, c1);
  qgemm_bt(a, bt, c2);
  EXPECT_EQ(c1, c2);
}

TEST(QGemm, ThreadCountDoesNotChangeResult) {
  util::ThreadPool pool(4);
  uint64_t seed = 200;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto b = random_i8(s.k, s.n, seed++);
    MatrixI32 serial, threaded;
    qgemm(a, b, serial);
    qgemm(a, b, threaded, &pool);
    EXPECT_EQ(serial, threaded) << "m=" << s.m << " k=" << s.k
                                << " n=" << s.n;
  }
}

TEST(QGemm, InnerDimensionMismatchThrows) {
  const auto a = random_i8(4, 5, 300);
  const auto b = random_i8(6, 4, 301);
  MatrixI32 c;
  EXPECT_THROW(qgemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(qgemm_bt(a, random_i8(4, 6, 302), c), std::invalid_argument);
}

TEST(QGemm, DefaultPoolConfigurable) {
  EXPECT_EQ(qgemm_default_pool(), nullptr);
  qgemm_set_threads(3);
  ASSERT_NE(qgemm_default_pool(), nullptr);
  EXPECT_EQ(qgemm_default_pool()->size(), 3u);

  const auto a = random_i8(17, 40, 400);
  const auto b = random_i8(40, 23, 401);
  MatrixI32 serial, pooled;
  qgemm_naive(a, b, serial);
  qgemm(a, b, pooled, qgemm_default_pool());
  EXPECT_EQ(serial, pooled);

  qgemm_set_threads(0);
  EXPECT_EQ(qgemm_default_pool(), nullptr);
}

// --- every int8 entry point against the naive oracles ----------------------
//
// Operands with fewer than kGemmMr (4) rows take the row-direct path, the
// rest the packed 4x8 path. Each entry point is compared with
// qgemm_naive / qgemm_bt_naive, never with another entry point, so a bug
// shared by two variants cannot hide.

using Lut = std::array<int8_t, 256>;

MatrixI8 transposed(const MatrixI8& m) {
  MatrixI8 t(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

MatrixI8 decoded(const MatrixI8& codes, const Lut& lut) {
  MatrixI8 out(codes.rows(), codes.cols());
  for (size_t i = 0; i < codes.size(); ++i) {
    out.data()[i] = lut[static_cast<uint8_t>(codes.data()[i])];
  }
  return out;
}

/// A copy of `m` stored as a span list: runs of 1, 3, 1, 2 and 5 rows
/// (repeating), laid out in storage in reverse run order, rows
/// `row_stride = cols + 3` apart. Stride padding and the gaps between runs
/// hold a sentinel, so a cursor that strays reads wrong values. `list`
/// points into `storage` and `runs`, so a SpannedCopy is moved, never
/// copied.
struct SpannedCopy {
  std::vector<int8_t> storage;
  std::vector<RowSpanI8> runs;
  RowSpanListI8 list;
};

SpannedCopy spanned(const MatrixI8& m, const int8_t* decode = nullptr) {
  static constexpr size_t kRunRows[] = {1, 3, 1, 2, 5};
  SpannedCopy out;
  const size_t stride = m.cols() + 3;
  std::vector<size_t> lengths;
  for (size_t r = 0, i = 0; r < m.rows(); ++i) {
    lengths.push_back(std::min(kRunRows[i % 5], m.rows() - r));
    r += lengths.back();
  }
  // One gap row between runs; runs are written last-first.
  out.storage.assign((m.rows() + lengths.size() + 1) * stride, 0x55);
  std::vector<size_t> first_row(lengths.size());
  size_t slot = 1;
  for (size_t i = lengths.size(); i-- > 0;) {
    first_row[i] = slot;
    slot += lengths[i] + 1;
  }
  for (size_t i = 0, r = 0; i < lengths.size(); r += lengths[i++]) {
    int8_t* base = out.storage.data() + first_row[i] * stride;
    for (size_t j = 0; j < lengths[i]; ++j) {
      std::copy(m.row(r + j).begin(), m.row(r + j).end(),
                base + j * stride);
    }
    out.runs.push_back({base, lengths[i]});
  }
  out.list.runs = out.runs;
  out.list.rows = m.rows();
  out.list.cols = m.cols();
  out.list.row_stride = stride;
  out.list.decode = decode;
  return out;
}

/// Checks every int8 entry point on c = a * B, where B = lut(codes) is
/// (k x n): the int8 variants multiply the decoded matrix, the table
/// variants the codes.
void expect_entry_points_match_naive(const MatrixI8& a, const MatrixI8& codes,
                                     const Lut& lut, const std::string& at) {
  const MatrixI8 b = decoded(codes, lut);
  const MatrixI8 bt = transposed(b);
  const MatrixI8 codes_t = transposed(codes);
  const size_t m = a.rows();
  const size_t n = b.cols();

  MatrixI32 want, want_bt;
  qgemm_naive(a, b, want);
  qgemm_bt_naive(a, bt, want_bt);
  ASSERT_EQ(want, want_bt) << at;

  MatrixI32 owning;
  qgemm(a, b, owning);
  EXPECT_EQ(owning, want) << "qgemm " << at;
  qgemm_bt(a, bt, owning);
  EXPECT_EQ(owning, want) << "qgemm_bt " << at;

  std::vector<int8_t> pack(qgemm_pack_elems(n));
  auto into = [&](const char* name, const auto& call) {
    MatrixI32 c(m, n, 0x7f7f7f7f);  // every element must be written
    call(MatrixViewI32(c));
    EXPECT_EQ(c, want) << name << " " << at;
  };
  into("qgemm_into", [&](MatrixViewI32 c) { qgemm_into(a, b, c, pack); });
  into("qgemm_bt_into",
       [&](MatrixViewI32 c) { qgemm_bt_into(a, bt, c, pack); });
  into("qgemm_lut_into", [&](MatrixViewI32 c) {
    qgemm_lut_into(a, codes, lut.data(), c, pack);
  });
  into("qgemm_bt_lut_into", [&](MatrixViewI32 c) {
    qgemm_bt_lut_into(a, codes_t, lut.data(), c, pack);
  });

  const SpannedCopy b_spans = spanned(b);
  const SpannedCopy bt_spans = spanned(bt);
  const SpannedCopy code_spans = spanned(codes, lut.data());
  const SpannedCopy code_t_spans = spanned(codes_t, lut.data());
  into("qgemm_spans_into", [&](MatrixViewI32 c) {
    qgemm_spans_into(a, b_spans.list, c, pack);
  });
  into("qgemm_bt_spans_into", [&](MatrixViewI32 c) {
    qgemm_bt_spans_into(a, bt_spans.list, c, pack);
  });
  into("qgemm_spans_into+decode", [&](MatrixViewI32 c) {
    qgemm_spans_into(a, code_spans.list, c, pack);
  });
  into("qgemm_bt_spans_into+decode", [&](MatrixViewI32 c) {
    qgemm_bt_spans_into(a, code_t_spans.list, c, pack);
  });
}

Lut random_lut(uint64_t seed) {
  Lut lut;
  util::Xoshiro256 rng(seed);
  for (auto& x : lut) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  lut[0] = -128;  // the extreme value is always reachable
  return lut;
}

Lut identity_lut() {
  Lut lut;
  for (size_t c = 0; c < lut.size(); ++c) lut[c] = static_cast<int8_t>(c);
  return lut;
}

TEST(QGemmEntryPoints, MatchNaiveAcrossRowDirectBoundary) {
  const Lut lut = random_lut(500);
  uint64_t seed = 501;
  // k = 1, k crossing one K block (256) and four; n ragged against 8.
  for (const size_t k : {1, 300, 1024}) {
    for (const size_t n : {1, 13, 37}) {
      for (size_t m = 0; m <= 5; ++m) {
        const auto a = random_i8(m, k, seed++);
        MatrixI8 codes = random_i8(k, n, seed++);
        codes(0, 0) = 0;  // decodes to -128
        expect_entry_points_match_naive(
            a, codes, lut,
            "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                " n=" + std::to_string(n));
      }
    }
  }
}

TEST(QGemmEntryPoints, EmptyInnerAndOuterDimensions) {
  const Lut lut = random_lut(600);
  for (size_t m = 0; m <= 5; ++m) {
    expect_entry_points_match_naive(random_i8(m, 0, 601), random_i8(0, 9, 602),
                                    lut, "k=0 m=" + std::to_string(m));
    expect_entry_points_match_naive(random_i8(m, 7, 603), random_i8(7, 0, 604),
                                    lut, "n=0 m=" + std::to_string(m));
  }
}

TEST(QGemmEntryPoints, EmptySpanRunThrows) {
  const auto a = random_i8(1, 4, 700);
  const auto b = random_i8(4, 4, 701);
  const RowSpanI8 runs[] = {{b.row(0).data(), 2},
                            {b.row(2).data(), 0},
                            {b.row(2).data(), 2}};
  RowSpanListI8 list;
  list.runs = runs;
  list.rows = 4;
  list.cols = 4;
  list.row_stride = 4;
  std::vector<int8_t> pack(qgemm_pack_elems(4));
  MatrixI32 c(1, 4);
  EXPECT_THROW(qgemm_spans_into(a, list, c, pack), std::invalid_argument);
  EXPECT_THROW(qgemm_bt_spans_into(a, list, c, pack), std::invalid_argument);
}

TEST(QGemmEntryPoints, AllMinusOneTwentyEightDoesNotOverflow) {
  // (-128) * (-128) = 16384 is the largest int16-widened product; 1024 of
  // them sum to 2^24 in every output element, on both paths.
  const size_t k = 1024, n = 11;
  for (const size_t m : {1, 3, 4, 5}) {
    MatrixI8 a(m, k, -128);
    MatrixI8 codes(k, n, -128);  // the identity table keeps them -128
    expect_entry_points_match_naive(a, codes, identity_lut(),
                                    "all -128 m=" + std::to_string(m));
    MatrixI32 c;
    qgemm_bt(a, transposed(codes), c);
    for (const int32_t x : c.flat()) EXPECT_EQ(x, 1024 * 16384);
  }
}

}  // namespace
}  // namespace protea::tensor

// --- engine bit-identity against naive loop nests ---------------------------
//
// The engines must produce the same int8 outputs as the seed's naive tile
// loops; with exact int32 accumulation this reduces to: naive GEMM + the
// same bias/requant write-back.
namespace protea::accel {
namespace {

using numeric::RequantParams;
using tensor::MatrixI32;
using tensor::MatrixI8;

MatrixI8 random_i8(size_t r, size_t c, uint64_t seed) {
  MatrixI8 m(r, c);
  util::Xoshiro256 rng(seed);
  for (auto& x : m.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  return m;
}

std::vector<int32_t> random_bias(size_t n, uint64_t seed) {
  std::vector<int32_t> b(n);
  util::Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<int32_t>(rng.bounded(20000)) - 10000;
  return b;
}

int8_t requant8(int64_t acc, const RequantParams& rq) {
  return static_cast<int8_t>(numeric::requantize(acc, rq, -128, 127));
}

TEST(EngineBitIdentity, QkvEngineMatchesNaive) {
  const size_t sl = 9, d = 40, dk = 12;
  const auto x = random_i8(sl, d, 1);
  QHeadWeights head;
  head.wqt = random_i8(dk, d, 2);
  head.wkt = random_i8(dk, d, 3);
  head.wvt = random_i8(dk, d, 4);
  head.bq = random_bias(dk, 5);
  head.bk = random_bias(dk, 6);
  head.bv = random_bias(dk, 7);
  const auto rq_q = numeric::make_requant_params(0.003);
  const auto rq_k = numeric::make_requant_params(0.005);
  const auto rq_v = numeric::make_requant_params(0.002);

  MatrixI8 q, k, v;
  EngineStats stats;
  run_qkv_engine(x, head, 16, rq_q, rq_k, rq_v, q, k, v, &stats);
  EXPECT_EQ(stats.macs, 3 * sl * d * dk);

  MatrixI32 aq, ak, av;
  tensor::qgemm_bt_naive(x, head.wqt, aq);
  tensor::qgemm_bt_naive(x, head.wkt, ak);
  tensor::qgemm_bt_naive(x, head.wvt, av);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < dk; ++j) {
      EXPECT_EQ(q(i, j), requant8(int64_t{aq(i, j)} + head.bq[j], rq_q));
      EXPECT_EQ(k(i, j), requant8(int64_t{ak(i, j)} + head.bk[j], rq_k));
      EXPECT_EQ(v(i, j), requant8(int64_t{av(i, j)} + head.bv[j], rq_v));
    }
  }
}

TEST(EngineBitIdentity, ProjectionEngineMatchesNaive) {
  const size_t rows = 7, d = 33, out_dim = 19;
  const auto x = random_i8(rows, d, 10);
  const auto wt = random_i8(out_dim, d, 11);
  const auto bias = random_bias(out_dim, 12);
  const auto rq = numeric::make_requant_params(0.004);

  MatrixI8 out;
  run_projection_engine(x, wt, bias, 8, rq, out);

  MatrixI32 acc;
  tensor::qgemm_bt_naive(x, wt, acc);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      EXPECT_EQ(out(i, j), requant8(int64_t{acc(i, j)} + bias[j], rq));
    }
  }
}

TEST(EngineBitIdentity, QkAndSvEnginesMatchNaive) {
  const size_t sl = 11, dk = 13;
  const auto q = random_i8(sl, dk, 20);
  const auto k = random_i8(sl, dk, 21);
  const auto rq_logit = numeric::make_requant_params(0.01);
  MatrixI8 logits;
  run_qk_engine(q, k, rq_logit, logits);

  MatrixI32 acc;
  tensor::qgemm_bt_naive(q, k, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < sl; ++j) {
      EXPECT_EQ(logits(i, j), requant8(acc(i, j), rq_logit));
    }
  }

  const auto weights = random_i8(sl, sl, 22);
  const auto v = random_i8(sl, dk, 23);
  const auto rq_sv = numeric::make_requant_params(0.008);
  MatrixI8 scores;
  run_sv_engine(weights, v, rq_sv, scores);

  tensor::qgemm_naive(weights, v, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < dk; ++j) {
      EXPECT_EQ(scores(i, j), requant8(acc(i, j), rq_sv));
    }
  }
}

TEST(EngineBitIdentity, FfnEngineMatchesNaiveWithRelu) {
  const size_t sl = 6, in_dim = 29, out_dim = 23;
  const auto in = random_i8(sl, in_dim, 30);
  const auto w = random_i8(in_dim, out_dim, 31);
  const auto bias = random_bias(out_dim, 32);
  const auto rq = numeric::make_requant_params(0.006);

  MatrixI8 out;
  run_ffn_engine(in, w, bias, 16, rq, FfnActivation::kRelu, 0.0, out);

  MatrixI32 acc;
  tensor::qgemm_naive(in, w, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      const int8_t rq8 = requant8(int64_t{acc(i, j)} + bias[j], rq);
      EXPECT_EQ(out(i, j), std::max<int8_t>(rq8, 0));
    }
  }
}

TEST(EngineBitIdentity, EnginesUnchangedByKernelThreading) {
  const size_t sl = 16, d = 64;
  const auto in = random_i8(sl, d, 40);
  const auto w = random_i8(d, d, 41);
  const auto bias = random_bias(d, 42);
  const auto rq = numeric::make_requant_params(0.004);

  MatrixI8 serial_out, threaded_out;
  run_ffn_engine(in, w, bias, 32, rq, FfnActivation::kGeluLut, 0.05,
                 serial_out);
  tensor::qgemm_set_threads(4);
  run_ffn_engine(in, w, bias, 32, rq, FfnActivation::kGeluLut, 0.05,
                 threaded_out);
  tensor::qgemm_set_threads(0);
  EXPECT_EQ(serial_out, threaded_out);
}

}  // namespace
}  // namespace protea::accel
