#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "linalg/csr.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"

namespace fedgta {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.GaussianInit(rng, 1.0f);
  return m;
}

// Reference O(n^3) GEMM for verification.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b, bool ta, bool tb) {
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t k = ta ? a.rows() : a.cols();
  const int64_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a(p, i) : a(i, p);
        const float bv = tb ? b(j, p) : b(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_FLOAT_EQ(m(2, 3), 2.5f);
  m(1, 2) = -1.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -1.0f);
}

TEST(MatrixTest, RowSpanViewsUnderlyingData) {
  Matrix m(2, 3);
  auto row = m.Row(1);
  row[2] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  const Matrix& cm = m;
  EXPECT_FLOAT_EQ(cm.Row(1)[2], 7.0f);
}

TEST(MatrixTest, FillAndResize) {
  Matrix m(2, 2, 1.0f);
  m.Fill(3.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 3.0f);
  m.ResizeDiscard(4, 5);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_FLOAT_EQ(m(3, 4), 0.0f);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
  a.Axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a(0, 0), 5.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 25.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, AllClose) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 1.0f);
  EXPECT_TRUE(a.AllClose(b));
  b(1, 1) += 1e-3f;
  EXPECT_FALSE(a.AllClose(b, 1e-4f));
  EXPECT_TRUE(a.AllClose(b, 1e-2f));
  Matrix c(2, 3);
  EXPECT_FALSE(a.AllClose(c));
}

TEST(MatrixTest, GlorotInitWithinBounds) {
  Rng rng(1);
  Matrix m(30, 50);
  m.GlorotInit(rng);
  const float bound = std::sqrt(6.0f / 80.0f);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
  // Not all zero.
  EXPECT_GT(m.FrobeniusNorm(), 0.1);
}

struct GemmCase {
  bool ta;
  bool tb;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  Rng rng(7);
  const auto [ta, tb] = GetParam();
  const int64_t m = 17, k = 23, n = 9;
  Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
  Matrix b = tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
  Matrix got = MatMul(a, b, ta ? Transpose::kYes : Transpose::kNo,
                      tb ? Transpose::kYes : Transpose::kNo);
  Matrix want = NaiveMatMul(a, b, ta, tb);
  EXPECT_TRUE(got.AllClose(want, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Values(GemmCase{false, false},
                                           GemmCase{true, false},
                                           GemmCase{false, true},
                                           GemmCase{true, true}));

TEST(GemmTest, AlphaBetaAccumulation) {
  Rng rng(3);
  Matrix a = RandomMatrix(4, 5, rng);
  Matrix b = RandomMatrix(5, 3, rng);
  Matrix c(4, 3, 1.0f);
  Gemm(a, Transpose::kNo, b, Transpose::kNo, 2.0f, 0.5f, &c);
  Matrix want = NaiveMatMul(a, b, false, false);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(c(i, j), 2.0f * want(i, j) + 0.5f, 1e-4f);
    }
  }
}

TEST(GemmTest, LargeParallelPathMatchesNaive) {
  Rng rng(11);
  Matrix a = RandomMatrix(150, 64, rng);
  Matrix b = RandomMatrix(64, 40, rng);
  Matrix got = MatMul(a, b);
  Matrix want = NaiveMatMul(a, b, false, false);
  EXPECT_TRUE(got.AllClose(want, 1e-2f));
}

TEST(OpsTest, AddRowBroadcast) {
  Matrix m(2, 3, 1.0f);
  Matrix bias(1, 3);
  bias(0, 0) = 1.0f;
  bias(0, 1) = 2.0f;
  bias(0, 2) = 3.0f;
  AddRowBroadcast(bias, &m);
  EXPECT_FLOAT_EQ(m(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 4.0f);
}

TEST(OpsTest, ColumnSums) {
  Matrix m(3, 2);
  m(0, 0) = 1.0f;
  m(1, 0) = 2.0f;
  m(2, 0) = 3.0f;
  m(0, 1) = -1.0f;
  Matrix sums = ColumnSums(m);
  EXPECT_FLOAT_EQ(sums(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(sums(0, 1), -1.0f);
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Rng rng(5);
  Matrix m = RandomMatrix(20, 7, rng);
  m *= 10.0f;  // stress numerical stability
  RowSoftmaxInPlace(&m);
  for (int64_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), 0.0f);
      sum += m(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(OpsTest, RowSoftmaxStableForHugeLogits) {
  Matrix m(1, 3);
  m(0, 0) = 1000.0f;
  m(0, 1) = 999.0f;
  m(0, 2) = -1000.0f;
  RowSoftmaxInPlace(&m);
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_GT(m(0, 0), m(0, 1));
  EXPECT_NEAR(m(0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, RowArgmax) {
  Matrix m(2, 3);
  m(0, 1) = 5.0f;
  m(1, 2) = 2.0f;
  const std::vector<int> argmax = RowArgmax(m);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 2);
}

TEST(OpsTest, ReluForwardAndBackward) {
  Matrix m(1, 4);
  m(0, 0) = -2.0f;
  m(0, 1) = 3.0f;
  m(0, 2) = 0.0f;
  m(0, 3) = -0.5f;
  Matrix pre = m;
  ReluInPlace(&m);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 3.0f);
  Matrix grad(1, 4, 1.0f);
  ReluBackwardInPlace(pre, &grad);
  EXPECT_FLOAT_EQ(grad(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(grad(0, 2), 0.0f);  // gradient 0 at exactly 0
}

TEST(OpsTest, DropoutStatisticsAndMask) {
  Rng rng(9);
  Matrix m(100, 100, 1.0f);
  Matrix mask;
  DropoutForward(0.4f, rng, &m, &mask);
  int64_t zeros = 0;
  for (int64_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] == 0.0f) {
      ++zeros;
      EXPECT_FLOAT_EQ(mask.data()[i], 0.0f);
    } else {
      EXPECT_NEAR(m.data()[i], 1.0f / 0.6f, 1e-5f);
    }
  }
  const double rate = static_cast<double>(zeros) / static_cast<double>(m.size());
  EXPECT_NEAR(rate, 0.4, 0.03);

  Matrix grad(100, 100, 2.0f);
  DropoutBackward(mask, &grad);
  for (int64_t i = 0; i < grad.size(); ++i) {
    if (mask.data()[i] == 0.0f) {
      EXPECT_FLOAT_EQ(grad.data()[i], 0.0f);
    }
  }
}

TEST(OpsTest, DropoutRateZeroIsIdentity) {
  Rng rng(1);
  Matrix m(4, 4, 2.0f);
  Matrix mask;
  DropoutForward(0.0f, rng, &m, &mask);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(m.data()[i], 2.0f);
    EXPECT_FLOAT_EQ(mask.data()[i], 1.0f);
  }
}

TEST(OpsTest, DropoutDrawsMatchBernoulli) {
  for (const float rate : {0.1f, 0.3f, 0.5f, 0.9f}) {
    for (const int64_t size : {int64_t{0}, int64_t{1}, int64_t{100000}}) {
      Rng init(17);
      Matrix m = RandomMatrix(size, 1, init);

      // The per-element rule DropoutForward documents, drawn through
      // Rng::Bernoulli.
      Rng oracle(23);
      const float keep_scale = 1.0f / (1.0f - rate);
      Matrix expected = m;
      Matrix expected_mask(size, 1);
      for (int64_t i = 0; i < size; ++i) {
        if (oracle.Bernoulli(rate)) {
          expected.data()[i] = 0.0f;
          expected_mask.data()[i] = 0.0f;
        } else {
          expected.data()[i] *= keep_scale;
          expected_mask.data()[i] = keep_scale;
        }
      }

      Rng rng(23);
      Matrix mask;
      DropoutForward(rate, rng, &m, &mask);
      ASSERT_EQ(mask.rows(), size);
      ASSERT_EQ(mask.cols(), 1);
      const size_t bytes = static_cast<size_t>(size) * sizeof(float);
      if (bytes > 0) {
        EXPECT_EQ(std::memcmp(m.data(), expected.data(), bytes), 0)
            << "rate " << rate << " size " << size;
        EXPECT_EQ(std::memcmp(mask.data(), expected_mask.data(), bytes), 0)
            << "rate " << rate << " size " << size;
      }
      // Same number of draws consumed: both streams continue in step.
      EXPECT_EQ(rng.engine()(), oracle.engine()())
          << "rate " << rate << " size " << size;
    }
  }
}

TEST(OpsTest, VectorHelpers) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
  EXPECT_NEAR(L2Norm(a), std::sqrt(14.0), 1e-9);
  std::vector<float> y{0.0f, 0.0f, 0.0f};
  Axpy(2.0f, a, y);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
}

TEST(OpsTest, CosineSimilarityProperties) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{2.0f, 0.0f};
  const std::vector<float> zero{0.0f, 0.0f};
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-9);  // scale invariant
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(OpsTest, ComputeMeanStd) {
  const MeanStd ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(ms.mean, 5.0);
  EXPECT_DOUBLE_EQ(ms.stddev, 2.0);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({}).mean, 0.0);
  EXPECT_DOUBLE_EQ(ComputeMeanStd({3.0}).stddev, 0.0);
}

TEST(CsrTest, FromCooSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 3, {{0, 1, 1.0f}, {0, 1, 2.0f}, {2, 0, 5.0f}, {1, 1, 1.0f}});
  EXPECT_EQ(m.nnz(), 3);
  Matrix dense = m.ToDense();
  EXPECT_FLOAT_EQ(dense(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(dense(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(dense(1, 1), 1.0f);
}

TEST(CsrTest, RowAccessors) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 4, {{0, 3, 2.0f}, {0, 1, 1.0f}});
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 0);
  const auto cols = m.RowCols(0);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 1);  // sorted
  EXPECT_EQ(cols[1], 3);
  const auto sums = m.RowSums();
  EXPECT_FLOAT_EQ(sums[0], 3.0f);
  EXPECT_FLOAT_EQ(sums[1], 0.0f);
}

TEST(CsrTest, MultiplyMatchesDense) {
  Rng rng(13);
  std::vector<CooEntry> entries;
  for (int i = 0; i < 200; ++i) {
    entries.push_back({static_cast<int32_t>(rng.UniformInt(0, 29)),
                       static_cast<int32_t>(rng.UniformInt(0, 19)),
                       rng.Normal()});
  }
  CsrMatrix sparse = CsrMatrix::FromCoo(30, 20, entries);
  Matrix dense = RandomMatrix(20, 8, rng);
  Matrix got = sparse * dense;
  Matrix want = NaiveMatMul(sparse.ToDense(), dense, false, false);
  EXPECT_TRUE(got.AllClose(want, 1e-3f));
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  Rng rng(17);
  std::vector<CooEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({static_cast<int32_t>(rng.UniformInt(0, 9)),
                       static_cast<int32_t>(rng.UniformInt(0, 14)),
                       rng.Normal()});
  }
  CsrMatrix m = CsrMatrix::FromCoo(10, 15, entries);
  CsrMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 15);
  EXPECT_EQ(t.cols(), 10);
  Matrix md = m.ToDense();
  Matrix td = t.ToDense();
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 15; ++j) {
      EXPECT_FLOAT_EQ(md(i, j), td(j, i));
    }
  }
}

TEST(CsrTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromCoo(4, 4, {});
  EXPECT_EQ(m.nnz(), 0);
  Matrix dense(4, 2, 1.0f);
  Matrix out = m * dense;
  EXPECT_EQ(out.rows(), 4);
  EXPECT_DOUBLE_EQ(out.FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace fedgta
