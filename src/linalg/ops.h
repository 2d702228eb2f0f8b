#ifndef FEDGTA_LINALG_OPS_H_
#define FEDGTA_LINALG_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace fedgta {

/// Whether a GEMM operand is used as-is or transposed.
enum class Transpose { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C. Parallel over rows of C.
/// Shapes must be consistent with the chosen transposes; C must be
/// preallocated to the result shape.
void Gemm(const Matrix& a, Transpose trans_a, const Matrix& b,
          Transpose trans_b, float alpha, float beta, Matrix* c);

/// Convenience: returns op(A) * op(B).
Matrix MatMul(const Matrix& a, const Matrix& b,
              Transpose trans_a = Transpose::kNo,
              Transpose trans_b = Transpose::kNo);

/// C = A[row_begin:row_end, :] * Bᵀ where A and B share a column count and
/// C is (row_end - row_begin) x B.rows(). The server similarity plane uses
/// this to sweep a cosine block in row panels without materializing the
/// full participants² matrix. Same backend dispatch, chunking, and
/// per-element determinism contract as Gemm — the value of C(i, j) is
/// bit-identical to the corresponding element of MatMul(A, B, kNo, kYes).
void GemmRowBlockABt(const Matrix& a, int64_t row_begin, int64_t row_end,
                     const Matrix& b, Matrix* c);

/// Adds row-vector `bias` (length cols) to every row of `m`.
void AddRowBroadcast(const Matrix& bias, Matrix* m);

/// Sums rows of `m` into a 1 x cols matrix (used for bias gradients).
Matrix ColumnSums(const Matrix& m);

/// In-place numerically stable row-wise softmax.
void RowSoftmaxInPlace(Matrix* m);

/// Returns arg max of each row.
std::vector<int> RowArgmax(const Matrix& m);

/// In-place ReLU.
void ReluInPlace(Matrix* m);

/// grad *= 1[pre_activation > 0] element-wise.
void ReluBackwardInPlace(const Matrix& pre_activation, Matrix* grad);

/// Inverted dropout: zeroes entries with probability `rate`, scales the
/// rest by 1/(1-rate), and records the mask (1/(1-rate) or 0) in `mask`.
/// For rate > 0 it consumes one draw per element and drops element i exactly
/// when the i-th `rng.Bernoulli(rate)` would be true; rate 0 draws nothing.
void DropoutForward(float rate, Rng& rng, Matrix* m, Matrix* mask);

/// grad *= mask element-wise (mask from DropoutForward).
void DropoutBackward(const Matrix& mask, Matrix* grad);

/// Dot product, L2 norm, and cosine similarity of equal-length vectors.
double Dot(std::span<const float> a, std::span<const float> b);
double L2Norm(std::span<const float> a);
/// Cosine similarity; returns 0 when either vector is all-zero.
double CosineSimilarity(std::span<const float> a, std::span<const float> b);

/// y += alpha * x for raw vectors.
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// In-place row normalization: each row scaled to unit L2 norm (L1 when
/// `l1` is true). All-zero rows are left unchanged. Standard feature
/// preprocessing for bag-of-words-style graph datasets.
void RowNormalizeInPlace(Matrix* m, bool l1 = false);

/// Mean and (population) standard deviation of `values`.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd ComputeMeanStd(const std::vector<double>& values);

}  // namespace fedgta

#endif  // FEDGTA_LINALG_OPS_H_
