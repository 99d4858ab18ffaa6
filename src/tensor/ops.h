// Raw (non-differentiable) math kernels over Tensor.
//
// These are the primitives the autograd layer composes. Broadcasting is
// deliberately limited to the two cases the library needs:
//   * identical shapes, and
//   * right-aligned broadcast of a lower-rank operand (e.g. adding a [h] bias
//     to a [b, s, h] activation).
// Anything fancier is a caller bug and throws.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace actcomp::tensor {

// ---- elementwise binary (with right-aligned broadcast of `b`) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- elementwise with scalar ----
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary ----
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor relu(const Tensor& a);
/// Gaussian error linear unit (tanh approximation, as in BERT).
Tensor gelu(const Tensor& a);
/// d gelu(x) / dx, elementwise.
Tensor gelu_grad(const Tensor& a);

/// Scalar GELU pieces. gelu/gelu_grad and autograd's fused bias_act all
/// spell the math through these, so every path rounds identically; the
/// fused path saves `gelu_tanh(x)` and finishes either side from it.
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;
inline float gelu_tanh(float x) {
  return std::tanh(kGeluC * (x + kGeluA * x * x * x));
}
inline float gelu_from_tanh(float x, float t) { return 0.5f * x * (1.0f + t); }
inline float gelu_grad_from_tanh(float x, float t) {
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}
/// Apply an arbitrary float->float function elementwise (test/helper use).
Tensor map(const Tensor& a, const std::function<float(float)>& f);

// ---- matmul ----
/// op(a) x op(b) -> (m,n) for rank-2 operands, where op(x) is x, or its
/// transpose when that operand's flag is set. A transposed operand is read
/// in place through swapped strides; nothing is materialized.
Tensor matmul2d(const Tensor& a, const Tensor& b, bool trans_a = false,
                bool trans_b = false);
/// Batched matmul. Accepts:
///   (B,m,k) x (B,k,n) -> (B,m,n)   (flags transpose each matrix, as in matmul2d)
///   (B,m,k) x (k,n)   -> (B,m,n)   (shared right operand; no flags)
///   (m,k)   x (k,n)   -> (m,n)     (matmul2d)
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// A batch of strided matrices inside one float buffer. Matrix (o, i) of an
/// [outer, inner] batch starts `o * outer + i * inner` floats past `data`,
/// and its element (r, c) sits a further `r * rs + c * cs` on. The per-head
/// slices of a [b, s, h] activation are {data, h, 1, s * h, h / heads}.
struct MatrixBatch {
  const float* data;
  int64_t rs;
  int64_t cs;
  int64_t outer = 0;
  int64_t inner = 0;
  /// The transposed matrices: the same floats with rs and cs swapped.
  MatrixBatch t() const { return {data, cs, rs, outer, inner}; }
};
/// The written batch: unit column stride, row stride `ldc`.
struct OutputBatch {
  float* data;
  int64_t ldc;
  int64_t outer = 0;
  int64_t inner = 0;
};
/// For every (o, i) in [outer) x [inner): C(o,i) (m x n) = A(o,i) (m x k) x
/// B(o,i) (k x n), overwriting C's m x n block. Each element is 0 plus its
/// k products in ascending order, so it matches matmul on copies of the
/// same matrices byte for byte.
void matmul_strided(int64_t outer, int64_t inner, int64_t m, int64_t k,
                    int64_t n, const MatrixBatch& a, const MatrixBatch& b,
                    const OutputBatch& c);

/// Transpose the last two dimensions (materializes; rank >= 2).
Tensor transpose_last2(const Tensor& a);
/// General axis permutation (materializes).
Tensor permute(const Tensor& a, const std::vector<int>& axes);

// ---- reductions ----
float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
float max_all(const Tensor& a);
/// Sum over the last dimension: [..., n] -> [...].
Tensor sum_last(const Tensor& a);
/// Sum over all dimensions except the last: [..., n] -> [n] (bias gradients).
/// Rows are added in ascending order, one running sum per column.
Tensor sum_to_last(const Tensor& a);
/// Index of the max element along the last dimension, as floats: [..., n] -> [...].
Tensor argmax_last(const Tensor& a);

// ---- softmax family (last dimension) ----
Tensor softmax_last(const Tensor& a);
Tensor log_softmax_last(const Tensor& a);

// ---- normalization helpers ----
/// Per-row (last-dim) mean and reciprocal standard deviation, for layernorm.
struct RowMoments {
  Tensor mean;  ///< shape = a.shape() minus last dim
  Tensor rstd;  ///< 1 / sqrt(var + eps), same shape as mean
};
RowMoments row_moments(const Tensor& a, float eps);

// ---- comparison helpers (tests) ----
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);
float max_abs_diff(const Tensor& a, const Tensor& b);
/// Relative Frobenius-norm error ||a-b|| / max(||b||, tiny).
float rel_error(const Tensor& a, const Tensor& b);
float frobenius_norm(const Tensor& a);

// ---- structural ----
/// Concatenate along the last dimension; all inputs must agree elsewhere.
Tensor concat_last(const std::vector<Tensor>& parts);
/// Slice [start, start+len) of the last dimension.
Tensor slice_last(const Tensor& a, int64_t start, int64_t len);

}  // namespace actcomp::tensor
