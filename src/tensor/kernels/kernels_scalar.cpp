// Scalar kernel tier: the portable baseline every wider tier must match
// byte for byte. Compiled with -O3 -ffp-contract=off and NO architecture
// flags, so the binary runs on any x86-64 (or non-x86) host.
//
// Only the GEMM runs on this tier's vector policy; every other entry is
// the generic:: reference loop itself. The policy spells its tile in GNU
// vector extension types: without an explicit vector type GCC's SLP
// vectorizer gives up on the accumulator and the kernel runs ~7x slower.
// With no -m flags this compiles to the baseline SSE2 encoding; 16-byte
// vectors keep it off the AVX calling convention (-Wpsabi).
#include <cstring>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

namespace {

typedef float v4f __attribute__((vector_size(16)));

// 4x12 register tile of three 4-lane GNU vectors per row: 12 accumulators
// + 3 B columns + 1 broadcast fill the 16 SSE registers.
struct ScalarPolicy {
  using V = v4f;
  using Mask = int64_t;  // live leading lanes
  static constexpr int kVW = 4;
  static constexpr int kMR = 4;
  static constexpr int kNV = 3;

  static V zero() { return V{}; }
  static V set1(float s) { return V{s, s, s, s}; }
  static V load(const float* p) {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
  static void store(float* p, V v) { std::memcpy(p, &v, sizeof(V)); }
  static Mask mask(int64_t lanes) { return lanes; }
  static V load(const float* p, Mask m) {
    V v{};
    std::memcpy(&v, p, static_cast<size_t>(m) * sizeof(float));
    return v;
  }
  static void store(float* p, V v, Mask m) {
    std::memcpy(p, &v, static_cast<size_t>(m) * sizeof(float));
  }
  static V add(V x, V y) { return x + y; }
  static V mul(V x, V y) { return x * y; }
};

void gemm(const float* a, int64_t a_rs, int64_t a_cs, const float* b,
          int64_t b_rs, int64_t b_cs, float* c, int64_t ldc, int64_t m,
          int64_t k, int64_t n) {
  gemm_t<ScalarPolicy>(a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, m, k, n);
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = {
      "scalar",
      gemm,
      generic::ew_add,
      generic::ew_sub,
      generic::ew_mul,
      generic::ew_div,
      generic::ew_add_scalar,
      generic::ew_mul_scalar,
      generic::ew_sub_scalar,
      generic::ew_neg,
      generic::ew_abs,
      generic::ew_sqrt,
      generic::ew_relu,
      generic::ew_scale,
      generic::ew_bias_relu,
      generic::row_max,
      generic::row_minmax,
      generic::rows_moments,
      generic::ln_xhat,
      generic::fp16_encode,
      generic::fp16_decode,
      generic::fp16_round_trip,
      generic::quant_quantize_row,
      generic::quant_dequantize_row,
  };
  return table;
}

}  // namespace actcomp::tensor::kernels
