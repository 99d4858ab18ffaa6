// AVX-512 kernel tier. Compiled with -mavx512f -mavx2 -mf16c -O3
// -ffp-contract=off; selected at runtime only when cpuid reports AVX-512F
// (core/simd.cpp). Foundation instructions only — no BW/DQ/VL — so 16-bit
// lane work (the fp16 NaN screen) stays on 256-bit AVX2 instructions, and
// the table hook keeps the row scans and the quantizer's byte packing at
// the AVX2 policy's width (kernels_avx2_inl.h), compiled here as this TU's
// own copies.
#include "tensor/kernels/tiers.h"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include <cstdint>

#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/vector_kernels.h"

namespace actcomp::tensor::kernels {
namespace avx512i {

namespace {  // internal types: keep template instantiations TU-local

// 8x32 GEMM register tile: 16 zmm accumulators + 2 B columns + 1
// broadcast = 19 of the 32 zmm registers. The primitives are the ones
// gemm_common.h and vector_kernels.h list.
struct Avx512Policy {
  using V = __m512;
  using Mask = __mmask16;
  using H = __m256i;  // 16 fp16 values
  static constexpr int kVW = 16;
  static constexpr int kMR = 8;
  static constexpr int kNV = 2;

  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float s) { return _mm512_set1_ps(s); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static Mask mask(int64_t lanes) {
    return static_cast<Mask>((1u << lanes) - 1u);
  }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
  static V add(V x, V y) { return _mm512_add_ps(x, y); }
  static V sub(V x, V y) { return _mm512_sub_ps(x, y); }
  static V mul(V x, V y) { return _mm512_mul_ps(x, y); }
  static V div(V x, V y) { return _mm512_div_ps(x, y); }
  static V sqrt(V x) { return _mm512_sqrt_ps(x); }
  static V max(V x, V y) { return _mm512_max_ps(x, y); }
  static V min(V x, V y) { return _mm512_min_ps(x, y); }
  // Bitwise float ops need AVX-512DQ; the integer forms are Foundation.
  static V neg(V x) {
    return _mm512_castsi512_ps(_mm512_xor_epi32(
        _mm512_castps_si512(x), _mm512_set1_epi32(INT32_MIN)));
  }
  static V abs(V x) {
    return _mm512_castsi512_ps(_mm512_and_epi32(
        _mm512_castps_si512(x), _mm512_set1_epi32(INT32_MAX)));
  }
  static Mask nan_lanes(V x) { return _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q); }
  static bool any(Mask m) { return m != 0; }
  static H load_h(const uint16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_h(uint16_t* p, H h) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), h);
  }
  static H to_half(V x) {
    return _mm512_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT);
  }
  static V from_half(H h) { return _mm512_cvtph_ps(h); }
  // As in the AVX2 policy, on 256-bit AVX2 compares (16-bit lanes need BW).
  static bool any_nan_h(H h) {
    const __m256i mag = _mm256_and_si256(h, _mm256_set1_epi16(0x7FFF));
    return _mm256_movemask_epi8(
               _mm256_cmpgt_epi16(mag, _mm256_set1_epi16(0x7C00))) != 0;
  }
};

}  // namespace

// Lane-per-row layernorm statistics: 8 rows per block, one double lane per
// row, columns gathered ascending. Each row's accumulation order is exactly
// the scalar loop's (ascending c, double precision, mul-then-add for the
// variance), so the statistics are bit-identical; div_pd/sqrt_pd and the
// final cvtpd->ps are IEEE-exact single operations.
static inline void rows_moments(const float* x, int64_t r0, int64_t r1,
                                int64_t cols, float eps, float* mean,
                                float* rstd) {
  // Gather offsets are 32-bit lane indices; bail out (unreachably large
  // rows) rather than overflow.
  if (cols <= 0 || cols > (int64_t{1} << 27)) {
    generic::rows_moments(x, r0, r1, cols, eps, mean, rstd);
    return;
  }
  const int c32 = static_cast<int>(cols);
  const __m256i vidx = _mm256_setr_epi32(0, c32, 2 * c32, 3 * c32, 4 * c32,
                                         5 * c32, 6 * c32, 7 * c32);
  const __m512d vcols = _mm512_set1_pd(static_cast<double>(cols));
  const __m512d veps = _mm512_set1_pd(static_cast<double>(eps));
  const __m512d vone = _mm512_set1_pd(1.0);
  int64_t r = r0;
  for (; r + 8 <= r1; r += 8) {
    const float* base = x + r * cols;
    __m512d s = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m256 g = _mm256_i32gather_ps(base + c, vidx, 4);
      s = _mm512_add_pd(s, _mm512_cvtps_pd(g));
    }
    const __m512d m = _mm512_div_pd(s, vcols);
    __m512d var = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m256 g = _mm256_i32gather_ps(base + c, vidx, 4);
      const __m512d d = _mm512_sub_pd(_mm512_cvtps_pd(g), m);
      var = _mm512_add_pd(var, _mm512_mul_pd(d, d));
    }
    var = _mm512_div_pd(var, vcols);
    const __m512d rs =
        _mm512_div_pd(vone, _mm512_sqrt_pd(_mm512_add_pd(var, veps)));
    _mm256_storeu_ps(mean + r, _mm512_cvtpd_ps(m));
    _mm256_storeu_ps(rstd + r, _mm512_cvtpd_ps(rs));
  }
  if (r < r1) generic::rows_moments(x, r, r1, cols, eps, mean, rstd);
}

}  // namespace avx512i

const KernelTable* avx512_kernels() {
  static const KernelTable table = [] {
    KernelTable t = make_table<avx512i::Avx512Policy>("avx512");
    // Fallback-heavy scans and 8-bit packing: the 256-bit versions are
    // already bound by the semantic screening / byte shuffles.
    t.row_max = row_max<avx2i::Avx2Policy>;
    t.row_minmax = row_minmax<avx2i::Avx2Policy>;
    t.rows_moments = avx512i::rows_moments;
    t.quant_quantize_row = avx2i::quant_quantize_row;
    t.quant_dequantize_row = avx2i::quant_dequantize_row;
    return t;
  }();
  return &table;
}

}  // namespace actcomp::tensor::kernels

#else  // toolchain/target cannot build this tier

namespace actcomp::tensor::kernels {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace actcomp::tensor::kernels

#endif
