// The AVX2 + F16C vector policy and the 256-bit quantizer, shared by the
// avx2 and avx512 translation units: the AVX-512 tier runs the row scans
// and the quantizer's byte packing at this width, where 512-bit lanes buy
// nothing (see its table hook).
//
// Only include from a TU compiled with -mavx2 -mf16c (or wider). The
// policy lives in an anonymous namespace and the quantizer is `static`:
// these exist in TUs compiled under *different* -m flag sets, and a
// COMDAT-deduplicated copy encoded with AVX-512 must never be linked into
// a narrower tier — it would SIGILL on an AVX2-only host.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels::avx2i {

namespace {  // internal types: keep template instantiations TU-local

// 5x16 GEMM register tile on ymm registers: 10 accumulators + 2 B columns
// + 1 broadcast stay inside the 16-register file. The primitives are the
// ones gemm_common.h and vector_kernels.h list.
struct Avx2Policy {
  using V = __m256;
  using Mask = __m256i;  // all-ones in each live lane
  using H = __m128i;     // 8 fp16 values
  static constexpr int kVW = 8;
  static constexpr int kMR = 5;
  static constexpr int kNV = 2;

  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float s) { return _mm256_set1_ps(s); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static Mask mask(int64_t lanes) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static V add(V x, V y) { return _mm256_add_ps(x, y); }
  static V sub(V x, V y) { return _mm256_sub_ps(x, y); }
  static V mul(V x, V y) { return _mm256_mul_ps(x, y); }
  static V div(V x, V y) { return _mm256_div_ps(x, y); }
  static V sqrt(V x) { return _mm256_sqrt_ps(x); }
  static V max(V x, V y) { return _mm256_max_ps(x, y); }
  static V min(V x, V y) { return _mm256_min_ps(x, y); }
  static V neg(V x) { return _mm256_xor_ps(x, _mm256_set1_ps(-0.0f)); }
  static V abs(V x) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x); }
  static Mask nan_lanes(V x) {
    return _mm256_castps_si256(_mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  }
  static bool any(Mask m) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(m)) != 0;
  }
  static H load_h(const uint16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store_h(uint16_t* p, H h) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), h);
  }
  static H to_half(V x) {
    return _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT);
  }
  static V from_half(H h) { return _mm256_cvtph_ps(h); }
  // An fp16 NaN has (bits & 0x7FFF) > 0x7C00; masked values are <= 0x7FFF,
  // so the signed 16-bit compare is safe.
  static bool any_nan_h(H h) {
    const __m128i mag = _mm_and_si128(h, _mm_set1_epi16(0x7FFF));
    return _mm_movemask_epi8(_mm_cmpgt_epi16(mag, _mm_set1_epi16(0x7C00))) !=
           0;
  }
};

}  // namespace

// ---- quantization ----
//
// Scalar reference: q = clamp(lround((x - lo) / scale), 0, levels-1), i.e.
// round-half-AWAY-from-zero. cvtps2dq rounds half to even, so after the
// high clamp (which also keeps the conversion in int32 range) a lane whose
// remainder v - q is exactly +0.5 was rounded down and gets +1; the final
// max(q, 0) then matches the low clamp — negative halfway lanes land <= 0
// either way. v - (float)q is exact (Sterbenz / q == 0), so the halfway
// test is precise. Non-finite v (NaN, or inf from scale == 0) would hit
// lround's unspecified behavior in the scalar path; those blocks — plus
// anything with |v| >= 2^31, unreachable for real row params — fall back so
// the bytes match whatever the host libm does.

static inline void quant_quantize_row(const float* row, int64_t cols,
                                      float lo, float scale, int levels,
                                      uint8_t* q) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vmaxq = _mm256_set1_ps(static_cast<float>(levels - 1));
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vbig = _mm256_set1_ps(2147483648.0f);  // 2^31
  const __m256 signmask = _mm256_set1_ps(-0.0f);
  int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    const __m256 v = _mm256_div_ps(
        _mm256_sub_ps(_mm256_loadu_ps(row + c), vlo), vscale);
    // NLT_UQ: true when |v| >= 2^31 or v is NaN.
    const __m256 bad =
        _mm256_cmp_ps(_mm256_andnot_ps(signmask, v), vbig, _CMP_NLT_UQ);
    if (_mm256_movemask_ps(bad) != 0) {
      generic::quant_quantize_row(row + c, 8, lo, scale, levels, q + c);
      continue;
    }
    const __m256 vc = _mm256_min_ps(v, vmaxq);  // high clamp before rounding
    __m256i qi = _mm256_cvtps_epi32(vc);        // RNE
    const __m256 rem = _mm256_sub_ps(vc, _mm256_cvtepi32_ps(qi));
    const __m256 up = _mm256_cmp_ps(rem, vhalf, _CMP_EQ_OQ);
    // Mask lanes are -1; subtracting the mask adds 1 where rem == 0.5.
    qi = _mm256_sub_epi32(qi, _mm256_castps_si256(up));
    qi = _mm256_max_epi32(qi, _mm256_setzero_si256());  // low clamp
    const __m128i p16 = _mm_packus_epi32(_mm256_castsi256_si128(qi),
                                         _mm256_extracti128_si256(qi, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + c), p8);
  }
  if (c < cols) {
    generic::quant_quantize_row(row + c, cols - c, lo, scale, levels, q + c);
  }
}

static inline void quant_dequantize_row(const uint8_t* q, int64_t cols,
                                        float lo, float scale, float* out) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vscale = _mm256_set1_ps(scale);
  int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + c));
    const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    _mm256_storeu_ps(out + c,
                     _mm256_add_ps(vlo, _mm256_mul_ps(qf, vscale)));
  }
  if (c < cols) generic::quant_dequantize_row(q + c, cols - c, lo, scale,
                                              out + c);
}

}  // namespace actcomp::tensor::kernels::avx2i
