// The vector kernels shared by the SIMD tiers, each written once as a
// template over the tier's vector policy (DESIGN.md §15), and make_table,
// which builds a tier's KernelTable from them.
//
// A policy is the one described in gemm_common.h, plus:
//   static V sub(V, V);  static V div(V, V);  static V sqrt(V);
//   static V max(V, V);  static V min(V, V);   // max_ps/min_ps: the SECOND
//                                              // operand on ties and NaN
//   static V neg(V);     static V abs(V);      // flip / clear the sign bit
//   static Mask nan_lanes(V);                  // masks combine with |
//   static bool any(Mask);
//   using H;                                   // kVW fp16 values (F16C)
//   static H load_h(const uint16_t*);  static void store_h(uint16_t*, H);
//   static H to_half(V);                       // round to nearest even
//   static V from_half(H);
//   static bool any_nan_h(H);
//
// Identity rules (kernel_table.h): mul-then-add spelled explicitly, never
// an FMA; remainders use the exact scalar expression of the generic loop
// (IEEE add/sub/mul/div/sqrt are per element, so the lane width never
// changes a byte); and blocks with a semantic gap — NaN payloads through
// F16C, ±0 ties and NaNs through min/max — go to generic:: whole.
//
// Linkage: everything here is `static` or a template over a policy that
// lives in an anonymous namespace, so each tier's TU gets its own copies,
// encoded with that TU's -m flags (see gemm_common.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

// ---- elementwise ----

// out[i] = sf(a[i]) for i in [lo, hi), whole vectors through vf.
template <class P, class VF, class SF>
static inline void ew_map(const float* a, float* out, int64_t lo, int64_t hi,
                          VF vf, SF sf) {
  int64_t i = lo;
  for (; i + P::kVW <= hi; i += P::kVW) P::store(out + i, vf(P::load(a + i)));
  for (; i < hi; ++i) out[i] = sf(a[i]);
}

// out[i] = sf(a[i], b[i % nb]) for i in [lo, hi).
template <class P, class VF, class SF>
static inline void ew_binary(const float* a, const float* b, float* out,
                             int64_t lo, int64_t hi, int64_t nb, VF vf, SF sf) {
  generic::for_each_period(lo, hi, nb, [&](int64_t i0, int64_t i1, int64_t boff) {
    const float* bp = b + boff;
    int64_t i = i0;
    for (; i + P::kVW <= i1; i += P::kVW) {
      P::store(out + i, vf(P::load(a + i), P::load(bp + (i - i0))));
    }
    for (; i < i1; ++i) out[i] = sf(a[i], bp[i - i0]);
  });
}

template <class P>
static inline void ew_add(const float* a, const float* b, float* out,
                          int64_t lo, int64_t hi, int64_t nb) {
  ew_binary<P>(
      a, b, out, lo, hi, nb, [](auto x, auto y) { return P::add(x, y); },
      [](float x, float y) { return x + y; });
}
template <class P>
static inline void ew_sub(const float* a, const float* b, float* out,
                          int64_t lo, int64_t hi, int64_t nb) {
  ew_binary<P>(
      a, b, out, lo, hi, nb, [](auto x, auto y) { return P::sub(x, y); },
      [](float x, float y) { return x - y; });
}
template <class P>
static inline void ew_mul(const float* a, const float* b, float* out,
                          int64_t lo, int64_t hi, int64_t nb) {
  ew_binary<P>(
      a, b, out, lo, hi, nb, [](auto x, auto y) { return P::mul(x, y); },
      [](float x, float y) { return x * y; });
}
template <class P>
static inline void ew_div(const float* a, const float* b, float* out,
                          int64_t lo, int64_t hi, int64_t nb) {
  ew_binary<P>(
      a, b, out, lo, hi, nb, [](auto x, auto y) { return P::div(x, y); },
      [](float x, float y) { return x / y; });
}

template <class P>
static inline void ew_add_scalar(const float* a, float s, float* out,
                                 int64_t lo, int64_t hi) {
  const auto vs = P::set1(s);
  ew_map<P>(a, out, lo, hi, [vs](auto x) { return P::add(x, vs); },
            [s](float x) { return x + s; });
}
template <class P>
static inline void ew_mul_scalar(const float* a, float s, float* out,
                                 int64_t lo, int64_t hi) {
  const auto vs = P::set1(s);
  ew_map<P>(a, out, lo, hi, [vs](auto x) { return P::mul(x, vs); },
            [s](float x) { return x * s; });
}
template <class P>
static inline void ew_sub_scalar(const float* a, float s, float* out,
                                 int64_t lo, int64_t hi) {
  const auto vs = P::set1(s);
  ew_map<P>(a, out, lo, hi, [vs](auto x) { return P::sub(x, vs); },
            [s](float x) { return x - s; });
}
template <class P>
static inline void ew_scale(float* x, float s, int64_t lo, int64_t hi) {
  ew_mul_scalar<P>(x, s, x, lo, hi);  // x[i] *= s is x[i] = x[i] * s
}

// -x flips and fabs clears the sign bit of every input, NaN included, so
// the bitwise vector forms match them exactly.
template <class P>
static inline void ew_neg(const float* a, float* out, int64_t lo, int64_t hi) {
  ew_map<P>(a, out, lo, hi, [](auto x) { return P::neg(x); },
            [](float x) { return -x; });
}
template <class P>
static inline void ew_abs(const float* a, float* out, int64_t lo, int64_t hi) {
  ew_map<P>(a, out, lo, hi, [](auto x) { return P::abs(x); },
            [](float x) { return std::fabs(x); });
}
// sqrtps is correctly rounded, as is the sqrtss behind std::sqrt.
template <class P>
static inline void ew_sqrt(const float* a, float* out, int64_t lo, int64_t hi) {
  ew_map<P>(a, out, lo, hi, [](auto x) { return P::sqrt(x); },
            [](float x) { return std::sqrt(x); });
}
// max(x, +0) returns its second operand on ties and NaN, which is exactly
// `x > 0 ? x : 0` for ±0 and NaN alike: no fallback needed, as long as the
// operands stay in this order.
template <class P>
static inline void ew_relu(const float* a, float* out, int64_t lo, int64_t hi) {
  ew_map<P>(a, out, lo, hi, [](auto x) { return P::max(x, P::zero()); },
            [](float x) { return x > 0.0f ? x : 0.0f; });
}

template <class P>
static inline void ew_bias_relu(const float* x, const float* b, float* pre,
                                float* out, int64_t lo, int64_t hi,
                                int64_t nb) {
  generic::for_each_period(lo, hi, nb, [&](int64_t i0, int64_t i1, int64_t boff) {
    const float* bp = b + boff;
    int64_t i = i0;
    for (; i + P::kVW <= i1; i += P::kVW) {
      const auto p = P::add(P::load(x + i), P::load(bp + (i - i0)));
      P::store(pre + i, p);
      P::store(out + i, P::max(p, P::zero()));
    }
    for (; i < i1; ++i) {
      const float p = x[i] + bp[i - i0];
      pre[i] = p;
      out[i] = p > 0.0f ? p : 0.0f;
    }
  });
}

// ---- row reductions ----
//
// Scalar max/min keep the FIRST operand on ties and skip NaN inputs
// (std::max(m, x) takes x only when m < x); P::max/min return the SECOND
// operand on ties and NaN. Equal floats are bit-identical except ±0, so
// the vector scan can differ only when (a) a scanned lane is NaN or (b) the
// winner is a zero. Both rescan with the generic code.

template <class P>
static inline float row_max(const float* x, int64_t n) {
  constexpr int W = P::kVW;
  if (n < 2 * W) return generic::row_max(x, n);
  auto acc = P::set1(-std::numeric_limits<float>::infinity());
  typename P::Mask nans{};
  int64_t c = 0;
  for (; c + W <= n; c += W) {
    const auto v = P::load(x + c);
    nans |= P::nan_lanes(v);
    acc = P::max(acc, v);
  }
  if (P::any(nans)) return generic::row_max(x, n);
  alignas(64) float lanes[W];
  P::store(lanes, acc);
  float m = lanes[0];
  for (int i = 1; i < W; ++i) m = std::max(m, lanes[i]);
  for (; c < n; ++c) m = std::max(m, x[c]);  // std::max skips tail NaNs too
  if (m == 0.0f) return generic::row_max(x, n);
  return m;
}

template <class P>
static inline void row_minmax(const float* x, int64_t n, float* lo_out,
                              float* hi_out) {
  constexpr int W = P::kVW;
  if (n < 2 * W) return generic::row_minmax(x, n, lo_out, hi_out);
  auto vlo = P::load(x);
  auto vhi = vlo;
  auto nans = P::nan_lanes(vlo);
  int64_t c = W;
  for (; c + W <= n; c += W) {
    const auto v = P::load(x + c);
    nans |= P::nan_lanes(v);
    vlo = P::min(vlo, v);
    vhi = P::max(vhi, v);
  }
  if (P::any(nans)) return generic::row_minmax(x, n, lo_out, hi_out);
  alignas(64) float llo[W], lhi[W];
  P::store(llo, vlo);
  P::store(lhi, vhi);
  float lo = llo[0], hi = lhi[0];
  for (int i = 1; i < W; ++i) {
    lo = std::min(lo, llo[i]);
    hi = std::max(hi, lhi[i]);
  }
  for (; c < n; ++c) {
    lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
  if (lo == 0.0f || hi == 0.0f) {
    return generic::row_minmax(x, n, lo_out, hi_out);
  }
  *lo_out = lo;
  *hi_out = hi;
}

template <class P>
static inline void ln_xhat(const float* x, const float* mean,
                           const float* rstd, float* out, int64_t r0,
                           int64_t r1, int64_t cols) {
  for (int64_t r = r0; r < r1; ++r) {
    const float m = mean[r];
    const float rs = rstd[r];
    const auto vm = P::set1(m);
    const auto vrs = P::set1(rs);
    ew_map<P>(x + r * cols, out + r * cols, 0, cols,
              [=](auto v) { return P::mul(P::sub(v, vm), vrs); },
              [=](float v) { return (v - m) * rs; });
  }
}

// ---- fp16 via F16C ----
//
// vcvtps2ph (round to nearest even) and vcvtph2ps agree with the software
// converter for every non-NaN input, overflow to inf and subnormals
// included (default MXCSR). On NaNs the hardware keeps the payload while
// the software converter emits a canonical quiet NaN, so a block holding a
// NaN lane is converted by the generic code instead. Encoding a non-NaN
// never yields NaN bits (inf stays 0x7C00), so a round trip screens once.

template <class P>
static inline void fp16_encode(const float* in, uint16_t* out, int64_t n) {
  int64_t i = 0;
  for (; i + P::kVW <= n; i += P::kVW) {
    const auto v = P::load(in + i);
    if (P::any(P::nan_lanes(v))) {
      generic::fp16_encode(in + i, out + i, P::kVW);
    } else {
      P::store_h(out + i, P::to_half(v));
    }
  }
  generic::fp16_encode(in + i, out + i, n - i);
}

template <class P>
static inline void fp16_decode(const uint16_t* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + P::kVW <= n; i += P::kVW) {
    const auto h = P::load_h(in + i);
    if (P::any_nan_h(h)) {
      generic::fp16_decode(in + i, out + i, P::kVW);
    } else {
      P::store(out + i, P::from_half(h));
    }
  }
  generic::fp16_decode(in + i, out + i, n - i);
}

template <class P>
static inline void fp16_round_trip(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + P::kVW <= n; i += P::kVW) {
    const auto v = P::load(in + i);
    if (P::any(P::nan_lanes(v))) {
      generic::fp16_round_trip(in + i, out + i, P::kVW);
    } else {
      P::store(out + i, P::from_half(P::to_half(v)));
    }
  }
  generic::fp16_round_trip(in + i, out + i, n - i);
}

// ---- the table ----

// Every entry from the templates above at P's width, except the ones whose
// best form is not a plain width change: rows_moments and the quantizer
// start as the generic loops, and a tier's table hook swaps in its own
// (kernels_avx2.cpp, kernels_avx512.cpp).
template <class P>
static inline KernelTable make_table(const char* name) {
  return {
      .name = name,
      .gemm = gemm_t<P>,
      .ew_add = ew_add<P>,
      .ew_sub = ew_sub<P>,
      .ew_mul = ew_mul<P>,
      .ew_div = ew_div<P>,
      .ew_add_scalar = ew_add_scalar<P>,
      .ew_mul_scalar = ew_mul_scalar<P>,
      .ew_sub_scalar = ew_sub_scalar<P>,
      .ew_neg = ew_neg<P>,
      .ew_abs = ew_abs<P>,
      .ew_sqrt = ew_sqrt<P>,
      .ew_relu = ew_relu<P>,
      .ew_scale = ew_scale<P>,
      .ew_bias_relu = ew_bias_relu<P>,
      .row_max = row_max<P>,
      .row_minmax = row_minmax<P>,
      .rows_moments = generic::rows_moments,
      .ln_xhat = ln_xhat<P>,
      .fp16_encode = fp16_encode<P>,
      .fp16_decode = fp16_decode<P>,
      .fp16_round_trip = fp16_round_trip<P>,
      .quant_quantize_row = generic::quant_quantize_row,
      .quant_dequantize_row = generic::quant_dequantize_row,
  };
}

}  // namespace actcomp::tensor::kernels
