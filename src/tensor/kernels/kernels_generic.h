// Scalar reference implementations for every KernelTable entry.
//
// These are the loops the repo ran before the SIMD overhaul, verbatim —
// they define the bytes every wider tier must reproduce — except that the
// broadcast loops (ew_binary, ew_bias_relu) walk [lo, hi) one period of b
// at a time instead of taking i % nb per element: the same expressions on
// the same operands, checked against the per-element loops in
// tests/kernel_table_test.cpp. They are inline so each per-ISA TU can also
// use them for remainders and semantic fallbacks (NaN lanes, ±0 ties)
// without cross-TU calls; all kernel TUs compile with -ffp-contract=off, so
// the math is flag-identical wherever it is instantiated.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/fp16.h"

namespace actcomp::tensor::kernels::generic {

// ---- elementwise ----

// Splits [lo, hi) at multiples of nb and calls f(i0, i1, boff) for each
// piece: over [i0, i1) the broadcast index i % nb runs contiguously from
// boff, so a piece costs one division instead of one per element. A
// same-shape operand (nb >= hi) is one piece.
template <class F>
static inline void for_each_period(int64_t lo, int64_t hi, int64_t nb, F f) {
  for (int64_t i = lo; i < hi;) {
    const int64_t boff = i % nb;
    const int64_t end = std::min(hi, i + (nb - boff));
    f(i, end, boff);
    i = end;
  }
}

// out[i] = f(a[i], b[i % nb]) for i in [lo, hi).
template <typename F>
static inline void ew_binary(const float* a, const float* b, float* out, int64_t lo,
                      int64_t hi, int64_t nb, F f) {
  for_each_period(lo, hi, nb, [&](int64_t i0, int64_t i1, int64_t boff) {
    const float* bp = b + boff;
    for (int64_t i = i0; i < i1; ++i) out[i] = f(a[i], bp[i - i0]);
  });
}

static inline void ew_add(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x + y; });
}
static inline void ew_sub(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x - y; });
}
static inline void ew_mul(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x * y; });
}
static inline void ew_div(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x / y; });
}

static inline void ew_add_scalar(const float* a, float s, float* out, int64_t lo,
                          int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] + s;
}
static inline void ew_mul_scalar(const float* a, float s, float* out, int64_t lo,
                          int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] * s;
}
static inline void ew_sub_scalar(const float* a, float s, float* out, int64_t lo,
                          int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] - s;
}
static inline void ew_neg(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = -a[i];
}
static inline void ew_abs(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = std::fabs(a[i]);
}
static inline void ew_sqrt(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = std::sqrt(a[i]);
}
static inline void ew_relu(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
static inline void ew_scale(float* x, float s, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) x[i] *= s;
}
static inline void ew_bias_relu(const float* x, const float* b, float* pre,
                         float* out, int64_t lo, int64_t hi, int64_t nb) {
  for_each_period(lo, hi, nb, [&](int64_t i0, int64_t i1, int64_t boff) {
    const float* bp = b + boff;
    for (int64_t i = i0; i < i1; ++i) {
      const float p = x[i] + bp[i - i0];
      pre[i] = p;
      out[i] = p > 0.0f ? p : 0.0f;
    }
  });
}

// ---- row reductions ----

static inline float row_max(const float* x, int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (int64_t c = 0; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

static inline void row_minmax(const float* x, int64_t n, float* lo_out,
                       float* hi_out) {
  float lo = x[0], hi = x[0];
  for (int64_t c = 1; c < n; ++c) {
    lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
  *lo_out = lo;
  *hi_out = hi;
}

static inline void rows_moments(const float* x, int64_t r0, int64_t r1, int64_t cols,
                         float eps, float* mean, float* rstd) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* row = x + r * cols;
    double s = 0.0;
    for (int64_t c = 0; c < cols; ++c) s += row[c];
    const double m = s / static_cast<double>(cols);
    double var = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double d = row[c] - m;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    mean[r] = static_cast<float>(m);
    rstd[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
  }
}

static inline void ln_xhat(const float* x, const float* mean, const float* rstd,
                    float* out, int64_t r0, int64_t r1, int64_t cols) {
  for (int64_t r = r0; r < r1; ++r) {
    const float m = mean[r];
    const float rs = rstd[r];
    const float* row = x + r * cols;
    float* orow = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) orow[c] = (row[c] - m) * rs;
  }
}

// ---- fp16 ----

static inline void fp16_encode(const float* in, uint16_t* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = fp32_to_fp16_bits(in[i]);
}
static inline void fp16_decode(const uint16_t* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = fp16_bits_to_fp32(in[i]);
}
static inline void fp16_round_trip(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = fp16_bits_to_fp32(fp32_to_fp16_bits(in[i]));
  }
}

// ---- quantization ----

static inline void quant_quantize_row(const float* row, int64_t cols, float lo,
                               float scale, int levels, uint8_t* q) {
  for (int64_t c = 0; c < cols; ++c) {
    const float normalized = (row[c] - lo) / scale;
    q[c] = static_cast<uint8_t>(std::clamp(std::lround(normalized), 0l,
                                           static_cast<long>(levels - 1)));
  }
}

static inline void quant_dequantize_row(const uint8_t* q, int64_t cols, float lo,
                                 float scale, float* out) {
  for (int64_t c = 0; c < cols; ++c) {
    out[c] = lo + static_cast<float>(q[c]) * scale;
  }
}

}  // namespace actcomp::tensor::kernels::generic
