// The GEMM kernels the strided KernelTable::gemm entry replaced, kept
// verbatim as test oracles: the streaming i-k-j kernel (`gemm_simple`) and
// the panel-packed GEMM (`gemm_into`) with the portable scalar
// micro-kernel. Both take row-major operands and a zero-initialized C that
// they add into; `gemm_into` switched to the streaming kernel at or below
// kSimpleGemmFlops multiply-adds, exactly as before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/threadpool.h"

namespace gemm_oracle {

namespace core = actcomp::core;

inline constexpr int64_t kKC = 512;
inline constexpr int64_t kRowGrain = 32;
inline constexpr int64_t kSimpleGemmFlops = 1 << 18;

inline void gemm_simple(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      const float* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

struct ScalarGemmPolicy {
  static constexpr int64_t kNR = 16;
  static constexpr int64_t kMR = 5;

  template <int MR, bool FIRST>
  static void micro(const float* a, int64_t lda, const float* panel, float* c,
                    int64_t ldc, int64_t kc) {
    float acc[MR][kNR];
    for (int r = 0; r < MR; ++r) {
      for (int64_t j = 0; j < kNR; ++j) {
        acc[r][j] = FIRST ? 0.0f : c[r * ldc + j];
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* bk = panel + kk * kNR;
      for (int r = 0; r < MR; ++r) {
        const float av = a[r * lda + kk];
        for (int64_t j = 0; j < kNR; ++j) acc[r][j] += av * bk[j];
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
    }
  }
};

template <class P>
std::vector<float> pack_b_panels(const float* b, int64_t k, int64_t n) {
  constexpr int64_t NR = P::kNR;
  const int64_t npanels = (n + NR - 1) / NR;
  std::vector<float> bp(static_cast<size_t>(npanels * k * NR));
  core::parallel_for(0, npanels, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * NR;
      const int64_t w = std::min(NR, n - j0);
      float* dst = bp.data() + p * k * NR;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * n + j0;
        for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
        for (int64_t j = w; j < NR; ++j) dst[j] = 0.0f;
        dst += NR;
      }
    }
  });
  return bp;
}

template <class P, int MR>
void gemm_micro_edge(const float* a, int64_t lda, const float* panel, float* c,
                     int64_t ldc, int64_t kc, int64_t w, bool first) {
  constexpr int64_t NR = P::kNR;
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < NR; ++j) {
      acc[r][j] = (first || j >= w) ? 0.0f : c[r * ldc + j];
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* bk = panel + kk * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < NR; ++j) acc[r][j] += av * bk[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < w; ++j) c[r * ldc + j] = acc[r][j];
  }
}

template <class P, int R>
void micro_dispatch(int64_t mr, bool first, const float* a, int64_t lda,
                    const float* panel, float* c, int64_t ldc, int64_t kc) {
  if (mr == R) {
    if (first) {
      P::template micro<R, true>(a, lda, panel, c, ldc, kc);
    } else {
      P::template micro<R, false>(a, lda, panel, c, ldc, kc);
    }
    return;
  }
  if constexpr (R > 1) {
    micro_dispatch<P, R - 1>(mr, first, a, lda, panel, c, ldc, kc);
  }
}

template <class P, int R>
void edge_dispatch(int64_t mr, const float* a, int64_t lda, const float* panel,
                   float* c, int64_t ldc, int64_t kc, int64_t w, bool first) {
  if (mr == R) {
    gemm_micro_edge<P, R>(a, lda, panel, c, ldc, kc, w, first);
    return;
  }
  if constexpr (R > 1) {
    edge_dispatch<P, R - 1>(mr, a, lda, panel, c, ldc, kc, w, first);
  }
}

// c (m x n, zero-initialized) += a (m x k) * b (k x n).
template <class P>
void gemm_into_t(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  if (m * n * k <= kSimpleGemmFlops) {
    gemm_simple(a, b, c, m, k, n);
    return;
  }
  const std::vector<float> bp = pack_b_panels<P>(b, k, n);
  const int64_t npanels = (n + P::kNR - 1) / P::kNR;
  core::parallel_for(0, m, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const int64_t kc = std::min(kKC, k - kc0);
      for (int64_t p = 0; p < npanels; ++p) {
        const float* panel = bp.data() + p * k * P::kNR + kc0 * P::kNR;
        const int64_t j0 = p * P::kNR;
        const int64_t w = std::min(P::kNR, n - j0);
        for (int64_t i = r0; i < r1; i += P::kMR) {
          const int64_t mr = std::min<int64_t>(P::kMR, r1 - i);
          if (w == P::kNR) {
            micro_dispatch<P, static_cast<int>(P::kMR)>(
                mr, kc0 == 0, a + i * k + kc0, k, panel, c + i * n + j0, n, kc);
          } else {
            edge_dispatch<P, static_cast<int>(P::kMR)>(
                mr, a + i * k + kc0, k, panel, c + i * n + j0, n, kc, w,
                kc0 == 0);
          }
        }
      }
    }
  });
}

inline void gemm_into(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n) {
  gemm_into_t<ScalarGemmPolicy>(a, b, c, m, k, n);
}

}  // namespace gemm_oracle
