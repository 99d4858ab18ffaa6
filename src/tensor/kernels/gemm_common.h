// The strided GEMM shared by every kernel tier, parameterized on a per-ISA
// vector policy (DESIGN.md §10/§15).
//
// A policy supplies the register-tile shape and its vector primitives:
//   using V;                         // a vector of kVW floats
//   using Mask;                      // which leading lanes are live
//   static constexpr int kVW;        // lanes per vector
//   static constexpr int kMR;        // tile rows
//   static constexpr int kNV;        // vectors per tile row (kNR = kNV * kVW)
//   static V zero();  static V set1(float);
//   static V load(const float*);     static void store(float*, V);
//   static Mask mask(int64_t lanes); // 1 <= lanes <= kVW
//   static V load(const float*, Mask);          // dead lanes read as 0 and
//   static void store(float*, V, Mask);         // are never touched
//   static V add(V, V);  static V mul(V, V);    // no FMA
// (vector_kernels.h lists what the AVX tiers' policies add for the rest of
// the table.)
//
// Everything else is ISA-independent and lives here: one register tile
// kernel, fed either straight from the operands (small and mid-size B) or
// from packed B panels with k-blocking by kKC (large B), with rows split
// over the pool above kSimpleGemmFlops. Operands are strided: A's element
// (i, p) is a[i * a_rs + p * a_cs] and B's (p, j) is b[p * b_rs + j *
// b_cs], so a transposed operand is the same buffer with its strides
// swapped and is never materialized.
//
// Determinism: every C element is owned by one tile and one thread, starts
// from 0 and adds a(i,p)*b(p,j) in ascending p, each product rounded before
// its add. Neither the tile shape, the vector width, the small/packed
// choice nor the row chunking changes that sequence, so every tier and
// every thread count produces the same bytes.
//
// Linkage note: each policy struct lives in its TU's anonymous namespace,
// which makes every template instantiation here TU-local. That is
// deliberate — these helpers are compiled under three different -m flag
// sets, and a COMDAT-deduplicated copy built with AVX-512 flags must never
// be linked into the scalar tier (it would SIGILL on a narrower host).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/threadpool.h"

namespace actcomp::tensor::kernels {

inline constexpr int64_t kKC = 512;       // k-block: panel slice stays cache-resident
inline constexpr int64_t kRowGrain = 32;  // rows per parallel chunk
// At or below this many multiply-adds a GEMM runs serially; above it rows
// are split over the pool. Up to kInPlaceB floats of B are read in place,
// beyond that B is packed into panels. Every regime produces the same
// bytes, so both are speed choices only.
inline constexpr int64_t kSimpleGemmFlops = 1 << 19;
inline constexpr int64_t kInPlaceB = 1 << 16;

// One MR x (NV * kVW) register tile of C: acc starts from 0 (FIRST) or
// from C (a later k-block), then adds a(r, p) * b(p, :) for p in [0, kc).
// EDGE tiles mask the last vector of every B row and C row to the live
// lanes `last`.
template <class P, int MR, int NV, bool FIRST, bool EDGE>
inline void gemm_tile(const float* a, int64_t a_rs, int64_t a_cs,
                      const float* b, int64_t ldb, float* c, int64_t ldc,
                      int64_t kc, typename P::Mask last) {
  using V = typename P::V;
  constexpr int VW = P::kVW;
  V acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if constexpr (FIRST) {
        acc[r][v] = P::zero();
      } else if (EDGE && v == NV - 1) {
        acc[r][v] = P::load(c + r * ldc + v * VW, last);
      } else {
        acc[r][v] = P::load(c + r * ldc + v * VW);
      }
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    V bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = (EDGE && v == NV - 1) ? P::load(bp + v * VW, last)
                                    : P::load(bp + v * VW);
    }
    const float* ap = a + p * a_cs;
    for (int r = 0; r < MR; ++r) {
      const V av = P::set1(ap[r * a_rs]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = P::add(acc[r][v], P::mul(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (EDGE && v == NV - 1) {
        P::store(c + r * ldc + v * VW, acc[r][v], last);
      } else {
        P::store(c + r * ldc + v * VW, acc[r][v]);
      }
    }
  }
}

// Picks the tile instantiation for `mr` live rows (R counts down from kMR).
template <class P, int R, int NV, bool FIRST, bool EDGE>
inline void gemm_rows(int64_t mr, const float* a, int64_t a_rs, int64_t a_cs,
                      const float* b, int64_t ldb, float* c, int64_t ldc,
                      int64_t kc, typename P::Mask last) {
  if (mr == R) {
    gemm_tile<P, R, NV, FIRST, EDGE>(a, a_rs, a_cs, b, ldb, c, ldc, kc, last);
    return;
  }
  if constexpr (R > 1) {
    gemm_rows<P, R - 1, NV, FIRST, EDGE>(mr, a, a_rs, a_cs, b, ldb, c, ldc,
                                         kc, last);
  }
}

// An edge tile of `nv` vectors (NV counts down from kNV), the last one
// masked to `last`.
template <class P, bool FIRST, int NV>
inline void gemm_edge(int64_t nv, int64_t mr, const float* a, int64_t a_rs,
                      int64_t a_cs, const float* b, int64_t ldb, float* c,
                      int64_t ldc, int64_t kc, typename P::Mask last) {
  if (nv == NV) {
    gemm_rows<P, P::kMR, NV, FIRST, true>(mr, a, a_rs, a_cs, b, ldb, c, ldc,
                                          kc, last);
    return;
  }
  if constexpr (NV > 1) {
    gemm_edge<P, FIRST, NV - 1>(nv, mr, a, a_rs, a_cs, b, ldb, c, ldc, kc,
                                last);
  }
}

// One tile of `mr` rows and `w` live columns (w <= kNR): a full-width tile
// when w == kNR, otherwise the narrowest edge tile that covers w.
template <class P, bool FIRST>
inline void gemm_block(int64_t mr, int64_t w, const float* a, int64_t a_rs,
                       int64_t a_cs, const float* b, int64_t ldb, float* c,
                       int64_t ldc, int64_t kc) {
  constexpr int VW = P::kVW;
  if (w == P::kNV * VW) {
    gemm_rows<P, P::kMR, P::kNV, FIRST, false>(mr, a, a_rs, a_cs, b, ldb, c,
                                               ldc, kc, P::mask(VW));
    return;
  }
  const int64_t nv = (w + VW - 1) / VW;
  gemm_edge<P, FIRST, P::kNV>(nv, mr, a, a_rs, a_cs, b, ldb, c, ldc, kc,
                              P::mask(w - (nv - 1) * VW));
}

// Rows [0, m) of C, tile by tile, reading B in place: B has unit column
// stride and row stride ldb. Column strips are the outer loop, so one
// strip of B stays in cache while the row tiles sweep over it.
template <class P>
void gemm_in_place(const float* a, int64_t a_rs, int64_t a_cs, const float* b,
                   int64_t ldb, float* c, int64_t ldc, int64_t m, int64_t k,
                   int64_t n) {
  constexpr int64_t NR = P::kNV * P::kVW;
  for (int64_t j0 = 0; j0 < n; j0 += NR) {
    const int64_t w = std::min(NR, n - j0);
    for (int64_t i = 0; i < m; i += P::kMR) {
      const int64_t mr = std::min<int64_t>(P::kMR, m - i);
      gemm_block<P, true>(mr, w, a + i * a_rs, a_rs, a_cs, b + j0, ldb,
                          c + i * ldc + j0, ldc, k);
    }
  }
}

// A k x n row-major copy of a B with non-unit column stride (a transposed
// operand), in the calling thread's scratch buffer, for the in-place
// tiles. Only the shapes that stay cache-resident take this path.
template <class P>
const float* gather_b(const float* b, int64_t b_rs, int64_t b_cs, int64_t k,
                      int64_t n) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < static_cast<size_t>(k * n)) {
    scratch.resize(static_cast<size_t>(k * n));
  }
  float* dst = scratch.data();
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) dst[p * n + j] = b[p * b_rs + j * b_cs];
  }
  return dst;
}

// Pack B (k x n, strided) into ceil(n/kNR) panels. Panel p holds columns
// [p*kNR, p*kNR + kNR) for every k row, contiguous, zero-padded on the
// right edge.
template <class P>
std::vector<float> pack_b_panels(const float* b, int64_t b_rs, int64_t b_cs,
                                 int64_t k, int64_t n) {
  constexpr int64_t NR = P::kNV * P::kVW;
  const int64_t npanels = (n + NR - 1) / NR;
  std::vector<float> bp(static_cast<size_t>(npanels * k * NR));
  core::parallel_for(0, npanels, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * NR;
      const int64_t w = std::min(NR, n - j0);
      float* panel = bp.data() + p * k * NR;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * b_rs + j0 * b_cs;
        float* dst = panel + kk * NR;
        if (b_cs == 1) {
          for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
        } else {
          for (int64_t j = 0; j < w; ++j) dst[j] = src[j * b_cs];
        }
        for (int64_t j = w; j < NR; ++j) dst[j] = 0.0f;
      }
    }
  });
  return bp;
}

// c[i * ldc + j] = sum over p of a(i, p) * b(p, j), for i < m, j < n. C is
// overwritten (k == 0 writes zeros). Three regimes, chosen for speed only:
// small products run serially on B in place; a B of at most kInPlaceB
// floats is read in place by row-parallel tiles; a larger B is packed into
// panels and walked in k-blocks.
template <class P>
void gemm_t(const float* a, int64_t a_rs, int64_t a_cs, const float* b,
            int64_t b_rs, int64_t b_cs, float* c, int64_t ldc, int64_t m,
            int64_t k, int64_t n) {
  if (m == 0 || n == 0) return;
  const bool small = m * n * k <= kSimpleGemmFlops;
  if (small || k * n <= kInPlaceB) {
    int64_t ldb = b_rs;
    if (b_cs != 1) {
      b = gather_b<P>(b, b_rs, b_cs, k, n);
      ldb = n;
    }
    if (small) {
      gemm_in_place<P>(a, a_rs, a_cs, b, ldb, c, ldc, m, k, n);
      return;
    }
    core::parallel_for(0, m, kRowGrain, [&](int64_t r0, int64_t r1) {
      gemm_in_place<P>(a + r0 * a_rs, a_rs, a_cs, b, ldb, c + r0 * ldc, ldc,
                       r1 - r0, k, n);
    });
    return;
  }
  constexpr int64_t NR = P::kNV * P::kVW;
  const std::vector<float> bp = pack_b_panels<P>(b, b_rs, b_cs, k, n);
  const int64_t npanels = (n + NR - 1) / NR;
  core::parallel_for(0, m, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const int64_t kc = std::min(kKC, k - kc0);
      for (int64_t p = 0; p < npanels; ++p) {
        const float* panel = bp.data() + p * k * NR + kc0 * NR;
        const int64_t j0 = p * NR;
        const int64_t w = std::min(NR, n - j0);
        for (int64_t i = r0; i < r1; i += P::kMR) {
          const int64_t mr = std::min<int64_t>(P::kMR, r1 - i);
          const float* ai = a + i * a_rs + kc0 * a_cs;
          float* ci = c + i * ldc + j0;
          if (kc0 == 0) {
            gemm_block<P, true>(mr, w, ai, a_rs, a_cs, panel, NR, ci, ldc, kc);
          } else {
            gemm_block<P, false>(mr, w, ai, a_rs, a_cs, panel, NR, ci, ldc,
                                 kc);
          }
        }
      }
    }
  });
}

}  // namespace actcomp::tensor::kernels
