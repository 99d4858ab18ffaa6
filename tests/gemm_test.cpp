// Differential tests for the strided GEMM entry (KernelTable::gemm) and the
// tensor ops built on it. The kernels it replaced live on verbatim in
// gemm_oracle.h; every comparison runs them on row-major, materialized
// copies of the operands and checks the strided result byte for byte, for
// all four layouts (NN, NT, TN, TT), every SIMD tier the host runs, and
// 1, 2 and 4 pool threads. The shapes cover each regime of the entry
// (serial in place, row-parallel in place, packed panels with k-blocking)
// and its edges: fewer rows than a tile, ragged column tails, k = 1,
// k > kKC, and zero-size dimensions.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/simd.h"
#include "core/threadpool.h"
#include "gemm_oracle.h"
#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace core = actcomp::core;
namespace ts = actcomp::tensor;
namespace kn = actcomp::tensor::kernels;

namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(core::num_threads()) {}
  ~ThreadGuard() { core::set_num_threads(saved_); }

 private:
  int saved_;
};

class IsaGuard {
 public:
  explicit IsaGuard(core::SimdIsa isa) : saved_(core::simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~IsaGuard() { core::set_simd_isa(saved_); }

 private:
  core::SimdIsa saved_;
};

int num_tiers() { return static_cast<int>(core::detected_simd_isa()) + 1; }

bool same_bytes(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool same_bytes(const ts::Tensor& a, const ts::Tensor& b) {
  return a.shape() == b.shape() &&
         same_bytes(a.data().data(), b.data().data(), a.data().size());
}

// Normal values with exact zeros mixed in. Row 0 is all zeros and column 0
// of the right operand is all negative, so C[0][0] is a sum of -0 products:
// +0 only when the sum starts from 0, as the contract requires.
std::vector<float> values(int64_t rows, int64_t cols, uint64_t seed,
                          bool zero_first_row, bool negative_first_col) {
  ts::Generator gen(seed);
  const ts::Tensor t = gen.normal(ts::Shape{rows * cols});
  std::vector<float> v(t.data().begin(), t.data().end());
  for (size_t i = 7; i < v.size(); i += 11) v[i] = 0.0f;
  for (size_t i = 5; i < v.size(); i += 13) v[i] = -0.0f;
  if (zero_first_row && rows > 0) {
    for (int64_t j = 0; j < cols; ++j) v[static_cast<size_t>(j)] = 0.0f;
  }
  if (negative_first_col && cols > 0) {
    for (int64_t i = 0; i < rows; ++i) {
      float& x = v[static_cast<size_t>(i * cols)];
      x = -std::fabs(x) - 0.5f;
    }
  }
  return v;
}

// Row-major rows x cols matrix -> its transpose, cols x rows.
std::vector<float> transposed(const std::vector<float>& v, int64_t rows,
                              int64_t cols) {
  std::vector<float> t(v.size());
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      t[static_cast<size_t>(j * rows + i)] = v[static_cast<size_t>(i * cols + j)];
    }
  }
  return t;
}

struct Case {
  int64_t m, k, n;
};

// m < tile rows, ragged n, k = 1, zero sizes, the attention and Linear
// shapes of the benchmarks, and each regime: serial in place (up to
// kSimpleGemmFlops), row-parallel in place (B up to kInPlaceB floats), and
// packed panels, with k above kKC on both of the latter two.
const std::vector<Case>& cases() {
  static const std::vector<Case> c = {
      {1, 1, 1},     {3, 5, 7},      {5, 1, 17},    {4, 1, 33},
      {0, 4, 5},     {4, 0, 5},      {4, 5, 0},     {7, 9, 16},
      {24, 16, 24},  {24, 24, 16},   {16, 24, 24},  {64, 10, 64},
      {33, 40, 50},  {2, 600, 9},    {80, 80, 80},  {384, 32, 32},
      {32, 384, 32}, {100, 90, 70},  {70, 600, 40}, {40, 700, 100},
      {130, 257, 270}};
  return c;
}

std::string where(const Case& c, bool ta, bool tb, int tier, int threads) {
  return std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
         std::to_string(c.n) + (ta ? " A^T" : " A") + (tb ? " B^T" : " B") +
         " tier " + std::to_string(tier) + " t=" + std::to_string(threads);
}

}  // namespace

TEST(StridedGemm, ThresholdsSplitTheCases) {
  // The case list reaches every regime of the entry.
  bool serial = false, row_parallel = false, packed = false;
  for (const Case& c : cases()) {
    const int64_t flops = c.m * c.k * c.n;
    if (flops <= kn::kSimpleGemmFlops) {
      serial = true;
    } else if (c.k * c.n <= kn::kInPlaceB) {
      row_parallel = true;
    } else {
      packed = packed || c.k > kn::kKC;
    }
  }
  EXPECT_TRUE(serial && row_parallel && packed);
}

TEST(StridedGemm, EveryLayoutMatchesTheOldKernelsOnMaterializedTransposes) {
  ThreadGuard guard;
  uint64_t seed = 1;
  for (const Case& c : cases()) {
    const std::vector<float> a = values(c.m, c.k, seed++, true, false);
    const std::vector<float> b = values(c.k, c.n, seed++, false, true);
    // The old kernels on row-major copies; C zeroed as they required.
    std::vector<float> want(static_cast<size_t>(c.m * c.n), 0.0f);
    gemm_oracle::gemm_into(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    const std::vector<float> at = transposed(a, c.m, c.k);
    const std::vector<float> bt = transposed(b, c.k, c.n);
    // C rows are padded by 3 floats that must survive untouched, and the
    // live block starts as NaN garbage that the entry must overwrite.
    const int64_t ldc = c.n + 3;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const float* pa = ta ? at.data() : a.data();
        const int64_t a_rs = ta ? 1 : c.k, a_cs = ta ? c.m : 1;
        const float* pb = tb ? bt.data() : b.data();
        const int64_t b_rs = tb ? 1 : c.n, b_cs = tb ? c.k : 1;
        for (int tier = 0; tier < num_tiers(); ++tier) {
          for (int threads : {1, 2, 4}) {
            core::set_num_threads(threads);
            std::vector<float> got(static_cast<size_t>(c.m * ldc),
                                   std::nanf(""));
            for (int64_t i = 0; i < c.m; ++i) {
              for (int64_t j = c.n; j < ldc; ++j) {
                got[static_cast<size_t>(i * ldc + j)] = 1234.5f;
              }
            }
            kn::kernels_for_tier(tier).gemm(pa, a_rs, a_cs, pb, b_rs, b_cs,
                                            got.data(), ldc, c.m, c.k, c.n);
            bool ok = true;
            for (int64_t i = 0; i < c.m && ok; ++i) {
              ok = same_bytes(got.data() + i * ldc, want.data() + i * c.n,
                              static_cast<size_t>(c.n));
              for (int64_t j = c.n; j < ldc; ++j) {
                ok = ok && got[static_cast<size_t>(i * ldc + j)] == 1234.5f;
              }
            }
            EXPECT_TRUE(ok) << where(c, ta, tb, tier, threads);
          }
        }
      }
    }
  }
}

// matmul2d and the batched matmul with transpose flags against the same
// ops on transposes materialized by transpose_last2.
TEST(StridedGemm, MatmulFlagsMatchMaterializedTransposes) {
  ThreadGuard guard;
  ts::Generator gen(17);
  for (const Case& c : {Case{24, 16, 24}, Case{384, 32, 128}, Case{40, 700, 100},
                        Case{5, 1, 3}}) {
    const ts::Tensor a = gen.normal(ts::Shape{c.m, c.k});
    const ts::Tensor b = gen.normal(ts::Shape{c.k, c.n});
    const ts::Tensor at = ts::transpose_last2(a);
    const ts::Tensor bt = ts::transpose_last2(b);
    const ts::Tensor a3 = gen.normal(ts::Shape{3, c.m, c.k});
    const ts::Tensor b3 = gen.normal(ts::Shape{3, c.k, c.n});
    const ts::Tensor a3t = ts::transpose_last2(a3);
    const ts::Tensor b3t = ts::transpose_last2(b3);
    for (int tier = 0; tier < num_tiers(); ++tier) {
      IsaGuard isa(static_cast<core::SimdIsa>(tier));
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        const ts::Tensor want = ts::matmul2d(a, b);
        EXPECT_TRUE(same_bytes(ts::matmul2d(at, b, true, false), want));
        EXPECT_TRUE(same_bytes(ts::matmul2d(a, bt, false, true), want));
        EXPECT_TRUE(same_bytes(ts::matmul2d(at, bt, true, true), want));
        const ts::Tensor want3 = ts::matmul(a3, b3);
        EXPECT_TRUE(same_bytes(ts::matmul(a3t, b3, true, false), want3));
        EXPECT_TRUE(same_bytes(ts::matmul(a3, b3t, false, true), want3));
        EXPECT_TRUE(same_bytes(ts::matmul(a3t, b3t, true, true), want3));
      }
    }
  }
  const ts::Tensor x{ts::Shape{2, 3, 4}};
  const ts::Tensor w{ts::Shape{4, 5}};
  EXPECT_THROW(ts::matmul(x, w, false, true), std::invalid_argument);
  EXPECT_THROW(ts::matmul2d(w, w, false, false), std::invalid_argument);
}

// Per-head slices of [b, s, h] activations, read and written in place,
// against the same products on split-head copies.
TEST(StridedGemm, HeadStridedBatchMatchesSplitHeadCopies) {
  ThreadGuard guard;
  for (const std::array<int64_t, 3>& shape :
       {std::array<int64_t, 3>{16, 24, 32}, std::array<int64_t, 3>{2, 5, 30}}) {
    const int64_t b = shape[0], s = shape[1], h = shape[2];
    const int64_t nh = 2, dh = h / nh;
    ts::Generator gen(23);
    const ts::Tensor q = gen.normal(ts::Shape{b, s, h});
    const ts::Tensor k = gen.normal(ts::Shape{b, s, h});
    auto split = [&](const ts::Tensor& t) {
      return ts::permute(t.reshape(ts::Shape{b, s, nh, dh}), {0, 2, 1, 3})
          .reshape(ts::Shape{b * nh, s, dh});
    };
    const ts::Tensor want = ts::matmul(split(q), split(k), false, true);
    for (int tier = 0; tier < num_tiers(); ++tier) {
      IsaGuard isa(static_cast<core::SimdIsa>(tier));
      for (int threads : {1, 2, 4}) {
        core::set_num_threads(threads);
        ts::Tensor got{ts::Shape{b * nh, s, s}};
        const ts::MatrixBatch qh{q.data().data(), h, 1, s * h, dh};
        const ts::MatrixBatch kh{k.data().data(), h, 1, s * h, dh};
        ts::matmul_strided(b, nh, s, dh, s, qh, kh.t(),
                           ts::OutputBatch{got.data().data(), s, nh * s * s,
                                           s * s});
        EXPECT_TRUE(same_bytes(got, want)) << b << "x" << s << "x" << h;
        // The context product written straight into the merged layout.
        ts::Tensor ctx{ts::Shape{b, s, h}};
        const ts::MatrixBatch attn{got.data().data(), s, 1, nh * s * s, s * s};
        ts::matmul_strided(b, nh, s, s, dh, attn, kh,
                           ts::OutputBatch{ctx.data().data(), h, s * h, dh});
        const ts::Tensor want_ctx =
            ts::permute(ts::matmul(want, split(k))
                            .reshape(ts::Shape{b, nh, s, dh}),
                        {0, 2, 1, 3})
                .reshape(ts::Shape{b, s, h});
        EXPECT_TRUE(same_bytes(ctx, want_ctx)) << b << "x" << s << "x" << h;
      }
    }
  }
}
