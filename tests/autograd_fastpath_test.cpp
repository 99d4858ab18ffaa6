// Differential tests for the copy-free fine-tune backward. The loops the
// fast paths replaced are copied verbatim into `oracle::` below and kept
// only here:
//   * tensor::permute: one div/mod decomposition of the multi-index per
//     output element (now one per innermost row, then memcpy or a strided
//     gather);
//   * reduce_to_shape (autograd's broadcast backward): a flat walk adding
//     g[i] into out[i % nb] (now whole rows added in ascending order);
//   * Node::accumulate: a copy of the first gradient and a scalar loop for
//     later ones (now the first fresh gradient's buffer is adopted and later
//     ones go through KernelTable::ew_add in place).
// Every comparison is byte for byte; the parallel paths run at 1 and 4 pool
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "autograd/variable.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ag = actcomp::autograd;
namespace core = actcomp::core;
namespace ts = actcomp::tensor;

namespace oracle {

constexpr int64_t kEwGrain = 1 << 13;

// tensor::permute as it was, verbatim.
ts::Tensor permute(const ts::Tensor& a, const std::vector<int>& axes) {
  const int r = a.rank();
  std::vector<int64_t> out_dims(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    out_dims[static_cast<size_t>(i)] = a.dim(axes[static_cast<size_t>(i)]);
  }
  ts::Tensor out{ts::Shape(out_dims)};
  const auto in_strides = a.shape().strides();
  const auto out_strides = out.shape().strides();
  const auto din = a.data();
  auto dout = out.data();
  const int64_t n = a.numel();
  // For each output flat index, reconstruct multi-index and map to input.
  core::parallel_for(0, n, kEwGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t flat = lo; flat < hi; ++flat) {
      int64_t rem = flat;
      int64_t src = 0;
      for (int i = 0; i < r; ++i) {
        const int64_t coord = rem / out_strides[static_cast<size_t>(i)];
        rem %= out_strides[static_cast<size_t>(i)];
        src += coord * in_strides[static_cast<size_t>(axes[static_cast<size_t>(i)])];
      }
      dout[static_cast<size_t>(flat)] = din[static_cast<size_t>(src)];
    }
  });
  return out;
}

// autograd's reduce_to_shape as it was, verbatim.
ts::Tensor reduce_to_shape(const ts::Tensor& g, const ts::Shape& target) {
  if (g.shape() == target) return g;
  ts::Tensor out{target};
  const auto dg = g.data();
  auto dout = out.data();
  const size_t nb = static_cast<size_t>(target.numel());
  for (size_t i = 0; i < dg.size(); ++i) dout[i % nb] += dg[i];
  return out;
}

// Node::accumulate's later-gradient loop as it was, verbatim.
void accumulate_into(ts::Tensor& grad, const ts::Tensor& g) {
  auto dg = grad.data();
  const auto ds = g.data();
  for (size_t i = 0; i < dg.size(); ++i) dg[i] += ds[i];
}

}  // namespace oracle

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

// Runs fn(isa) for every tier this host can execute, scalar first.
template <typename Fn>
void for_each_supported_isa(Fn&& fn) {
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    fn(static_cast<core::SimdIsa>(t));
  }
}

bool same_bytes(const ts::Tensor& a, const ts::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size() * sizeof(float)) == 0;
}

// Normal values with a signed zero, a NaN and an infinity mixed in, so a
// copy that goes through arithmetic would show.
ts::Tensor test_values(const ts::Shape& shape, uint64_t seed) {
  ts::Generator gen(seed);
  ts::Tensor t = gen.normal(shape);
  auto d = t.data();
  if (d.size() > 3) {
    d[1] = -0.0f;
    d[2] = std::numeric_limits<float>::quiet_NaN();
    d[3] = -std::numeric_limits<float>::infinity();
  }
  return t;
}

}  // namespace

TEST(PermuteFastPath, EveryPermutationMatchesOracle) {
  ThreadGuard guard;
  const std::vector<ts::Shape> shapes = {
      ts::Shape{},           ts::Shape{7},          ts::Shape{0},
      ts::Shape{3, 5},       ts::Shape{1, 1},       ts::Shape{0, 4},
      ts::Shape{2, 3, 4},    ts::Shape{3, 0, 2},    ts::Shape{1, 9, 1},
      ts::Shape{32, 24, 16}, ts::Shape{2, 3, 4, 5}, ts::Shape{1, 3, 1, 2},
      ts::Shape{2, 0, 3, 1}, ts::Shape{16, 24, 2, 16}};
  uint64_t seed = 1;
  for (const ts::Shape& shape : shapes) {
    const ts::Tensor x = test_values(shape, seed++);
    std::vector<int> axes(static_cast<size_t>(shape.rank()));
    std::iota(axes.begin(), axes.end(), 0);
    do {
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        const ts::Tensor want = oracle::permute(x, axes);
        const ts::Tensor got = ts::permute(x, axes);
        std::string where = shape.str() + " axes";
        for (int a : axes) where += " " + std::to_string(a);
        EXPECT_TRUE(same_bytes(got, want)) << where << " t=" << threads;
      }
    } while (std::next_permutation(axes.begin(), axes.end()));
  }
}

TEST(PermuteFastPath, TransposeLast2MatchesOracle) {
  ThreadGuard guard;
  for (const ts::Shape& shape :
       {ts::Shape{384, 32}, ts::Shape{32, 24, 16}, ts::Shape{16, 24, 2, 16}}) {
    const ts::Tensor x = test_values(shape, 11);
    std::vector<int> axes(static_cast<size_t>(shape.rank()));
    std::iota(axes.begin(), axes.end(), 0);
    std::swap(axes[axes.size() - 1], axes[axes.size() - 2]);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      EXPECT_TRUE(same_bytes(ts::transpose_last2(x), oracle::permute(x, axes)))
          << shape.str() << " t=" << threads;
    }
  }
}

// The bias gradient of ag::add's broadcast backward against the flat modulo
// walk. Large-magnitude values make any reordering of the additions show.
TEST(ReduceFastPath, BroadcastBiasGradMatchesOracle) {
  ThreadGuard guard;
  const std::vector<std::pair<ts::Shape, ts::Shape>> cases = {
      {ts::Shape{384, 32}, ts::Shape{32}},
      {ts::Shape{384, 128}, ts::Shape{128}},
      {ts::Shape{2, 3, 5}, ts::Shape{3, 5}},
      {ts::Shape{16, 24, 128}, ts::Shape{128}}};
  for (const auto& [xs, bs] : cases) {
    ts::Generator gen(7);
    const ts::Tensor xv = gen.normal(xs);
    const ts::Tensor bv = gen.normal(bs);
    ts::Tensor seed = gen.normal(xs, 0.0f, 1000.0f);
    seed.data()[0] = -0.0f;
    const ts::Tensor want_b = oracle::reduce_to_shape(seed, bs);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard isa_guard(isa);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        ag::Variable x = ag::Variable::leaf(xv, true);
        ag::Variable b = ag::Variable::leaf(bv, true);
        ag::add(x, b).backward(seed);
        const std::string where = xs.str() + "->" + bs.str() + " " +
                                  core::simd_isa_name(isa) +
                                  " t=" + std::to_string(threads);
        EXPECT_TRUE(same_bytes(b.grad(), want_b)) << where;
        EXPECT_TRUE(same_bytes(x.grad(), seed)) << where;
      }
    });
  }
}

// ---- move-accumulate ----

TEST(MoveAccumulate, AdoptsUniqueBufferAndCopiesAliasedOne) {
  ag::detail::Node fresh;
  fresh.value = ts::Tensor{ts::Shape{3}};
  ts::Tensor g = test_values(ts::Shape{3}, 5);
  const float* buffer = g.data().data();
  fresh.accumulate(std::move(g));
  EXPECT_EQ(fresh.grad.data().data(), buffer);

  ag::detail::Node aliased;
  aliased.value = ts::Tensor{ts::Shape{3}};
  ts::Tensor h = test_values(ts::Shape{3}, 5);
  const ts::Tensor keep = h;
  aliased.accumulate(std::move(h));
  EXPECT_FALSE(aliased.grad.shares_storage_with(keep));
  EXPECT_TRUE(same_bytes(aliased.grad, keep));

  // A reshape view shares its source's storage, so it is copied too.
  ag::detail::Node viewed;
  viewed.value = ts::Tensor{ts::Shape{1, 3}};
  viewed.accumulate(keep.reshape(ts::Shape{1, 3}));
  EXPECT_FALSE(viewed.grad.shares_storage_with(keep));
}

TEST(MoveAccumulate, LaterGradientsAddInArrivalOrder) {
  for (int64_t n : {0, 1, 7, 8, 17, 100, 50000}) {
    const ts::Tensor g0 = test_values(ts::Shape{n}, 21);
    const ts::Tensor g1 = test_values(ts::Shape{n}, 22);
    const ts::Tensor g2 = test_values(ts::Shape{n}, 23);
    ts::Tensor want = g0.clone();
    oracle::accumulate_into(want, g1);
    oracle::accumulate_into(want, g2);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard isa_guard(isa);
      ag::detail::Node node;
      node.value = ts::Tensor{ts::Shape{n}};
      node.accumulate(g0.clone());
      node.accumulate(g1);
      node.accumulate(g2.clone());
      EXPECT_TRUE(same_bytes(node.grad, want))
          << "n=" << n << " " << core::simd_isa_name(isa);
    });
  }
}

TEST(MoveAccumulate, ShapeMismatchStillThrows) {
  ag::detail::Node node;
  node.value = ts::Tensor{ts::Shape{2, 3}};
  EXPECT_THROW(node.accumulate(ts::Tensor{ts::Shape{3, 2}}), std::invalid_argument);
  EXPECT_FALSE(node.has_grad);
}

// One node reached twice: the first gradient is the child's own grad (copied),
// the second is the identity-reduced alias of it (added).
TEST(MoveAccumulate, SameNodeTwice) {
  const ts::Tensor seed = test_values(ts::Shape{4, 5}, 31);
  ag::Variable x = ag::Variable::leaf(ts::Tensor{seed.shape()}, true);
  ag::Variable y = ag::add(x, x);
  y.backward(seed);
  ts::Tensor want = seed.clone();
  oracle::accumulate_into(want, seed);
  EXPECT_TRUE(same_bytes(x.grad(), want));
  EXPECT_TRUE(same_bytes(y.grad(), seed));
  EXPECT_FALSE(x.grad().shares_storage_with(y.grad()));
}

TEST(MoveAccumulate, EqualShapeAddDoesNotAliasSiblings) {
  const ts::Tensor seed = test_values(ts::Shape{6, 2}, 32);
  ag::Variable x = ag::Variable::leaf(ts::Tensor{seed.shape()}, true);
  ag::Variable y = ag::Variable::leaf(ts::Tensor{seed.shape()}, true);
  ag::Variable z = ag::add(x, y);
  z.backward(seed);
  EXPECT_TRUE(same_bytes(x.grad(), seed));
  EXPECT_TRUE(same_bytes(y.grad(), seed));
  EXPECT_FALSE(x.grad().shares_storage_with(y.grad()));
  EXPECT_FALSE(y.grad().shares_storage_with(z.grad()));
  EXPECT_FALSE(x.grad().shares_storage_with(z.grad()));
}

TEST(MoveAccumulate, ReshapeChainCopiesViews) {
  ts::Generator gen(33);
  const ts::Tensor wv = gen.normal(ts::Shape{2, 12});
  const ts::Tensor seed = test_values(ts::Shape{2, 12}, 34);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{4, 6}), true);
  ag::Variable r1 = ag::reshape(x, ts::Shape{24});
  ag::Variable r2 = ag::reshape(r1, ts::Shape{2, 12});
  ag::Variable y = ag::mul(r2, ag::Variable::leaf(wv));
  y.backward(seed);
  const ts::Tensor want = ts::mul(seed, wv).reshape(ts::Shape{4, 6});
  EXPECT_TRUE(same_bytes(x.grad(), want));
  EXPECT_FALSE(x.grad().shares_storage_with(r1.grad()));
  EXPECT_FALSE(r1.grad().shares_storage_with(r2.grad()));
}

// h is an interior node the caller keeps; x reaches the root along two paths
// and sums them in place after adopting its first buffer. h's gradient must
// come out exactly as before and stay put.
TEST(MoveAccumulate, RetainedIntermediateKeepsItsGrad) {
  ts::Generator gen(35);
  const ts::Tensor wv = gen.normal(ts::Shape{3, 4});
  const ts::Tensor seed = test_values(ts::Shape{3, 4}, 36);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{3, 4}), true);
  ag::Variable w = ag::Variable::leaf(wv);
  ag::Variable h = ag::mul(x, w);
  ag::Variable y = ag::add(h, h);
  ag::Variable z = ag::add(y, x);
  z.backward(seed);

  ts::Tensor want_h = seed.clone();
  oracle::accumulate_into(want_h, seed);
  ts::Tensor want_x = seed.clone();
  oracle::accumulate_into(want_x, ts::mul(want_h, wv));
  EXPECT_TRUE(same_bytes(h.grad(), want_h));
  EXPECT_TRUE(same_bytes(x.grad(), want_x));
  for (const ag::Variable* v : {&y, &z}) {
    EXPECT_FALSE(h.grad().shares_storage_with(v->grad()));
    EXPECT_FALSE(x.grad().shares_storage_with(v->grad()));
  }
  EXPECT_FALSE(h.grad().shares_storage_with(x.grad()));
}

// A second backward over the same graph adds into every gradient the first
// one left, interior nodes included, exactly as before adoption existed.
TEST(MoveAccumulate, BackwardTwiceAccumulates) {
  ts::Generator gen(37);
  const ts::Tensor wv = gen.normal(ts::Shape{8, 4});
  const ts::Tensor bv = gen.normal(ts::Shape{4});
  const ts::Tensor seed = test_values(ts::Shape{8, 4}, 38);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{8, 4}), true);
  ag::Variable b = ag::Variable::leaf(bv, true);
  ag::Variable h = ag::mul(x, ag::Variable::leaf(wv));
  ag::Variable z = ag::add(h, b);
  z.backward(seed);
  z.backward(seed);

  ts::Tensor z_grad = seed.clone();  // the root adds the seed again
  oracle::accumulate_into(z_grad, seed);
  ts::Tensor want_h = seed.clone();
  oracle::accumulate_into(want_h, z_grad);
  ts::Tensor want_b = oracle::reduce_to_shape(seed, bv.shape());
  oracle::accumulate_into(want_b, oracle::reduce_to_shape(z_grad, bv.shape()));
  ts::Tensor want_x = ts::mul(seed, wv);
  oracle::accumulate_into(want_x, ts::mul(want_h, wv));
  EXPECT_TRUE(same_bytes(z.grad(), z_grad));
  EXPECT_TRUE(same_bytes(h.grad(), want_h));
  EXPECT_TRUE(same_bytes(b.grad(), want_b));
  EXPECT_TRUE(same_bytes(x.grad(), want_x));
}
