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
//   * ag::matmul's backward: materialized transposes fed to matmul (now the
//     transposed operand is read in place through its strides);
//   * nn::MultiHeadAttention: split_heads + permute copies, a materialized
//     transpose of K, and a head-merge permute around per-head batched
//     matmuls (now head-strided GEMMs read Q/K/V and write the context in
//     the [b, s, h] layout directly).
// Every comparison is byte for byte; the parallel paths run at 1 and 4 pool
// threads (the attention and matmul ones at 1, 2 and 4, on every tier).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "autograd/variable.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "nn/attention.h"
#include "nn/kv_cache.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ag = actcomp::autograd;
namespace core = actcomp::core;
namespace nn = actcomp::nn;
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


// ag::matmul's backward as it was, verbatim: each transpose materialized.
void matmul_grads(const ts::Tensor& a, const ts::Tensor& b, const ts::Tensor& g,
                  ts::Tensor* da, ts::Tensor* db) {
  const int ra = a.rank(), rb = b.rank();
  if (ra == 2 && rb == 2) {
    *da = ts::matmul2d(g, ts::transpose_last2(b));
    *db = ts::matmul2d(ts::transpose_last2(a), g);
  } else if (ra == 3 && rb == 2) {
    const int64_t B = a.dim(0), m = a.dim(1), k = a.dim(2);
    const int64_t nn = b.dim(1);
    ts::Tensor g2 = g.reshape(ts::Shape{B * m, nn});
    *da = ts::matmul2d(g2, ts::transpose_last2(b)).reshape(ts::Shape{B, m, k});
    ts::Tensor a2 = a.reshape(ts::Shape{B * m, k});
    *db = ts::matmul2d(ts::transpose_last2(a2), g2);
  } else {  // 3x3 batched
    *da = ts::matmul(g, ts::transpose_last2(b));
    *db = ts::matmul(ts::transpose_last2(a), g);
  }
}

// autograd::transpose_last2 as it was, verbatim.
ag::Variable transpose_last2(const ag::Variable& a) {
  const int r = a.value().rank();
  std::vector<int> axes(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) axes[static_cast<size_t>(i)] = i;
  std::swap(axes[axes.size() - 1], axes[axes.size() - 2]);
  return ag::permute(a, axes);
}

/// [b, s, h] -> [b*nh, s, dh]
ag::Variable split_heads(const ag::Variable& x, int64_t b, int64_t s, int64_t nh,
                         int64_t dh) {
  ag::Variable r = ag::reshape(x, ts::Shape{b, s, nh, dh});
  r = ag::permute(r, {0, 2, 1, 3});  // [b, nh, s, dh]
  return ag::reshape(r, ts::Shape{b * nh, s, dh});
}

ts::Tensor causal_mask(int64_t groups, int64_t n, int64_t total, int64_t start) {
  ts::Tensor m{ts::Shape{groups, n, total}};
  const float ninf = -std::numeric_limits<float>::infinity();
  auto d = m.data();
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = d.data() + static_cast<size_t>((g * n + i) * total);
      for (int64_t j = start + i + 1; j < total; ++j) row[j] = ninf;
    }
  }
  return m;
}

// The first `total` cached rows of a [b, capacity, h] store as a [b, total,
// h] copy, as KvCache::keys/values returned them.
ts::Tensor cached_rows(const ts::Tensor& store, int64_t total) {
  const int64_t b = store.dim(0), cap = store.dim(1), h = store.dim(2);
  ts::Tensor out{ts::Shape{b, total, h}};
  const auto src = store.data();
  auto dst = out.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    std::copy_n(src.data() + static_cast<size_t>(bi * cap * h),
                static_cast<size_t>(total * h),
                dst.data() + static_cast<size_t>(bi * total * h));
  }
  return out;
}

// nn::MultiHeadAttention's three forward passes as they were, verbatim
// except that the projections read the module's parameters by name
// (Linear::forward is matmul then bias_act).
class Attention {
 public:
  explicit Attention(const nn::MultiHeadAttention& m)
      : hidden_(m.hidden()), heads_(m.num_heads()), head_dim_(hidden_ / heads_) {
    for (const auto& [name, p] : m.named_parameters()) params_[name] = p;
  }

  ag::Variable forward(const ag::Variable& x, const ts::Tensor& key_mask) const {
    const ts::Tensor& xv = x.value();
    const int64_t b = xv.dim(0), s = xv.dim(1);

    ag::Variable q = split_heads(proj("wq", x), b, s, heads_, head_dim_);
    ag::Variable k = split_heads(proj("wk", x), b, s, heads_, head_dim_);
    ag::Variable v = split_heads(proj("wv", x), b, s, heads_, head_dim_);

    ag::Variable scores = ag::matmul(q, transpose_last2(k));  // [b*nh, s, s]
    scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));

    if (key_mask.numel() > 0) {
      ts::Tensor full{ts::Shape{b * heads_, s, s}};
      const auto dm = key_mask.data();
      auto df = full.data();
      for (int64_t bi = 0; bi < b; ++bi) {
        for (int64_t hrow = 0; hrow < heads_ * s; ++hrow) {
          for (int64_t key = 0; key < s; ++key) {
            df[static_cast<size_t>(((bi * heads_ * s) + hrow) * s + key)] =
                dm[static_cast<size_t>(bi * s + key)];
          }
        }
      }
      scores = ag::add(scores, ag::Variable::leaf(std::move(full)));
    }

    ag::Variable attn = ag::softmax_last(scores);
    ag::Variable ctx = ag::matmul(attn, v);  // [b*nh, s, dh]
    ctx = ag::reshape(ctx, ts::Shape{b, heads_, s, head_dim_});
    ctx = ag::permute(ctx, {0, 2, 1, 3});  // [b, s, nh, dh]
    ctx = ag::reshape(ctx, ts::Shape{b, s, hidden_});
    return proj("wo", ctx);
  }

  ag::Variable forward_causal(const ag::Variable& x) const {
    const ts::Tensor& xv = x.value();
    const int64_t b = xv.dim(0), s = xv.dim(1);

    ag::Variable q = split_heads(proj("wq", x), b, s, heads_, head_dim_);
    ag::Variable k = split_heads(proj("wk", x), b, s, heads_, head_dim_);
    ag::Variable v = split_heads(proj("wv", x), b, s, heads_, head_dim_);

    ag::Variable scores = ag::matmul(q, transpose_last2(k));  // [b*nh, s, s]
    scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
    scores = ag::add(scores, ag::Variable::leaf(causal_mask(b * heads_, s, s, 0)));

    ag::Variable attn = ag::softmax_last(scores);
    ag::Variable ctx = ag::matmul(attn, v);  // [b*nh, s, dh]
    ctx = ag::reshape(ctx, ts::Shape{b, heads_, s, head_dim_});
    ctx = ag::permute(ctx, {0, 2, 1, 3});
    ctx = ag::reshape(ctx, ts::Shape{b, s, hidden_});
    return proj("wo", ctx);
  }

  ag::Variable forward_cached(const ag::Variable& x, nn::KvCache& cache,
                              int64_t layer) const {
    const ts::Tensor& xv = x.value();
    const int64_t b = xv.dim(0), n = xv.dim(1);
    const int64_t start = cache.len();
    const int64_t total = start + n;

    ag::Variable q = proj("wq", x);
    ag::Variable k = proj("wk", x);
    ag::Variable v = proj("wv", x);
    cache.append(layer, k.value(), v.value());

    ag::Variable q3 = split_heads(q, b, n, heads_, head_dim_);
    ag::Variable k3 = split_heads(
        ag::Variable::leaf(cached_rows(cache.keys(layer, total), total)), b,
        total, heads_, head_dim_);
    ag::Variable v3 = split_heads(
        ag::Variable::leaf(cached_rows(cache.values(layer, total), total)), b,
        total, heads_, head_dim_);

    ag::Variable scores = ag::matmul(q3, transpose_last2(k3));  // [b*nh, n, total]
    scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
    scores =
        ag::add(scores, ag::Variable::leaf(causal_mask(b * heads_, n, total, start)));

    ag::Variable attn = ag::softmax_last(scores);
    ag::Variable ctx = ag::matmul(attn, v3);  // [b*nh, n, dh]
    ctx = ag::reshape(ctx, ts::Shape{b, heads_, n, head_dim_});
    ctx = ag::permute(ctx, {0, 2, 1, 3});
    ctx = ag::reshape(ctx, ts::Shape{b, n, hidden_});
    return proj("wo", ctx);
  }

 private:
  ag::Variable proj(const std::string& name, const ag::Variable& x) const {
    return ag::bias_act(ag::matmul(x, params_.at(name + ".weight")),
                        params_.at(name + ".bias"), ag::Act::kNone);
  }

  int64_t hidden_;
  int64_t heads_;
  int64_t head_dim_;
  std::map<std::string, ag::Variable> params_;
};

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

// ---- transposed-operand matmul backward ----

// ag::matmul's gradients against the materialized-transpose backward, for
// the 2x2, 3x2 and 3x3 forms at the Linear and attention shapes.
TEST(MatmulBackwardFastPath, GradientsMatchMaterializedTransposes) {
  ThreadGuard guard;
  const std::vector<std::pair<ts::Shape, ts::Shape>> cases = {
      {ts::Shape{384, 32}, ts::Shape{32, 32}},
      {ts::Shape{32, 384}, ts::Shape{384, 128}},
      {ts::Shape{2, 600}, ts::Shape{600, 9}},
      {ts::Shape{16, 24, 32}, ts::Shape{32, 128}},
      {ts::Shape{8, 64, 128}, ts::Shape{128, 512}},
      {ts::Shape{32, 24, 16}, ts::Shape{32, 16, 24}},
      {ts::Shape{3, 5, 1}, ts::Shape{3, 1, 7}}};
  for (const auto& [as, bs] : cases) {
    ts::Generator gen(41);
    const ts::Tensor av = gen.normal(as);
    const ts::Tensor bv = gen.normal(bs);
    ag::Variable probe = ag::matmul(ag::Variable::leaf(av), ag::Variable::leaf(bv));
    ts::Tensor seed = gen.normal(probe.value().shape());
    seed.data()[0] = -0.0f;
    ts::Tensor want_a, want_b;
    oracle::matmul_grads(av, bv, seed, &want_a, &want_b);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard isa_guard(isa);
      for (int threads : {1, 2, 4}) {
        core::set_num_threads(threads);
        ag::Variable a = ag::Variable::leaf(av, true);
        ag::Variable b = ag::Variable::leaf(bv, true);
        ag::matmul(a, b).backward(seed);
        const std::string where = as.str() + " x " + bs.str() + " " +
                                  core::simd_isa_name(isa) +
                                  " t=" + std::to_string(threads);
        EXPECT_TRUE(same_bytes(a.grad(), want_a)) << where;
        EXPECT_TRUE(same_bytes(b.grad(), want_b)) << where;
      }
    });
  }
}

// ---- head-strided attention ----

struct AttentionCase {
  int64_t b, s, h, nh;
};

// The perfbench fine-tune shape, the kernels_bench finetune_step shape, one
// head, a head width that is not a multiple of 16, and a single position.
const std::vector<AttentionCase>& attention_cases() {
  static const std::vector<AttentionCase> c = {
      {16, 24, 32, 2}, {8, 64, 128, 4}, {3, 5, 16, 1}, {2, 7, 30, 3}, {4, 1, 32, 2}};
  return c;
}

std::string attention_where(const AttentionCase& c) {
  return "b" + std::to_string(c.b) + " s" + std::to_string(c.s) + " h" +
         std::to_string(c.h) + " nh" + std::to_string(c.nh);
}

// Output, input gradient and every parameter gradient (empty when a
// parameter got none) of one forward + backward from a fixed seed.
template <typename Fwd>
std::vector<ts::Tensor> forward_backward(const nn::MultiHeadAttention& m,
                                         const ts::Tensor& xv,
                                         const ts::Tensor& seed, Fwd&& fwd) {
  for (auto [name, p] : m.named_parameters()) p.zero_grad();
  ag::Variable x = ag::Variable::leaf(xv, true);
  ag::Variable y = fwd(x);
  y.backward(seed);
  std::vector<ts::Tensor> out{y.value(), x.grad()};
  for (const auto& [name, p] : m.named_parameters()) {
    out.push_back(p.has_grad() ? p.grad() : ts::Tensor{});
  }
  return out;
}

void expect_same(const std::vector<ts::Tensor>& got,
                 const std::vector<ts::Tensor>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bytes(got[i], want[i]))
        << where << (i == 0 ? " output" : i == 1 ? " x grad" : " param grad ")
        << (i >= 2 ? std::to_string(i - 2) : "");
  }
}

// forward (without and with a key mask) and forward_causal: output and
// every gradient against the split-head oracle, on every tier at 1, 2 and
// 4 threads.
TEST(AttentionFastPath, FullSequencePassesMatchSplitHeadOracle) {
  ThreadGuard guard;
  for (const AttentionCase& c : attention_cases()) {
    ts::Generator gen(51);
    const nn::MultiHeadAttention m(c.h, c.nh, gen);
    const oracle::Attention old(m);
    const ts::Tensor xv = gen.normal(ts::Shape{c.b, c.s, c.h});
    const ts::Tensor seed = gen.normal(ts::Shape{c.b, c.s, c.h});
    ts::Tensor mask{ts::Shape{c.b, c.s}};
    for (int64_t bi = 1; bi < c.b; bi += 2) {
      for (int64_t key = c.s / 2; key < c.s; ++key) {
        mask.data()[static_cast<size_t>(bi * c.s + key)] = -10000.0f;
      }
    }
    const ts::Tensor no_mask;
    core::set_num_threads(1);
    const auto want_plain = forward_backward(
        m, xv, seed, [&](const ag::Variable& x) { return old.forward(x, no_mask); });
    const auto want_masked = forward_backward(
        m, xv, seed, [&](const ag::Variable& x) { return old.forward(x, mask); });
    const auto want_causal = forward_backward(
        m, xv, seed, [&](const ag::Variable& x) { return old.forward_causal(x); });
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard isa_guard(isa);
      for (int threads : {1, 2, 4}) {
        core::set_num_threads(threads);
        const std::string where = attention_where(c) + " " +
                                  core::simd_isa_name(isa) +
                                  " t=" + std::to_string(threads);
        expect_same(forward_backward(m, xv, seed,
                                     [&](const ag::Variable& x) {
                                       return m.forward(x, no_mask);
                                     }),
                    want_plain, where + " forward");
        expect_same(forward_backward(m, xv, seed,
                                     [&](const ag::Variable& x) {
                                       return m.forward(x, mask);
                                     }),
                    want_masked, where + " forward+mask");
        expect_same(forward_backward(m, xv, seed,
                                     [&](const ag::Variable& x) {
                                       return m.forward_causal(x);
                                     }),
                    want_causal, where + " forward_causal");
      }
    });
  }
}

// forward_cached over a prompt and then one position per step, reading the
// cache store in place, against the oracle that copies the cached rows and
// splits heads. Each step's output and gradients must match.
TEST(AttentionFastPath, CachedDecodeMatchesSplitHeadOracle) {
  ThreadGuard guard;
  for (const AttentionCase& c : attention_cases()) {
    ts::Generator gen(61);
    const nn::MultiHeadAttention m(c.h, c.nh, gen);
    const oracle::Attention old(m);
    const ts::Tensor xv = gen.normal(ts::Shape{c.b, c.s, c.h});
    const int64_t prompt = std::max<int64_t>(1, c.s / 2);
    auto decode = [&](bool use_oracle) {
      nn::KvCache cache(1, c.b, c.h, /*capacity=*/2);
      std::vector<std::vector<ts::Tensor>> steps;
      for (int64_t start = 0; start < c.s;) {
        const int64_t n = start == 0 ? prompt : 1;
        ts::Tensor xs{ts::Shape{c.b, n, c.h}};
        for (int64_t bi = 0; bi < c.b; ++bi) {
          std::copy_n(xv.data().data() + (bi * c.s + start) * c.h, n * c.h,
                      xs.data().data() + bi * n * c.h);
        }
        const ts::Tensor seed = ts::add_scalar(xs, 0.5f);
        cache.begin_step(n);
        steps.push_back(forward_backward(m, xs, seed, [&](const ag::Variable& x) {
          return use_oracle ? old.forward_cached(x, cache, 0)
                            : m.forward_cached(x, cache, 0);
        }));
        cache.commit();
        start += n;
      }
      return steps;
    };
    core::set_num_threads(1);
    const auto want = decode(true);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard isa_guard(isa);
      for (int threads : {1, 2, 4}) {
        core::set_num_threads(threads);
        const auto got = decode(false);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          expect_same(got[i], want[i],
                      attention_where(c) + " " + core::simd_isa_name(isa) +
                          " t=" + std::to_string(threads) + " step " +
                          std::to_string(i));
        }
      }
    });
  }
}
