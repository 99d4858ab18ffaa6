#include "nn/attention.h"

#include <cmath>
#include <limits>
#include <utility>

#include "autograd/functions.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace actcomp::nn {

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       tensor::Generator& gen)
    : hidden_(hidden),
      heads_(num_heads),
      head_dim_(hidden / num_heads),
      wq_(hidden, hidden, gen),
      wk_(hidden, hidden, gen),
      wv_(hidden, hidden, gen),
      wo_(hidden, hidden, gen) {
  ACTCOMP_CHECK(num_heads > 0 && hidden % num_heads == 0,
                "hidden " << hidden << " not divisible by heads " << num_heads);
}

namespace {

/// The heads of a [b, rows, h] activation as a [b, nh] batch of rows x dh
/// matrices, in place: row stride h, batch strides rows * h and dh.
ts::MatrixBatch heads(const ts::Tensor& t, int64_t dh) {
  const int64_t h = t.dim(2);
  return {t.data().data(), h, 1, t.dim(1) * h, dh};
}
ts::OutputBatch heads_out(ts::Tensor& t, int64_t dh) {
  const int64_t h = t.dim(2);
  return {t.data().data(), h, t.dim(1) * h, dh};
}

/// A [b*nh, r, c] score-shaped tensor as a [b, nh] batch of r x c matrices.
ts::MatrixBatch score_mats(const ts::Tensor& t, int64_t nh) {
  const int64_t r = t.dim(1), c = t.dim(2);
  return {t.data().data(), c, 1, nh * r * c, r * c};
}
ts::OutputBatch score_mats_out(ts::Tensor& t, int64_t nh) {
  const int64_t r = t.dim(1), c = t.dim(2);
  return {t.data().data(), c, nh * r * c, r * c};
}

/// Per-head scores q_h · k_hᵀ -> [b*nh, sq, sk], read straight from the
/// [b, sq, h] query and [b, ≥sk, h] key projections (the first sk key rows
/// of each batch row are used, so a KvCache store serves as k).
ag::Variable head_scores(const ag::Variable& q, const ag::Variable& k,
                         int64_t nh, int64_t sk) {
  const ts::Tensor& qv = q.value();
  const int64_t b = qv.dim(0), sq = qv.dim(1), dh = qv.dim(2) / nh;
  ts::Tensor out{ts::Shape{b * nh, sq, sk}};
  ts::matmul_strided(b, nh, sq, dh, sk, heads(qv, dh),
                     heads(k.value(), dh).t(), score_mats_out(out, nh));
  return ag::Variable::make(
      std::move(out), {q, k},
      [qn = q.node(), kn = k.node(), nh, sk](ag::detail::Node& n) {
        const ts::Tensor& qv = qn->value;
        const ts::Tensor& kv = kn->value;
        const int64_t b = qv.dim(0), sq = qv.dim(1), dh = qv.dim(2) / nh;
        const ts::MatrixBatch g = score_mats(n.grad, nh);
        if (qn->requires_grad) {  // dq_h = g · k_h
          ts::Tensor dq{qv.shape()};
          ts::matmul_strided(b, nh, sq, sk, dh, g, heads(kv, dh),
                             heads_out(dq, dh));
          qn->accumulate(std::move(dq));
        }
        if (kn->requires_grad) {  // dk_h = gᵀ · q_h
          ts::Tensor dk{kv.shape()};
          ts::matmul_strided(b, nh, sk, sq, dh, g.t(), heads(qv, dh),
                             heads_out(dk, dh));
          kn->accumulate(std::move(dk));
        }
      },
      "head_scores");
}

/// Per-head context attn_h · v_h -> [b, sq, h], written straight into the
/// merged-head layout. attn is [b*nh, sq, sk]; v is [b, ≥sk, h] as k above.
ag::Variable head_context(const ag::Variable& attn, const ag::Variable& v,
                          int64_t nh) {
  const ts::Tensor& av = attn.value();
  const ts::Tensor& vv = v.value();
  const int64_t b = vv.dim(0), h = vv.dim(2), dh = h / nh;
  const int64_t sq = av.dim(1), sk = av.dim(2);
  ts::Tensor out{ts::Shape{b, sq, h}};
  ts::matmul_strided(b, nh, sq, sk, dh, score_mats(av, nh), heads(vv, dh),
                     heads_out(out, dh));
  return ag::Variable::make(
      std::move(out), {attn, v},
      [an = attn.node(), vn = v.node(), nh](ag::detail::Node& n) {
        const ts::Tensor& av = an->value;
        const ts::Tensor& vv = vn->value;
        const int64_t b = vv.dim(0), dh = vv.dim(2) / nh;
        const int64_t sq = av.dim(1), sk = av.dim(2);
        const ts::MatrixBatch g = heads(n.grad, dh);
        if (an->requires_grad) {  // dattn = g_h · v_hᵀ
          ts::Tensor da{av.shape()};
          ts::matmul_strided(b, nh, sq, dh, sk, g, heads(vv, dh).t(),
                             score_mats_out(da, nh));
          an->accumulate(std::move(da));
        }
        if (vn->requires_grad) {  // dv_h = attnᵀ · g_h
          ts::Tensor dv{vv.shape()};
          ts::matmul_strided(b, nh, sk, sq, dh, score_mats(av, nh).t(), g,
                             heads_out(dv, dh));
          vn->accumulate(std::move(dv));
        }
      },
      "head_context");
}

/// Additive causal mask [groups, n, total]: query row i sits at global
/// position start+i and sees keys 0..start+i; later keys get -inf. -inf (not
/// the finite -1e4 the padding mask uses) makes masked lanes exactly 0.0
/// after softmax, which is what keeps the cached decode bit-identical to the
/// full causal forward: trailing zero terms perturb neither the softmax
/// normalizer nor the context accumulation.
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

}  // namespace

ag::Variable MultiHeadAttention::attend(const ag::Variable& q,
                                        const ag::Variable& k,
                                        const ag::Variable& v, int64_t keys,
                                        ts::Tensor mask) const {
  ag::Variable scores = head_scores(q, k, heads_, keys);  // [b*nh, sq, keys]
  scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  if (mask.numel() > 0) {
    scores = ag::add(scores, ag::Variable::leaf(std::move(mask)));
  }
  ag::Variable attn = ag::softmax_last(scores);
  return wo_.forward(head_context(attn, v, heads_));  // [b, sq, h]
}

ag::Variable MultiHeadAttention::forward(const ag::Variable& x,
                                         const ts::Tensor& key_mask) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "attention expects [b, s, " << hidden_ << "], got "
                                            << xv.shape().str());
  const int64_t b = xv.dim(0), s = xv.dim(1);
  ts::Tensor full;
  if (key_mask.numel() > 0) {
    ACTCOMP_CHECK(key_mask.shape() == (ts::Shape{b, s}),
                  "key_mask must be [b, s], got " << key_mask.shape().str());
    // Expand the per-key mask to [b*nh, s, s]: every (query row, head) sees
    // the same additive bias over keys.
    full = ts::Tensor{ts::Shape{b * heads_, s, s}};
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
  }
  ag::Variable q = wq_.forward(x);
  ag::Variable k = wk_.forward(x);
  ag::Variable v = wv_.forward(x);
  return attend(q, k, v, s, std::move(full));
}

ag::Variable MultiHeadAttention::forward_causal(const ag::Variable& x) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "causal attention expects [b, s, " << hidden_ << "], got "
                                                   << xv.shape().str());
  const int64_t b = xv.dim(0), s = xv.dim(1);
  ag::Variable q = wq_.forward(x);
  ag::Variable k = wk_.forward(x);
  ag::Variable v = wv_.forward(x);
  return attend(q, k, v, s, causal_mask(b * heads_, s, s, 0));
}

ag::Variable MultiHeadAttention::forward_cached(const ag::Variable& x,
                                                KvCache& cache,
                                                int64_t layer) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "cached attention expects [b, n, " << hidden_ << "], got "
                                                   << xv.shape().str());
  ACTCOMP_CHECK(cache.hidden() == hidden_ && cache.batch() == xv.dim(0),
                "cache shape [" << cache.batch() << ", ·, " << cache.hidden()
                                << "] does not match input "
                                << xv.shape().str());
  const int64_t b = xv.dim(0), n = xv.dim(1);
  const int64_t start = cache.len();
  const int64_t total = start + n;

  ag::Variable q = wq_.forward(x);
  ag::Variable k = wk_.forward(x);
  ag::Variable v = wv_.forward(x);
  cache.append(layer, k.value(), v.value());
  // The [b, capacity, h] stores are read in place: the first `total` rows
  // of each batch row are this layer's keys and values so far.
  return attend(q, ag::Variable::leaf(cache.keys(layer, total)),
                ag::Variable::leaf(cache.values(layer, total)), total,
                causal_mask(b * heads_, n, total, start));
}

std::vector<NamedParam> MultiHeadAttention::named_parameters() const {
  std::vector<NamedParam> out;
  for (auto& p : prefixed("wq", wq_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wk", wk_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wv", wv_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wo", wo_.named_parameters())) out.push_back(std::move(p));
  return out;
}

}  // namespace actcomp::nn
