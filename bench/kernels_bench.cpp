// Machine-readable kernel benchmark: times the parallel compute core
// (GEMM, transposed-operand GEMM, the shared vector kernels per SIMD tier,
// compressor encode/decode, one attention layer and the fine-tune step's
// backward ops, one end-to-end fine-tune step) across thread counts. Output
// is a canonical RunReport document (actcomp.run_report.v1, see
// obs/report.h): each measurement is one entry
// of the "records" array carrying {op, shape, threads, ns_op, gb_s} plus
// op-specific extras (gflops, speedup_vs_seed). The checked-in baseline
// lives at bench/baselines/BENCH_kernels.json; README's Performance table
// is derived from it.
//
// The GEMM baseline is a verbatim copy of the seed repo's matmul2d loop
// (including its zero-skip branch), compiled at this file's default
// optimization level — "speedup_vs_seed" is measured against it.
//
//   $ ./kernels_bench [--quick] [out.json]
//
// --quick trims the shape sweep to a few-second run for CI (ci.sh bench);
// the full sweep is what baselines are regenerated from.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "compress/identity.h"
#include "compress/lossless.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "nn/attention.h"
#include "nn/bert.h"
#include "obs/report.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "train/optimizer.h"

namespace ts = actcomp::tensor;
namespace ag = actcomp::autograd;
namespace nn = actcomp::nn;
namespace cp = actcomp::compress;
namespace core = actcomp::core;
namespace kn = actcomp::tensor::kernels;
namespace obs = actcomp::obs;

namespace {

using Clock = std::chrono::steady_clock;

// The seed repo's GEMM, kept as the reference point for speedup numbers.
void seed_matmul(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// Best-of-`reps` wall time of fn(), in seconds.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

// Median wall time of `reps` calls of fn(), in seconds.
template <typename Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> dt(static_cast<size_t>(reps));
  for (double& d : dt) {
    const auto t0 = Clock::now();
    fn();
    d = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  std::sort(dt.begin(), dt.end());
  return dt[dt.size() / 2];
}

int g_emitted = 0;

void emit(const std::string& op, const std::string& shape, int threads,
          double ns_op, double gb_s, double gflops = -1.0,
          double speedup_vs_seed = -1.0) {
  obs::json::Value r = obs::json::Value::object();
  r.set("op", op);
  r.set("shape", shape);
  r.set("threads", threads);
  r.set("ns_op", ns_op);
  r.set("gb_s", gb_s);
  if (gflops >= 0.0) r.set("gflops", gflops);
  if (speedup_vs_seed >= 0.0) r.set("speedup_vs_seed", speedup_vs_seed);
  obs::RunReport::current()->add_record(std::move(r));
  ++g_emitted;
}

void bench_matmul(int64_t m, int64_t k, int64_t n, bool run_seed) {
  ts::Generator gen(99);
  const ts::Tensor a = gen.normal(ts::Shape{m, k});
  const ts::Tensor b = gen.normal(ts::Shape{k, n});
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const double bytes = 4.0 * (static_cast<double>(m) * k +
                              static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  const int reps = flops > 1e10 ? 1 : 3;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));

  double seed_t = -1.0;
  if (run_seed) {
    ts::Tensor c{ts::Shape{m, n}};
    seed_t = best_of(reps, [&] {
      seed_matmul(a.data().data(), b.data().data(), c.data().data(), m, k, n);
    });
    emit("matmul2d_seed", shape, 1, seed_t * 1e9, bytes / seed_t / 1e9,
         flops / seed_t / 1e9);
    std::printf("matmul2d_seed %-18s t=1  %8.1f ms  %6.1f GFLOP/s\n", shape,
                seed_t * 1e3, flops / seed_t / 1e9);
  }
  for (int threads : {1, 2, 4}) {
    core::set_num_threads(threads);
    const double t = best_of(reps, [&] { ts::matmul2d(a, b); });
    emit("matmul2d", shape, threads, t * 1e9, bytes / t / 1e9, flops / t / 1e9,
         seed_t > 0 ? seed_t / t : -1.0);
    std::printf("matmul2d      %-18s t=%d  %8.1f ms  %6.1f GFLOP/s%s\n", shape,
                threads, t * 1e3, flops / t / 1e9,
                seed_t > 0
                    ? (" (" + std::to_string(seed_t / t).substr(0, 5) + "x seed)")
                          .c_str()
                    : "");
  }
  core::set_num_threads(1);
}

// One matmul2d record per SIMD tier the host supports, with the tier forced
// via core::set_simd_isa. Op names carry the tier ("matmul2d_avx2"), so the
// perf gate compares each tier against its own baseline and a dispatch
// regression (e.g. silently landing in the scalar tier) shows up directly.
void bench_matmul_tiers(int64_t m, int64_t k, int64_t n) {
  ts::Generator gen(99);
  const ts::Tensor a = gen.normal(ts::Shape{m, k});
  const ts::Tensor b = gen.normal(ts::Shape{k, n});
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const double bytes = 4.0 * (static_cast<double>(m) * k +
                              static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));
  const core::SimdIsa restore = core::simd_isa();
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    const auto isa = static_cast<core::SimdIsa>(t);
    core::set_simd_isa(isa);
    const std::string op = std::string("matmul2d_") + core::simd_isa_name(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const double tsec = best_of(3, [&] { ts::matmul2d(a, b); });
      emit(op, shape, threads, tsec * 1e9, bytes / tsec / 1e9,
           flops / tsec / 1e9);
      std::printf("%-13s %-18s t=%d  %8.1f ms  %6.1f GFLOP/s\n", op.c_str(),
                  shape, threads, tsec * 1e3, flops / tsec / 1e9);
    }
  }
  core::set_simd_isa(restore);
  core::set_num_threads(1);
}

// One record per SIMD tier the host supports for each vector kernel the
// tiers share (tensor/kernels/vector_kernels.h), called straight through
// kernels_for_tier at t=1 so the record times the kernel alone: the bias /
// residual broadcast add and layernorm at the finetune_step model's
// activation shape, the fp16 round trip (A1/Q1) and the quantizer's row
// pack (Q1-Q3, 16 levels) at the compressor records' shape, and the
// softmax row max over its attention score rows. Op names carry the tier
// ("ew_add_avx2"), like matmul2d_<tier>.
void bench_kernel_tiers() {
  ts::Generator gen(21);
  const ts::Tensor act = gen.normal(ts::Shape{512, 128});
  const ts::Tensor bias = gen.normal(ts::Shape{128});
  const ts::Tensor wide = gen.normal(ts::Shape{64, 16384});
  const ts::Tensor scores = gen.normal(ts::Shape{2048, 64});
  const float* a = act.data().data();
  const float* w = wide.data().data();
  const float* sc = scores.data().data();
  const int64_t n_act = act.numel(), n_wide = wide.numel();
  std::vector<float> out(static_cast<size_t>(n_wide));
  std::vector<float> mean(512), rstd(512), lo(64), scale(64);
  std::vector<uint8_t> q(static_cast<size_t>(n_wide));
  const auto& ref = kn::kernels_for_tier(0);
  for (int64_t r = 0; r < 64; ++r) {
    float hi = 0.0f;
    ref.row_minmax(w + r * 16384, 16384, &lo[r], &hi);
    scale[r] = (hi - lo[r]) / 15.0f;
  }
  volatile float sink = 0.0f;
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    const kn::KernelTable& k = kn::kernels_for_tier(t);
    const std::string tier = core::simd_isa_name(static_cast<core::SimdIsa>(t));
    const auto record = [&](const char* op, const char* shape, double bytes,
                            double sec) {
      const std::string name = std::string(op) + "_" + tier;
      emit(name, shape, 1, sec * 1e9, bytes / sec / 1e9);
      std::printf("%-26s %-14s t=1  %8.1f us  %6.2f GB/s\n", name.c_str(),
                  shape, sec * 1e6, bytes / sec / 1e9);
    };
    record("ew_add", "512x128+128", 8.0 * n_act, best_of(50, [&] {
             k.ew_add(a, bias.data().data(), out.data(), 0, n_act, 128);
           }));
    record("layernorm", "512x128", 8.0 * n_act, best_of(50, [&] {
             k.rows_moments(a, 0, 512, 128, 1e-5f, mean.data(), rstd.data());
             k.ln_xhat(a, mean.data(), rstd.data(), out.data(), 0, 512, 128);
           }));
    record("fp16_round_trip", "64x16384", 8.0 * n_wide, best_of(20, [&] {
             k.fp16_round_trip(w, out.data(), n_wide);
           }));
    record("quant_quantize_row", "64x16384", 5.0 * n_wide, best_of(20, [&] {
             for (int64_t r = 0; r < 64; ++r) {
               k.quant_quantize_row(w + r * 16384, 16384, lo[r], scale[r], 16,
                                    q.data() + r * 16384);
             }
           }));
    record("row_max", "2048x64", 4.0 * scores.numel(), best_of(50, [&] {
             float m = 0.0f;
             for (int64_t r = 0; r < 2048; ++r) m += k.row_max(sc + r * 64, 64);
             sink = m;
           }));
  }
  (void)sink;
}

// Transposed-operand GEMMs at the Linear-backward shapes: matmul_nt is the
// input gradient g·Wᵀ (m x k times (n x k)ᵀ) and matmul_tn the weight
// gradient xᵀ·g ((k x m)ᵀ times k x n), each read in place.
void bench_matmul_transposed(int64_t m, int64_t k, int64_t n) {
  ts::Generator gen(99);
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const double bytes = 4.0 * (static_cast<double>(m) * k +
                              static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));
  for (bool nt : {true, false}) {
    const ts::Tensor a = nt ? gen.normal(ts::Shape{m, k}) : gen.normal(ts::Shape{k, m});
    const ts::Tensor b = nt ? gen.normal(ts::Shape{n, k}) : gen.normal(ts::Shape{k, n});
    const char* op = nt ? "matmul_nt" : "matmul_tn";
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const int reps = flops < 1e8 ? 20 : 3;
      const double t = best_of(reps, [&] { ts::matmul2d(a, b, !nt, nt); });
      emit(op, shape, threads, t * 1e9, bytes / t / 1e9, flops / t / 1e9);
      std::printf("%-13s %-18s t=%d  %8.3f ms  %6.1f GFLOP/s\n", op, shape,
                  threads, t * 1e3, flops / t / 1e9);
    }
  }
  core::set_num_threads(1);
}

// Best-of-`reps` wall time of one backward pass: build() returns a fresh
// graph's output outside the timed region, then backward from `seed` is
// timed.
template <typename Build>
double best_backward(int reps, const ts::Tensor& seed, Build&& build) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    ag::Variable y = build();
    const auto t0 = Clock::now();
    y.backward(seed);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

void emit_timing(const char* op, const std::string& shape, int threads,
                 double t) {
  emit(op, shape, threads, t * 1e9, 0.0);
  std::printf("%-18s %-16s t=%d  %8.3f ms\n", op, shape.c_str(), threads,
              t * 1e3);
}

// One attention layer, forward + backward from a fixed seed: the
// projections, head-strided scores, softmax and head-strided context.
void bench_attention_heads(int64_t b, int64_t s, int64_t h, int64_t nh) {
  ts::Generator gen(13);
  const nn::MultiHeadAttention attn(h, nh, gen);
  const ts::Tensor xv = gen.normal(ts::Shape{b, s, h});
  const ts::Tensor seed = gen.normal(ts::Shape{b, s, h});
  const ts::Tensor no_mask;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "b%lld_s%lld_h%lld_nh%lld",
                static_cast<long long>(b), static_cast<long long>(s),
                static_cast<long long>(h), static_cast<long long>(nh));
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    const double t = best_of(10, [&] {
      ag::Variable x = ag::Variable::leaf(xv, true);
      attn.forward(x, no_mask).backward(seed);
    });
    emit_timing("attention_heads", shape, threads, t);
  }
  core::set_num_threads(1);
}

// The backward passes of the fine-tune step's non-GEMM ops at the
// finetune_step model's shapes (512 tokens, h=128, intermediate 512, four
// heads of 64 positions), plus the Linear matmul backward.
void bench_backward_ops() {
  ts::Generator gen(17);
  const ts::Tensor xi = gen.normal(ts::Shape{512, 512});
  const ts::Tensor bi = gen.normal(ts::Shape{512});
  const ts::Tensor xh = gen.normal(ts::Shape{512, 128});
  const ts::Tensor wh = gen.normal(ts::Shape{128, 128});
  const ts::Tensor gamma = ts::Tensor::ones(ts::Shape{128});
  const ts::Tensor beta{ts::Shape{128}};
  const ts::Tensor xs = gen.normal(ts::Shape{32, 64, 64});
  const ts::Tensor seed_i = gen.normal(ts::Shape{512, 512});
  const ts::Tensor seed_h = gen.normal(ts::Shape{512, 128});
  const ts::Tensor seed_s = gen.normal(ts::Shape{32, 64, 64});
  auto leaf = [](const ts::Tensor& t) { return ag::Variable::leaf(t, true); };
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    emit_timing("bias_gelu_bwd", "512x512", threads,
                best_backward(10, seed_i, [&] {
                  return ag::bias_act(leaf(xi), leaf(bi), ag::Act::kGelu);
                }));
    emit_timing("layernorm_bwd", "512x128", threads,
                best_backward(10, seed_h, [&] {
                  return ag::layernorm(leaf(xh), leaf(gamma), leaf(beta));
                }));
    emit_timing("softmax_bwd", "32x64x64", threads,
                best_backward(10, seed_s,
                              [&] { return ag::softmax_last(leaf(xs)); }));
    emit_timing("matmul_bwd", "512x128x128", threads,
                best_backward(10, seed_h,
                              [&] { return ag::matmul(leaf(xh), leaf(wh)); }));
  }
  core::set_num_threads(1);
}

template <typename C>
void bench_compressor(const char* label, C& c, const ts::Tensor& x) {
  const double in_bytes = static_cast<double>(x.numel()) * 4.0;
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lld", static_cast<long long>(x.numel()));
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    const auto msg = c.encode(x);
    const double te = best_of(3, [&] { c.encode(x); });
    const double td = best_of(3, [&] { c.decode(msg); });
    emit(std::string(label) + "_encode", shape, threads, te * 1e9,
         in_bytes / te / 1e9);
    emit(std::string(label) + "_decode", shape, threads, td * 1e9,
         in_bytes / td / 1e9);
    std::printf("%-13s %-18s t=%d  enc %6.2f GB/s  dec %6.2f GB/s\n", label,
                shape, threads, in_bytes / te / 1e9, in_bytes / td / 1e9);
  }
  core::set_num_threads(1);
}

// The PackBits and Huffman stages of the rle+huffman plane coder, each on
// its own, over the high-byte (sign and exponent) plane of the fp16 bytes
// `raw`: the plane the codec records below spend most of their time on.
// One thread; GB/s against the plane's bytes. The stages' input is the
// previous stage's output, as in the container.
void bench_lossless_stages(const std::vector<std::byte>& raw) {
  const auto n = static_cast<int64_t>(raw.size() / 2);
  std::vector<std::byte> plane(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) plane[static_cast<size_t>(i)] = raw[static_cast<size_t>(2 * i + 1)];
  std::vector<std::byte> rle(static_cast<size_t>(cp::detail::rle_bound(n)));
  int64_t m = 0;
  const double t_rle = best_of(5, [&] {
    m = cp::detail::rle_encode(plane.data(), n, rle.data());
  });
  // A code is at most 32 bits, so the stream fits 256 + 4 bytes a symbol.
  const int64_t cap = 256 + 4 * m;
  std::vector<std::byte> huff(static_cast<size_t>(cap));
  int64_t h = 0;
  const double t_henc = best_of(5, [&] {
    h = cp::detail::huffman_encode_to(rle.data(), m, cap, huff.data());
  });
  std::vector<std::byte> back(static_cast<size_t>(m)), out(static_cast<size_t>(n));
  const double t_hdec = best_of(5, [&] {
    cp::detail::huffman_decode_to(huff.data(), h, m, back.data());
  });
  const double t_rdec = best_of(5, [&] {
    cp::detail::rle_decode(back.data(), m, n, out.data());
  });
  if (h < 0 || back != std::vector<std::byte>(rle.begin(), rle.begin() + m) ||
      out != plane) {
    std::fprintf(stderr, "lossless stages: round trip failed\n");
    std::exit(1);
  }
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lld", static_cast<long long>(n));
  const std::pair<const char*, double> stages[] = {
      {"lossless_rle_encode", t_rle},
      {"lossless_huffman_encode", t_henc},
      {"lossless_huffman_decode", t_hdec},
      {"lossless_rle_decode", t_rdec}};
  for (const auto& [op, t] : stages) {
    emit(op, shape, 1, t * 1e9, static_cast<double>(n) / t / 1e9);
    std::printf("%-28s %-10s t=1  %8.1f us  %6.2f GB/s\n", op, shape, t * 1e6,
                static_cast<double>(n) / t / 1e9);
  }
}

// One encode + one decode record per standard lossless codec tier
// (compress/lossless.h) and pool width, on the fp16 wire bytes of a seeded
// activation tensor — the byte distribution the codec actually sees on a
// link. GB/s is quoted against the RAW payload (what the link would
// otherwise carry); each record also stores the measured compression ratio.
// The codec codes a container's (chunk, plane) units in one parallel pass,
// so t=2 shows what plane parallelism buys over t=1 (a bp2 payload is two
// units, a bp4 one four). Then the per-stage records above, at t=1. Runs in
// both --quick and full mode so the CI perf gate and the committed baseline
// share record keys.
void bench_lossless(const ts::Tensor& x) {
  std::vector<std::byte> raw;
  raw.reserve(static_cast<size_t>(x.numel()) * 2);
  cp::wire::append_fp16(raw, x);
  const double raw_bytes = static_cast<double>(raw.size());
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lld", static_cast<long long>(x.numel()));
  for (const int threads : {1, 2}) {
    core::set_num_threads(threads);
    for (const cp::LosslessCodec& codec : cp::standard_lossless_codecs()) {
      const std::vector<std::byte> enc = codec.encode(raw);
      const double ratio = static_cast<double>(enc.size()) / raw_bytes;
      const double te = best_of(3, [&] { codec.encode(raw); });
      const double td = best_of(3, [&] { codec.decode(enc); });
      const std::string label = "lossless(" + codec.name() + ")";
      for (const char* dir : {"_encode", "_decode"}) {
        const double t = dir[1] == 'e' ? te : td;
        obs::json::Value r = obs::json::Value::object();
        r.set("op", label + dir);
        r.set("shape", std::string(shape));
        r.set("threads", threads);
        r.set("ns_op", t * 1e9);
        r.set("gb_s", raw_bytes / t / 1e9);
        r.set("ratio", ratio);
        obs::RunReport::current()->add_record(std::move(r));
        ++g_emitted;
      }
      std::printf("%-28s %-10s t=%d  enc %6.2f GB/s  dec %6.2f GB/s  ratio %.3f\n",
                  label.c_str(), shape, threads, raw_bytes / te / 1e9,
                  raw_bytes / td / 1e9, ratio);
    }
  }
  core::set_num_threads(1);
  bench_lossless_stages(raw);
}

void bench_finetune_step() {
  nn::BertConfig cfg;
  cfg.vocab_size = 1024;
  cfg.hidden = 128;
  cfg.num_layers = 4;
  cfg.num_heads = 4;
  cfg.intermediate = 512;
  cfg.max_seq = 64;
  cfg.dropout = 0.0f;
  const int64_t batch = 8, seq = 64;
  nn::EncoderInput in;
  in.batch = batch;
  in.seq = seq;
  for (int64_t i = 0; i < batch * seq; ++i) in.token_ids.push_back(i % 1000);
  in.segment_ids.assign(static_cast<size_t>(batch * seq), 0);
  in.lengths.assign(static_cast<size_t>(batch), seq);
  const ts::Tensor target{ts::Shape{batch, seq, cfg.hidden}};

  char shape[64];
  std::snprintf(shape, sizeof(shape), "b%lld_s%lld_h%lld_l%d",
                static_cast<long long>(batch), static_cast<long long>(seq),
                static_cast<long long>(cfg.hidden), static_cast<int>(cfg.num_layers));
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    ts::Generator gen(5);
    nn::BertModel model(cfg, gen);
    std::vector<ag::Variable> params = model.parameters();
    actcomp::train::Adam opt(params, 1e-4f);
    auto step = [&] {
      ts::Generator fgen(7);
      ag::Variable y = model.forward(in, fgen, true);
      ag::Variable loss = ag::mse_loss(y, target);
      for (auto& p : params) p.zero_grad();
      loss.backward();
      opt.step();
    };
    step();  // warm-up (allocations, first-touch)
    step();
    // The median of 15 steps: a best-of-3 spread ~30% run to run on a
    // shared host.
    const double t = median_of(15, step);
    emit("finetune_step", shape, threads, t * 1e9, 0.0);
    std::printf("finetune_step %-18s t=%d  %8.1f ms/step\n", shape, threads,
                t * 1e3);
  }
  core::set_num_threads(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out = argv[i];
    }
  }
  obs::RunReport report("kernels_bench");
  report.set_config("quick", quick);
  report.set_config("seed", int64_t{99});
  std::printf("kernel benchmarks (pool default: %d threads)%s\n\n",
              core::num_threads(), quick ? " [quick]" : "");

  // The acceptance shape first, then the paper's hidden sizes as
  // (tokens x hidden x hidden) projections with tokens = 512. Quick mode
  // keeps one seeded shape and one larger hidden size.
  bench_matmul(512, 512, 512, /*run_seed=*/true);
  std::printf("\n");
  bench_matmul_tiers(512, 512, 512);
  std::printf("\n");
  bench_kernel_tiers();
  std::printf("\n");
  if (!quick) {
    bench_matmul(768, 768, 768, /*run_seed=*/true);
    for (int64_t hidden : {768, 1024, 2048, 4096, 8192}) {
      bench_matmul(512, hidden, hidden, /*run_seed=*/hidden <= 4096);
    }
  } else {
    bench_matmul(512, 1024, 1024, /*run_seed=*/true);
  }

  std::printf("\n");
  {
    ts::Generator gen(11);
    // The 64x16384 shape runs in BOTH modes so `--quick` (the CI gate) and
    // the full sweep (what baselines are committed from) share record keys.
    const ts::Tensor xq = gen.normal(ts::Shape{64, 16384});
    cp::TopKCompressor topk(0.1);
    bench_compressor("topk(0.1)", topk, xq);
    cp::RandomKCompressor randk(0.05, 11);
    bench_compressor("randk(0.05)", randk, xq);
    cp::IdentityCompressor identity;  // the fp16 wire stream
    bench_compressor("identity", identity, xq);
    cp::QuantizeCompressor quant(4);
    bench_compressor("quant(4b)", quant, xq);
    std::printf("\n");
    bench_lossless(xq);
    if (!quick) {
      const ts::Tensor x = gen.normal(ts::Shape{256, 16384});
      bench_compressor("topk(0.1)", topk, x);
      bench_compressor("randk(0.05)", randk, x);
      bench_compressor("identity", identity, x);
      bench_compressor("quant(4b)", quant, x);
    }
  }

  std::printf("\n");
  // Linear-backward shapes of the perfbench fine-tune model (384 tokens,
  // h=32, intermediate 128) and of the finetune_step model below (512
  // tokens, h=128, intermediate 512): the square projection and the MLP
  // up-projection, as input gradient (nt) and weight gradient (tn).
  bench_matmul_transposed(384, 32, 32);
  bench_matmul_transposed(384, 128, 32);
  bench_matmul_transposed(512, 128, 128);
  bench_matmul_transposed(512, 512, 128);
  bench_attention_heads(16, 24, 32, 2);
  bench_attention_heads(8, 64, 128, 4);
  bench_backward_ops();

  std::printf("\n");
  bench_finetune_step();

  // The argv path gets the same canonical document the RunReport writes to
  // $ACTCOMP_REPORT_DIR — this is what baselines are committed from.
  const std::string doc = report.to_json().dump(2);
  if (FILE* f = std::fopen(out, "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %d records to %s\n", g_emitted, out);
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", out);
  }
  return 0;
}
