// Differential tests for every non-GEMM KernelTable entry: each SIMD tier
// the host runs (kernels_for_tier, capped at detected_simd_isa()) against
// the scalar reference loops in kernels_generic.h, byte for byte. The
// broadcast entries (ew_add/sub/mul/div, ew_bias_relu) are checked against
// verbatim copies of the per-element `i % nb` loops that kernels_generic.h
// split at period boundaries (`modulo::` below), so the scalar tier is not
// its own reference there.
//
// Every entry is driven over lengths 0 .. 3*16+3, so each vector width
// sees whole vectors, several of them and a ragged tail; range entries
// start at non-zero `lo`/`r0` too, and broadcast operands use periods that
// are not a multiple of any vector width. The inputs are built to reach
// each tier's semantic fallbacks: NaNs with payloads (quiet and
// signalling), ±0, ±inf, subnormals, fp16 overflow and round-to-even
// halfway values, and quantizer inputs that land on exact x.5 or beyond
// 2^31. Output buffers start from a sentinel and are compared whole, so a
// write outside the requested range fails too. The GEMM entry has its own
// differential suite (gemm_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/simd.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace core = actcomp::core;
namespace kn = actcomp::tensor::kernels;
namespace generic = actcomp::tensor::kernels::generic;

// The scalar broadcast loops before they were split at period boundaries,
// verbatim: one 64-bit `i % nb` per element.
namespace modulo {

template <typename F>
static inline void ew_binary(const float* a, const float* b, float* out, int64_t lo,
                      int64_t hi, int64_t nb, F f) {
  if (hi <= nb) {  // same-shape fast path: i % nb == i on this chunk
    for (int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
  } else {
    for (int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i % nb]);
  }
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

static inline void ew_bias_relu(const float* x, const float* b, float* pre,
                         float* out, int64_t lo, int64_t hi, int64_t nb) {
  for (int64_t i = lo; i < hi; ++i) {
    const float p = x[i] + b[i % nb];
    pre[i] = p;
    out[i] = p > 0.0f ? p : 0.0f;
  }
}

}  // namespace modulo

namespace {

constexpr int64_t kMaxLen = 3 * 16 + 3;
constexpr uint8_t kSentinel = 0xA5;

float from_bits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

uint32_t to_bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// IEEE 754 does not say which payload a sum or product of two NaNs
// carries, and a compiler may swap the operands of + and *, so the
// reference loop itself gives different bytes when compiled in two places.
// On such a lane either operand's quieted payload is accepted: `want`
// takes `got`'s bits when they are one of the two.
void accept_either_payload(float x, float y, float got, float& want) {
  if (std::isnan(x) && std::isnan(y) &&
      (to_bits(got) == (to_bits(x) | 0x00400000u) ||
       to_bits(got) == (to_bits(y) | 0x00400000u))) {
    want = got;
  }
}

// A row statistic adds up the whole row, so when a row holds NaNs of
// several payloads, or NaNs and the NaN that inf - inf makes, the payload
// of its NaN mean depends on which two NaNs the compiled loop meets first
// (see above). There both sides need only be NaN.
void accept_any_payload(float got, float& want) {
  if (std::isnan(got) && std::isnan(want)) want = got;
}

template <typename F>
void for_each_tier(F&& f) {
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    f(kn::kernels_for_tier(t));
  }
}

// Counts byte mismatches; the first few are reported with their context.
class Diff {
 public:
  ~Diff() { EXPECT_EQ(count_, 0) << "mismatching kernel calls"; }

  template <typename T, typename Ctx>
  void check(const std::vector<T>& got, const std::vector<T>& want,
             Ctx&& ctx) {
    const size_t bytes = got.size() * sizeof(T);
    if (got.size() == want.size() &&
        (bytes == 0 || std::memcmp(got.data(), want.data(), bytes) == 0)) {
      return;
    }
    if (++count_ <= 5) ADD_FAILURE() << ctx();
  }

 private:
  int count_ = 0;
};

template <typename... Args>
std::string describe(const kn::KernelTable& k, const char* entry,
                     Args... args) {
  std::ostringstream os;
  os << k.name << ' ' << entry;
  ((os << ' ' << args), ...);
  return os.str();
}

template <typename T>
std::vector<T> sentinel(int64_t n) {
  std::vector<T> v(static_cast<size_t>(n));
  if (n > 0) std::memset(v.data(), kSentinel, v.size() * sizeof(T));
  return v;
}

// Values every fallback screen has to see: NaN payloads, signed zeros,
// infinities, subnormals, the fp16 overflow boundary (65520 is the first
// value that rounds to inf) and round-to-even halfway points (2^-25 is
// halfway to the smallest fp16 subnormal), and integers at and beyond
// 2^31.
const std::vector<float>& specials() {
  static const std::vector<float> v = {
      from_bits(0x7FC00000u), from_bits(0x7FC12345u),
      from_bits(0xFFC00001u), from_bits(0x7F800001u),  // signalling
      from_bits(0xFFBFFFFFu), 0.0f, -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), from_bits(0x00000001u),
      from_bits(0x80000001u), from_bits(0x007FFFFFu), from_bits(0x80400000u),
      65504.0f, -65504.0f, 65519.0f, 65520.0f, -65520.0f, 1e30f,
      from_bits(0x33000000u), from_bits(0x33C00000u), 1.00048828125f,
      1.00146484375f, -1.00048828125f, 0.5f, 1.5f, 2.5f, -0.5f, -2.5f,
      2147483648.0f, -2147483648.0f, 3e9f, -3e9f};
  return v;
}

enum class Pattern {
  kNormal,      // finite values of mixed magnitude
  kMixed,       // finite values with specials scattered in
  kSpecials,    // specials only
  kNonPositive, // <= 0 with ±0 mixed in: max ties on a zero
  kNonNegative, // >= 0 with ±0 mixed in: min ties on a zero
};
constexpr Pattern kPatterns[] = {Pattern::kNormal, Pattern::kMixed,
                                 Pattern::kSpecials, Pattern::kNonPositive,
                                 Pattern::kNonNegative};

std::vector<float> make_values(int64_t n, Pattern p, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<int>(p));
  std::normal_distribution<float> normal(0.0f, 1.0f);
  const auto& sp = specials();
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    const uint64_t r = rng();
    switch (p) {
      case Pattern::kNormal:
        x = normal(rng) * static_cast<float>(1 << (r % 12));
        break;
      case Pattern::kMixed:
        x = r % 4 == 0 ? sp[(r >> 8) % sp.size()] : normal(rng) * 8.0f;
        break;
      case Pattern::kSpecials:
        x = sp[(r >> 8) % sp.size()];
        break;
      case Pattern::kNonPositive:
        x = r % 3 == 0 ? ((r >> 8) % 2 ? 0.0f : -0.0f)
                       : -std::fabs(normal(rng));
        break;
      case Pattern::kNonNegative:
        x = r % 3 == 0 ? ((r >> 8) % 2 ? 0.0f : -0.0f)
                       : std::fabs(normal(rng));
        break;
    }
  }
  return v;
}

// ---- elementwise ----

using BinaryFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t);

TEST(KernelTable, BinaryElementwiseMatchesGeneric) {
  struct Entry {
    const char* name;
    BinaryFn kn::KernelTable::*fn;
    BinaryFn ref;
    bool commutative;
  };
  const Entry entries[] = {
      {"ew_add", &kn::KernelTable::ew_add, modulo::ew_add, true},
      {"ew_sub", &kn::KernelTable::ew_sub, modulo::ew_sub, false},
      {"ew_mul", &kn::KernelTable::ew_mul, modulo::ew_mul, true},
      {"ew_div", &kn::KernelTable::ew_div, modulo::ew_div, false},
  };
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (const Entry& e : entries) {
      for (Pattern p :
           {Pattern::kNormal, Pattern::kMixed, Pattern::kSpecials}) {
        for (int64_t lo : {0, 1, 3, 17}) {
          for (int64_t len = 0; len <= kMaxLen; ++len) {
            const int64_t hi = lo + len;
            // nb == 0 stands for a same-shape operand (nb = hi).
            for (int64_t nb : {0, 1, 3, 5, 7, 9, 13, 17, 20, 33, 40}) {
              if (nb == 0) nb = std::max<int64_t>(hi, 1);
              const auto a = make_values(hi, p, 1 + len);
              const auto b = make_values(nb, p, 1000 + nb);
              auto got = sentinel<float>(hi);
              auto want = sentinel<float>(hi);
              (k.*e.fn)(a.data(), b.data(), got.data(), lo, hi, nb);
              e.ref(a.data(), b.data(), want.data(), lo, hi, nb);
              for (int64_t i = lo; e.commutative && i < hi; ++i) {
                accept_either_payload(a[i], b[i % nb], got[i], want[i]);
              }
              diff.check(got, want, [&] {
                return describe(k, e.name, "lo", lo, "hi", hi, "nb", nb);
              });
            }
          }
        }
      }
    }
  });
}

TEST(KernelTable, ScalarAndUnaryElementwiseMatchGeneric) {
  using ScalarFn = void (*)(const float*, float, float*, int64_t, int64_t);
  using UnaryFn = void (*)(const float*, float*, int64_t, int64_t);
  struct ScalarEntry {
    const char* name;
    ScalarFn kn::KernelTable::*fn;
    ScalarFn ref;
    bool commutative;
  };
  struct UnaryEntry {
    const char* name;
    UnaryFn kn::KernelTable::*fn;
    UnaryFn ref;
  };
  const ScalarEntry scalar_entries[] = {
      {"ew_add_scalar", &kn::KernelTable::ew_add_scalar,
       generic::ew_add_scalar, true},
      {"ew_mul_scalar", &kn::KernelTable::ew_mul_scalar,
       generic::ew_mul_scalar, true},
      {"ew_sub_scalar", &kn::KernelTable::ew_sub_scalar,
       generic::ew_sub_scalar, false},
  };
  const UnaryEntry unary_entries[] = {
      {"ew_neg", &kn::KernelTable::ew_neg, generic::ew_neg},
      {"ew_abs", &kn::KernelTable::ew_abs, generic::ew_abs},
      {"ew_sqrt", &kn::KernelTable::ew_sqrt, generic::ew_sqrt},
      {"ew_relu", &kn::KernelTable::ew_relu, generic::ew_relu},
  };
  const float scalars[] = {1.5f, -0.0f, 0.0f, from_bits(0x7FC12345u),
                           std::numeric_limits<float>::infinity(), 3e-39f};
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (Pattern p : kPatterns) {
      for (int64_t lo : {0, 1, 3, 17}) {
        for (int64_t len = 0; len <= kMaxLen; ++len) {
          const int64_t hi = lo + len;
          const auto a = make_values(hi, p, 7 + len);
          for (const ScalarEntry& e : scalar_entries) {
            for (float s : scalars) {
              auto got = sentinel<float>(hi);
              auto want = sentinel<float>(hi);
              (k.*e.fn)(a.data(), s, got.data(), lo, hi);
              e.ref(a.data(), s, want.data(), lo, hi);
              for (int64_t i = lo; e.commutative && i < hi; ++i) {
                accept_either_payload(a[i], s, got[i], want[i]);
              }
              diff.check(got, want, [&] {
                return describe(k, e.name, "lo", lo, "hi", hi, "s", s);
              });
            }
          }
          for (const UnaryEntry& e : unary_entries) {
            auto got = sentinel<float>(hi);
            auto want = sentinel<float>(hi);
            (k.*e.fn)(a.data(), got.data(), lo, hi);
            e.ref(a.data(), want.data(), lo, hi);
            diff.check(got, want,
                       [&] { return describe(k, e.name, "lo", lo, "hi", hi); });
          }
          for (float s : scalars) {  // in place
            auto got = a;
            auto want = a;
            k.ew_scale(got.data(), s, lo, hi);
            generic::ew_scale(want.data(), s, lo, hi);
            for (int64_t i = lo; i < hi; ++i) {
              accept_either_payload(a[i], s, got[i], want[i]);
            }
            diff.check(got, want, [&] {
              return describe(k, "ew_scale", "lo", lo, "hi", hi, "s", s);
            });
          }
        }
      }
    }
  });
}

TEST(KernelTable, BiasReluMatchesGeneric) {
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (Pattern p : kPatterns) {
      for (int64_t lo : {0, 1, 3, 17}) {
        for (int64_t len = 0; len <= kMaxLen; ++len) {
          const int64_t hi = lo + len;
          for (int64_t nb : {1, 3, 7, 8, 9, 16, 17, 20, 33, 68}) {
            const auto x = make_values(hi, p, 11 + len);
            const auto b = make_values(nb, p, 2000 + nb);
            auto pre = sentinel<float>(hi), out = sentinel<float>(hi);
            auto want_pre = sentinel<float>(hi), want = sentinel<float>(hi);
            k.ew_bias_relu(x.data(), b.data(), pre.data(), out.data(), lo, hi,
                           nb);
            modulo::ew_bias_relu(x.data(), b.data(), want_pre.data(),
                                 want.data(), lo, hi, nb);
            for (int64_t i = lo; i < hi; ++i) {
              accept_either_payload(x[i], b[i % nb], pre[i], want_pre[i]);
            }
            const auto ctx = [&] {
              return describe(k, "ew_bias_relu", "lo", lo, "hi", hi, "nb", nb);
            };
            diff.check(pre, want_pre, ctx);
            diff.check(out, want, ctx);
          }
        }
      }
    }
  });
}

// ---- row reductions ----

TEST(KernelTable, RowReductionsMatchGeneric) {
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (int64_t n = 0; n <= kMaxLen; ++n) {
      std::vector<std::vector<float>> rows;
      for (Pattern p : kPatterns) {
        for (uint64_t seed : {1, 2, 3}) rows.push_back(make_values(n, p, seed));
      }
      // One NaN (with a payload) at each position of a finite row, and an
      // all-zero row of mixed signs.
      for (int64_t at = 0; at < n; ++at) {
        rows.push_back(make_values(n, Pattern::kNormal, 40));
        rows.back()[static_cast<size_t>(at)] = from_bits(0xFFC00001u);
      }
      rows.push_back(make_values(n, Pattern::kNonPositive, 41));
      for (float& v : rows.back()) v = std::signbit(v) ? -0.0f : 0.0f;

      for (size_t r = 0; r < rows.size(); ++r) {
        const auto& x = rows[r];
        const std::vector<float> got = {k.row_max(x.data(), n)};
        const std::vector<float> want = {generic::row_max(x.data(), n)};
        diff.check(got, want,
                   [&] { return describe(k, "row_max", "n", n, "row", r); });
        if (n == 0) continue;
        std::vector<float> got2(2), want2(2);
        k.row_minmax(x.data(), n, &got2[0], &got2[1]);
        generic::row_minmax(x.data(), n, &want2[0], &want2[1]);
        diff.check(got2, want2,
                   [&] { return describe(k, "row_minmax", "n", n, "row", r); });
      }
    }
  });
}

TEST(KernelTable, LayernormMatchesGeneric) {
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (Pattern p : {Pattern::kNormal, Pattern::kMixed, Pattern::kSpecials}) {
      for (int64_t cols = 0; cols <= kMaxLen; ++cols) {
        for (int64_t r0 : {0, 1, 3}) {
          for (int64_t nrows = 0; nrows <= 19; ++nrows) {
            const int64_t r1 = r0 + nrows;
            const auto x = make_values(r1 * cols, p, 100 + cols);
            for (float eps : {1e-5f, 0.0f}) {
              auto mean = sentinel<float>(r1), rstd = sentinel<float>(r1);
              auto want_mean = sentinel<float>(r1);
              auto want_rstd = sentinel<float>(r1);
              k.rows_moments(x.data(), r0, r1, cols, eps, mean.data(),
                             rstd.data());
              generic::rows_moments(x.data(), r0, r1, cols, eps,
                                    want_mean.data(), want_rstd.data());
              for (int64_t r = r0; r < r1; ++r) {
                accept_any_payload(mean[r], want_mean[r]);
                accept_any_payload(rstd[r], want_rstd[r]);
              }
              const auto ctx = [&] {
                return describe(k, "rows_moments", "r0", r0, "r1", r1, "cols",
                                cols, "eps", eps);
              };
              diff.check(mean, want_mean, ctx);
              diff.check(rstd, want_rstd, ctx);
            }
            // ln_xhat on statistics that include specials of their own.
            const auto mean = make_values(r1, p, 200 + nrows);
            const auto rstd = make_values(r1, p, 300 + nrows);
            auto got = sentinel<float>(r1 * cols);
            auto want = sentinel<float>(r1 * cols);
            k.ln_xhat(x.data(), mean.data(), rstd.data(), got.data(), r0, r1,
                      cols);
            generic::ln_xhat(x.data(), mean.data(), rstd.data(), want.data(),
                             r0, r1, cols);
            for (int64_t r = r0; r < r1; ++r) {
              for (int64_t c = 0; c < cols; ++c) {
                const size_t i = static_cast<size_t>(r * cols + c);
                accept_either_payload(x[i] - mean[r], rstd[r], got[i],
                                      want[i]);
              }
            }
            diff.check(got, want, [&] {
              return describe(k, "ln_xhat", "r0", r0, "r1", r1, "cols", cols);
            });
          }
        }
      }
    }
  });
}

// ---- fp16 ----

TEST(KernelTable, Fp16MatchesGeneric) {
  // Half-precision bit patterns with NaN payloads, infinities, subnormals
  // and signed zeros.
  const uint16_t half_specials[] = {0x7C01, 0x7E00, 0xFE00, 0x7FFF, 0xFC01,
                                    0x7C00, 0xFC00, 0x0001, 0x83FF, 0x0000,
                                    0x8000, 0x7BFF, 0x3C00};
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (int64_t off : {0, 1, 3}) {  // unaligned starts
      for (int64_t n = 0; n <= kMaxLen; ++n) {
        for (Pattern p : kPatterns) {
          const auto in = make_values(off + n, p, 500 + n);
          const float* src = in.data() + off;
          auto got = sentinel<uint16_t>(n), want = sentinel<uint16_t>(n);
          k.fp16_encode(src, got.data(), n);
          generic::fp16_encode(src, want.data(), n);
          diff.check(got, want, [&] {
            return describe(k, "fp16_encode", "off", off, "n", n);
          });
          auto got_rt = sentinel<float>(n), want_rt = sentinel<float>(n);
          k.fp16_round_trip(src, got_rt.data(), n);
          generic::fp16_round_trip(src, want_rt.data(), n);
          diff.check(got_rt, want_rt, [&] {
            return describe(k, "fp16_round_trip", "off", off, "n", n);
          });
        }
        for (int dense = 0; dense < 2; ++dense) {
          std::mt19937_64 rng(600 + n + dense);
          std::vector<uint16_t> h(static_cast<size_t>(off + n));
          for (uint16_t& v : h) {
            const uint64_t r = rng();
            v = dense ? half_specials[r % std::size(half_specials)]
                      : static_cast<uint16_t>(r);
          }
          auto got = sentinel<float>(n), want = sentinel<float>(n);
          k.fp16_decode(h.data() + off, got.data(), n);
          generic::fp16_decode(h.data() + off, want.data(), n);
          diff.check(got, want, [&] {
            return describe(k, "fp16_decode", "off", off, "n", n, "dense",
                            dense);
          });
        }
      }
    }
  });
}

// ---- quantization ----

TEST(KernelTable, QuantizerMatchesGeneric) {
  struct Params {
    float lo, scale;
  };
  // Power-of-two scales make lo + (j / 2) * scale exact, so those rows
  // land on x.5 after normalization; 1e-30 pushes finite values past 2^31.
  const Params params[] = {{0.0f, 1.0f},   {-3.0f, 0.25f}, {-1.7f, 0.013f},
                           {0.5f, 0.125f}, {0.0f, 1e-30f}, {-0.0f, 3.0f}};
  Diff diff;
  for_each_tier([&](const kn::KernelTable& k) {
    for (int levels : {2, 4, 16, 256}) {
      for (const Params& pr : params) {
        for (int64_t cols = 0; cols <= kMaxLen; ++cols) {
          std::vector<std::vector<float>> rows;
          std::mt19937_64 rng(700 + cols + levels);
          std::vector<float> halves(static_cast<size_t>(cols));
          for (float& v : halves) {
            const int64_t j =
                static_cast<int64_t>(rng() % (2 * levels + 20)) - 10;
            v = pr.lo + (static_cast<float>(j) * 0.5f) * pr.scale;
          }
          rows.push_back(halves);
          for (Pattern p : kPatterns) {
            auto v = make_values(cols, p, 800 + cols);
            if (p == Pattern::kNormal) {
              for (float& x : v) x = pr.lo + x * pr.scale;
            }
            rows.push_back(v);
          }
          for (size_t r = 0; r < rows.size(); ++r) {
            auto got = sentinel<uint8_t>(cols), want = sentinel<uint8_t>(cols);
            k.quant_quantize_row(rows[r].data(), cols, pr.lo, pr.scale, levels,
                                 got.data());
            generic::quant_quantize_row(rows[r].data(), cols, pr.lo, pr.scale,
                                        levels, want.data());
            diff.check(got, want, [&] {
              return describe(k, "quant_quantize_row", "cols", cols, "levels",
                              levels, "lo", pr.lo, "scale", pr.scale, "row", r);
            });
          }
          std::vector<uint8_t> q(static_cast<size_t>(cols));
          for (uint8_t& b : q) b = static_cast<uint8_t>(rng());
          auto got = sentinel<float>(cols), want = sentinel<float>(cols);
          k.quant_dequantize_row(q.data(), cols, pr.lo, pr.scale, got.data());
          generic::quant_dequantize_row(q.data(), cols, pr.lo, pr.scale,
                                        want.data());
          diff.check(got, want, [&] {
            return describe(k, "quant_dequantize_row", "cols", cols, "lo",
                            pr.lo, "scale", pr.scale);
          });
        }
      }
    }
  });
}

}  // namespace
