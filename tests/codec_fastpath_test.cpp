// Differential tests for the wire codec fast paths. Each path the codecs
// once used is copied verbatim into `oracle::` below and kept only here:
//   * Top-K selection: magnitude buffer + nth_element over a chunked
//     candidate pass (now an exact radix select);
//   * Huffman decode: the canonical bit walk (now a lookup table with the
//     walk as fallback); Huffman encode: one push_back per byte (now word
//     writes into an exactly sized buffer);
//   * fp16 wire helpers: one append_pod/read_pod per element (now one batch
//     conversion per tensor);
//   * Random-K: the std::unordered_map sampler plus std::sort (now a flat
//     open-addressing table plus a bitmap sort).
// Every comparison is byte for byte: wire bodies, decoded tensors, gradients,
// generator state, and for malformed Huffman streams the exception message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "compress/lossless.h"
#include "compress/randomk.h"
#include "compress/settings.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/random.h"

namespace ag = actcomp::autograd;
namespace core = actcomp::core;
namespace cp = actcomp::compress;
namespace ts = actcomp::tensor;

namespace oracle {

// ---- Top-K: the chunked candidate pass, verbatim apart from `k` ----

constexpr int64_t kChunk = int64_t{1} << 16;
constexpr int64_t kEwGrain = int64_t{1} << 13;

std::vector<int64_t> topk_select(const ts::Tensor& x, int64_t k) {
  const int64_t n = x.numel();
  const auto d = x.data();
  std::vector<float> mag(static_cast<size_t>(n));
  {
    const ts::kernels::KernelTable& kt = ts::kernels::active_kernels();
    core::parallel_for(0, n, kEwGrain, [&](int64_t lo, int64_t hi) {
      kt.ew_abs(d.data(), mag.data(), lo, hi);
    });
  }
  const auto before = [&](int64_t a, int64_t b) {
    const float fa = mag[static_cast<size_t>(a)];
    const float fb = mag[static_cast<size_t>(b)];
    if (fa != fb) return fa > fb;
    return a < b;
  };

  if (n <= 2 * kChunk || k == n) {
    std::vector<int64_t> idx(static_cast<size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    std::nth_element(idx.begin(), idx.begin() + k, idx.end(), before);
    idx.resize(static_cast<size_t>(k));
    std::sort(idx.begin(), idx.end());
    return idx;
  }

  const int64_t nchunks = (n + kChunk - 1) / kChunk;
  std::vector<int64_t> counts(static_cast<size_t>(nchunks));
  std::vector<int64_t> offsets(static_cast<size_t>(nchunks) + 1, 0);
  for (int64_t c = 0; c < nchunks; ++c) {
    const int64_t len = std::min(kChunk, n - c * kChunk);
    counts[static_cast<size_t>(c)] = std::min(k, len);
    offsets[static_cast<size_t>(c) + 1] =
        offsets[static_cast<size_t>(c)] + counts[static_cast<size_t>(c)];
  }
  std::vector<int64_t> cand(static_cast<size_t>(offsets.back()));
  core::parallel_for(0, nchunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = c * kChunk;
      const int64_t len = std::min(kChunk, n - b);
      const int64_t kc = counts[static_cast<size_t>(c)];
      std::vector<int64_t> idx(static_cast<size_t>(len));
      std::iota(idx.begin(), idx.end(), b);
      if (kc < len) std::nth_element(idx.begin(), idx.begin() + kc, idx.end(), before);
      std::copy(idx.begin(), idx.begin() + kc,
                cand.begin() + offsets[static_cast<size_t>(c)]);
    }
  });
  std::nth_element(cand.begin(), cand.begin() + k, cand.end(), before);
  cand.resize(static_cast<size_t>(k));
  std::sort(cand.begin(), cand.end());
  return cand;
}

// ---- fp16 wire helpers: one append_pod / read_pod per element ----

void append_fp16(std::vector<std::byte>& buf, const ts::Tensor& t) {
  for (float v : t.data()) cp::wire::append_pod<uint16_t>(buf, ts::fp32_to_fp16_bits(v));
}

std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n) {
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] =
        ts::fp16_bits_to_fp32(cp::wire::read_pod<uint16_t>(buf, off));
  }
  return out;
}

/// The T*/R* body for ascending `kept`, one scalar conversion per element.
std::vector<std::byte> sparse_body(const ts::Tensor& x,
                                   const std::vector<int64_t>& kept) {
  std::vector<std::byte> body;
  for (int64_t j : kept) cp::wire::append_pod<int32_t>(body, static_cast<int32_t>(j));
  for (int64_t j : kept) {
    cp::wire::append_pod<uint16_t>(
        body, ts::fp32_to_fp16_bits(x.data()[static_cast<size_t>(j)]));
  }
  return body;
}

// ---- Random-K: the unordered_map partial Fisher–Yates ----

std::vector<int64_t> sample_without_replacement(ts::Generator& gen, int64_t n,
                                                int64_t k) {
  std::unordered_map<int64_t, int64_t> displaced;
  displaced.reserve(static_cast<size_t>(k) * 2);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = gen.randint(i, n - 1);
    const auto it_j = displaced.find(j);
    const int64_t vj = it_j == displaced.end() ? j : it_j->second;
    const auto it_i = displaced.find(i);
    const int64_t vi = it_i == displaced.end() ? i : it_i->second;
    out.push_back(vj);
    displaced[j] = vi;
  }
  return out;
}

// ---- Huffman: per-byte encoder and bit-walk decoder, verbatim ----

constexpr int kMaxCodeLen = 32;

bool huffman_lengths(const int64_t counts[256], uint8_t lens[256]) {
  std::fill(lens, lens + 256, uint8_t{0});
  struct Node {
    int64_t weight;
    int left, right;
    int symbol;
  };
  std::vector<Node> nodes;
  std::vector<int> leaves;
  for (int s = 0; s < 256; ++s) {
    if (counts[s] > 0) {
      nodes.push_back({counts[s], -1, -1, s});
      leaves.push_back(static_cast<int>(nodes.size()) - 1);
    }
  }
  if (leaves.empty()) return true;
  if (leaves.size() == 1) {
    lens[nodes[static_cast<size_t>(leaves[0])].symbol] = 1;
    return true;
  }
  std::sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    const Node& na = nodes[static_cast<size_t>(a)];
    const Node& nb = nodes[static_cast<size_t>(b)];
    if (na.weight != nb.weight) return na.weight < nb.weight;
    return na.symbol < nb.symbol;
  });
  std::vector<int> internal;
  size_t li = 0, ii = 0;
  auto pop_min = [&]() {
    const bool take_leaf =
        li < leaves.size() &&
        (ii >= internal.size() ||
         nodes[static_cast<size_t>(leaves[li])].weight <=
             nodes[static_cast<size_t>(internal[ii])].weight);
    return take_leaf ? leaves[li++] : internal[ii++];
  };
  while (leaves.size() - li + internal.size() - ii > 1) {
    const int a = pop_min();
    const int b = pop_min();
    nodes.push_back({nodes[static_cast<size_t>(a)].weight +
                         nodes[static_cast<size_t>(b)].weight,
                     a, b, -1});
    internal.push_back(static_cast<int>(nodes.size()) - 1);
  }
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack{{pop_min(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<size_t>(f.node)];
    if (nd.left < 0) {
      if (f.depth > kMaxCodeLen) return false;
      lens[nd.symbol] = static_cast<uint8_t>(std::max(1, f.depth));
    } else {
      stack.push_back({nd.left, f.depth + 1});
      stack.push_back({nd.right, f.depth + 1});
    }
  }
  return true;
}

bool canonical_codes(const uint8_t lens[256], uint32_t codes[256]) {
  std::vector<int> syms;
  for (int s = 0; s < 256; ++s) {
    if (lens[s] > 0) syms.push_back(s);
  }
  std::sort(syms.begin(), syms.end(), [&](int a, int b) {
    if (lens[a] != lens[b]) return lens[a] < lens[b];
    return a < b;
  });
  uint64_t code = 0;
  int prev_len = syms.empty() ? 0 : lens[syms[0]];
  for (size_t i = 0; i < syms.size(); ++i) {
    const int s = syms[i];
    code <<= (lens[s] - prev_len);
    prev_len = lens[s];
    if (code >> lens[s]) return false;
    codes[s] = static_cast<uint32_t>(code);
    ++code;
  }
  return true;
}

/// The encoder's bit packing for a given length table (shared by the
/// verbatim encoder below and the hand-built long-code streams).
std::vector<std::byte> pack(const uint8_t lens[256], const uint32_t codes[256],
                            const std::byte* p, int64_t n) {
  uint32_t rev[256] = {};
  for (int s = 0; s < 256; ++s) {
    for (int b = 0; b < lens[s]; ++b) {
      rev[s] |= ((codes[s] >> b) & 1u) << (lens[s] - 1 - b);
    }
  }
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(256 + n / 2 + 16));
  for (int s = 0; s < 256; ++s) out.push_back(static_cast<std::byte>(lens[s]));
  uint64_t acc = 0;
  int nbits = 0;
  for (int64_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(rev[s]) << nbits;
    nbits += lens[s];
    while (nbits >= 8) {
      out.push_back(static_cast<std::byte>(acc & 0xFFu));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out.push_back(static_cast<std::byte>(acc & 0xFFu));
  return out;
}

std::optional<std::vector<std::byte>> huffman_encode(const std::byte* p,
                                                     int64_t n) {
  int64_t counts[256] = {};
  for (int64_t i = 0; i < n; ++i) ++counts[static_cast<uint8_t>(p[i])];
  uint8_t lens[256];
  if (!huffman_lengths(counts, lens)) return std::nullopt;
  uint32_t codes[256] = {};
  if (!canonical_codes(lens, codes)) return std::nullopt;
  return pack(lens, codes, p, n);
}

std::vector<std::byte> huffman_decode(const std::byte* p, int64_t n,
                                      int64_t expected) {
  ACTCOMP_CHECK(n >= 256, "truncated Huffman length table on wire");
  uint8_t lens[256];
  for (int s = 0; s < 256; ++s) {
    lens[s] = static_cast<uint8_t>(p[s]);
    ACTCOMP_CHECK(lens[s] <= kMaxCodeLen,
                  "Huffman code length " << int{lens[s]} << " exceeds limit "
                                         << kMaxCodeLen);
  }
  std::vector<int> syms;
  for (int s = 0; s < 256; ++s) {
    if (lens[s] > 0) syms.push_back(s);
  }
  ACTCOMP_CHECK(!syms.empty() || expected == 0,
                "empty Huffman alphabet for a non-empty plane");
  std::sort(syms.begin(), syms.end(), [&](int a, int b) {
    if (lens[a] != lens[b]) return lens[a] < lens[b];
    return a < b;
  });
  uint32_t first[kMaxCodeLen + 1] = {};
  uint32_t count[kMaxCodeLen + 1] = {};
  uint32_t offset[kMaxCodeLen + 1] = {};
  for (int s : syms) ++count[lens[s]];
  {
    uint64_t code = 0;
    uint32_t off = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
      code <<= 1;
      first[l] = static_cast<uint32_t>(code);
      offset[l] = off;
      code += count[l];
      off += count[l];
      ACTCOMP_CHECK(code <= (uint64_t{1} << l),
                    "over-full Huffman length table on wire");
    }
  }

  const std::byte* bits = p + 256;
  const int64_t nbits_total = (n - 256) * 8;
  int64_t bitpos = 0;
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(expected));
  for (int64_t i = 0; i < expected; ++i) {
    uint32_t code = 0;
    int len = 0;
    for (;;) {
      ACTCOMP_CHECK(bitpos < nbits_total, "truncated Huffman bitstream on wire");
      const int bit =
          (static_cast<uint8_t>(bits[bitpos >> 3]) >> (bitpos & 7)) & 1;
      ++bitpos;
      code = (code << 1) | static_cast<uint32_t>(bit);
      ++len;
      ACTCOMP_CHECK(len <= kMaxCodeLen, "invalid Huffman code on wire");
      if (count[len] > 0 && code >= first[len] &&
          code < first[len] + count[len]) {
        out.push_back(static_cast<std::byte>(
            syms[offset[len] + (code - first[len])]));
        break;
      }
    }
  }
  ACTCOMP_CHECK((bitpos + 7) / 8 == n - 256,
                "Huffman bitstream has trailing bytes on wire");
  return out;
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

std::vector<uint8_t> tensor_bytes(const ts::Tensor& t) {
  const auto d = t.data();
  std::vector<uint8_t> out(d.size() * sizeof(float));
  if (!out.empty()) std::memcpy(out.data(), d.data(), out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Top-K
// ---------------------------------------------------------------------------

enum class Data { kNormal, kZeros, kTies, kInf };

const char* data_name(Data kind) {
  switch (kind) {
    case Data::kNormal: return "normal";
    case Data::kZeros: return "zeros";
    case Data::kTies: return "ties";
    case Data::kInf: return "inf";
  }
  return "?";
}

ts::Tensor make_data(Data kind, int64_t n, uint64_t seed) {
  ts::Generator gen(seed);
  ts::Tensor x = gen.normal(ts::Shape{n});
  auto d = x.data();
  constexpr float kTieValues[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.0f, -2.0f};
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (int64_t i = 0; i < n; ++i) {
    float& v = d[static_cast<size_t>(i)];
    switch (kind) {
      case Data::kNormal: break;
      case Data::kZeros: v = 0.0f; break;
      case Data::kTies: v = kTieValues[gen.randint(0, 5)]; break;
      case Data::kInf:
        if (i % 97 == 3) v = i % 2 == 0 ? kInf : -kInf;
        break;
    }
  }
  return x;
}

/// T1–T4, then k = 1 and k = n.
std::vector<double> topk_fractions() {
  return {cp::sparse_fraction(cp::Setting::kT1), cp::sparse_fraction(cp::Setting::kT2),
          cp::sparse_fraction(cp::Setting::kT3), cp::sparse_fraction(cp::Setting::kT4),
          1e-12, 1.0};
}

struct TopKCase {
  int64_t n;
  Data kind;
};

std::vector<TopKCase> topk_cases() {
  std::vector<TopKCase> cases;
  for (int64_t n : {int64_t{1}, int64_t{12288}, int64_t{65537}, int64_t{3} * 65536}) {
    for (Data kind : {Data::kNormal, Data::kZeros, Data::kTies, Data::kInf}) {
      cases.push_back({n, kind});
    }
  }
  // The wire workload's message size: every fraction, the two kinds that
  // stress the select differently (distinct keys, massive ties).
  cases.push_back({int64_t{1} << 20, Data::kNormal});
  cases.push_back({int64_t{1} << 20, Data::kTies});
  return cases;
}

TEST(TopKFastPath, EncodeMatchesOracleOnEveryTierAndThreadCount) {
  ThreadGuard tguard;
  for (const TopKCase& tc : topk_cases()) {
    const ts::Tensor x = make_data(tc.kind, tc.n, 17 + static_cast<uint64_t>(tc.n));
    for (double f : topk_fractions()) {
      cp::TopKCompressor c(f);
      core::set_num_threads(1);
      const std::vector<std::byte> want =
          oracle::sparse_body(x, oracle::topk_select(x, c.k_for(tc.n)));
      for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
        IsaGuard guard(static_cast<core::SimdIsa>(t));
        for (int threads : {1, 2, 4}) {
          core::set_num_threads(threads);
          ASSERT_EQ(c.encode(x).body, want)
              << "n=" << tc.n << " " << data_name(tc.kind) << " f=" << f
              << " tier=" << t << " threads=" << threads;
        }
      }
    }
  }
}

TEST(TopKFastPath, RoundTripAndApplyMatchOracle) {
  ThreadGuard tguard;
  for (const TopKCase& tc : topk_cases()) {
    const ts::Tensor x = make_data(tc.kind, tc.n, 29 + static_cast<uint64_t>(tc.n));
    const ts::Tensor g = make_data(Data::kNormal, tc.n, 31);
    for (double f : topk_fractions()) {
      cp::TopKCompressor c(f);
      core::set_num_threads(1);
      const std::vector<int64_t> kept = oracle::topk_select(x, c.k_for(tc.n));
      ts::Tensor want_y{x.shape()};
      ts::Tensor want_grad{x.shape()};
      for (int64_t j : kept) {
        const auto u = static_cast<size_t>(j);
        want_y.data()[u] = ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(x.data()[u]));
        want_grad.data()[u] = g.data()[u];
      }
      for (int threads : {1, 2, 4}) {
        core::set_num_threads(threads);
        ASSERT_EQ(tensor_bytes(c.round_trip(x)), tensor_bytes(want_y))
            << "n=" << tc.n << " " << data_name(tc.kind) << " f=" << f
            << " threads=" << threads;
        ag::Variable xv = ag::Variable::leaf(x, true);
        ag::Variable y = c.apply(xv);
        y.backward(g);
        ASSERT_EQ(tensor_bytes(y.value()), tensor_bytes(want_y));
        ASSERT_EQ(tensor_bytes(xv.grad()), tensor_bytes(want_grad))
            << "n=" << tc.n << " " << data_name(tc.kind) << " f=" << f
            << " threads=" << threads;
      }
    }
  }
}

TEST(TopKFastPath, NanRanksAboveInfinity) {
  // Documented order for NaN inputs (topk.h): by the sign-cleared bit
  // pattern, so NaN outranks +inf, which outranks every finite value.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const ts::Tensor x(ts::Shape{6}, {3.0f, -inf, 1.0f, nan, -5.0f, 2.0f});
  cp::TopKCompressor c(2.0 / 6.0);
  const cp::CompressedMessage msg = c.encode(x);
  ASSERT_EQ(msg.body.size(), 12u);
  int32_t idx[2];
  std::memcpy(idx, msg.body.data(), 8);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 3);
}

// ---------------------------------------------------------------------------
// Random-K
// ---------------------------------------------------------------------------

TEST(RandomKFastPath, SamplerMatchesOracleIndicesAndGeneratorState) {
  const std::pair<int64_t, int64_t> cases[] = {
      {0, 0},       {1, 0},         {1, 1},          {10, 10},
      {1000, 1},    {1000, 999},    {1000, 1000},    {65536, 30000},
      {int64_t{1} << 20, 51200},    {int64_t{1} << 40, 5000}};
  for (const auto& [n, k] : cases) {
    ts::Generator a(123), b(123);
    EXPECT_EQ(a.sample_without_replacement(n, k),
              oracle::sample_without_replacement(b, n, k))
        << "n=" << n << " k=" << k;
    EXPECT_EQ(a.state(), b.state()) << "n=" << n << " k=" << k;
  }
}

TEST(RandomKFastPath, EncodeMatchesSortedOracleBody) {
  ThreadGuard tguard;
  for (int64_t n : {int64_t{1}, int64_t{12288}, int64_t{65537}, int64_t{1} << 20}) {
    const ts::Tensor x = make_data(Data::kNormal, n, 41);
    for (cp::Setting s : {cp::Setting::kR1, cp::Setting::kR3}) {
      const double f = cp::sparse_fraction(s);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        cp::RandomKCompressor c(f, 77);
        ts::Generator gen(77);
        std::vector<int64_t> kept =
            oracle::sample_without_replacement(gen, n, c.k_for(n));
        std::sort(kept.begin(), kept.end());
        // Two messages in a row: the second checks the generator advanced
        // exactly as the oracle's did.
        for (int rep = 0; rep < 2; ++rep) {
          if (rep == 1) {
            kept = oracle::sample_without_replacement(gen, n, c.k_for(n));
            std::sort(kept.begin(), kept.end());
          }
          ASSERT_EQ(c.encode(x).body, oracle::sparse_body(x, kept))
              << "n=" << n << " f=" << f << " threads=" << threads << " rep=" << rep;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp16 wire helpers
// ---------------------------------------------------------------------------

TEST(Fp16WireFastPath, AppendMatchesPerElementOnEveryTier) {
  // Every bit class: random patterns (NaN payloads, denormals, infinities,
  // values that round at the fp16 edges) appended after an odd-length
  // prefix, so the destination is unaligned.
  ts::Generator gen(5);
  std::vector<float> vals(70001);
  for (float& v : vals) {
    const auto bits = static_cast<uint32_t>(gen.randint(0, 0xFFFFFFFFll));
    std::memcpy(&v, &bits, 4);
  }
  const ts::Tensor x(ts::Shape{static_cast<int64_t>(vals.size())}, vals);
  std::vector<std::byte> want(3, std::byte{0x7});
  oracle::append_fp16(want, x);
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    IsaGuard guard(static_cast<core::SimdIsa>(t));
    std::vector<std::byte> got(3, std::byte{0x7});
    cp::wire::append_fp16(got, x);
    EXPECT_EQ(got, want) << "tier=" << t;
    std::vector<std::byte> empty_got, empty_want;
    cp::wire::append_fp16(empty_got, ts::Tensor(ts::Shape{0}));
    oracle::append_fp16(empty_want, ts::Tensor(ts::Shape{0}));
    EXPECT_EQ(empty_got, empty_want);
  }
}

TEST(Fp16WireFastPath, ReadMatchesPerElementForEveryHalfPattern) {
  std::vector<std::byte> buf(1, std::byte{0x1});  // odd offset
  for (uint32_t h = 0; h <= 0xFFFF; ++h) {
    cp::wire::append_pod<uint16_t>(buf, static_cast<uint16_t>(h));
  }
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    IsaGuard guard(static_cast<core::SimdIsa>(t));
    size_t off_got = 1, off_want = 1;
    const std::vector<float> got = cp::wire::read_fp16(buf, off_got, 65536);
    const std::vector<float> want = oracle::read_fp16(buf, off_want, 65536);
    ASSERT_EQ(off_got, off_want);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0) << "tier=" << t;
  }
}

TEST(Fp16WireFastPath, ReadRejectsShortBuffersLikeThePerElementPath) {
  const std::vector<std::byte> buf(9, std::byte{0x3c});
  for (int64_t n : {int64_t{5}, int64_t{1} << 40, int64_t{-1}}) {
    size_t off = 1;
    EXPECT_THROW(cp::wire::read_fp16(buf, off, n), std::invalid_argument) << n;
  }
  size_t off = 1, off_want = 1;
  EXPECT_THROW(oracle::read_fp16(buf, off_want, 5), std::invalid_argument);
  EXPECT_EQ(cp::wire::read_fp16(buf, off, 4).size(), 4u);
  EXPECT_EQ(off, 9u);
  off = 9;
  EXPECT_TRUE(cp::wire::read_fp16(buf, off, 0).empty());
}

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

/// Either the decoded bytes or "<exception type>: <check message>". The
/// check message drops ACTCOMP_CHECK's file:line prefix, which differs
/// between the library and the oracle copy.
std::string outcome(const std::function<std::vector<std::byte>()>& fn) {
  try {
    const std::vector<std::byte> out = fn();
    return "ok:" + std::string(reinterpret_cast<const char*>(out.data()), out.size());
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const size_t at = what.find(" at ");
    const size_t dash = what.find(" — ");
    return "invalid_argument:" + what.substr(0, at) +
           (dash == std::string::npos ? "" : what.substr(dash));
  } catch (const std::exception& e) {
    return std::string("other:") + e.what();
  }
}

void expect_same_decode(const std::vector<std::byte>& stream, int64_t n,
                        int64_t expected, const std::string& label) {
  const std::string got = outcome(
      [&] { return cp::detail::huffman_decode(stream.data(), n, expected); });
  const std::string want =
      outcome([&] { return oracle::huffman_decode(stream.data(), n, expected); });
  ASSERT_EQ(got, want) << label << " n=" << n << " expected=" << expected;
}

std::vector<std::byte> skewed_payload(uint64_t seed, int64_t n, double p) {
  // Geometric symbol distribution: P(s) ~ (1-p)^s, so the Huffman tree is
  // deep and many codes exceed the decode table's width.
  ts::Generator gen(seed);
  std::vector<std::byte> out(static_cast<size_t>(n));
  for (auto& b : out) {
    int s = 0;
    while (s < 255 && !gen.bernoulli(p)) ++s;
    b = static_cast<std::byte>(s);
  }
  return out;
}

std::vector<std::byte> fibonacci_payload() {
  // Symbol s appears F(s+1) times: the classic worst case, whose optimal
  // code lengths grow by one per symbol (up to ~24 bits here).
  std::vector<std::byte> out;
  int64_t a = 1, b = 1;
  for (int s = 0; s < 25; ++s) {
    out.insert(out.end(), static_cast<size_t>(a), static_cast<std::byte>(s * 7));
    const int64_t c = a + b;
    a = b;
    b = c;
  }
  ts::Generator gen(3);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(gen.randint(0, static_cast<int64_t>(i) - 1))]);
  }
  return out;
}

std::vector<std::vector<std::byte>> huffman_payloads() {
  std::vector<std::vector<std::byte>> out;
  out.push_back({});
  out.push_back(std::vector<std::byte>(1000, std::byte{'x'}));  // one symbol
  out.push_back(std::vector<std::byte>(1, std::byte{0}));
  {
    ts::Generator gen(9);
    std::vector<std::byte> uniform(50000);
    for (auto& b : uniform) b = static_cast<std::byte>(gen.randint(0, 255));
    out.push_back(std::move(uniform));
  }
  out.push_back(skewed_payload(11, 100000, 0.5));
  out.push_back(skewed_payload(12, 100000, 0.3));
  out.push_back(skewed_payload(13, 7, 0.5));
  out.push_back(fibonacci_payload());
  {
    // fp16 exponent-plane bytes of an activation: what the codec sees.
    ts::Generator gen(15);
    const ts::Tensor x = gen.normal(ts::Shape{40000});
    std::vector<std::byte> fp16;
    oracle::append_fp16(fp16, x);
    std::vector<std::byte> plane;
    for (size_t i = 1; i < fp16.size(); i += 2) plane.push_back(fp16[i]);
    out.push_back(std::move(plane));
  }
  return out;
}

TEST(HuffmanFastPath, EncodeMatchesPerByteEncoder) {
  for (const auto& p : huffman_payloads()) {
    const auto n = static_cast<int64_t>(p.size());
    const auto got = cp::detail::huffman_encode(p.data(), n);
    const auto want = oracle::huffman_encode(p.data(), n);
    ASSERT_EQ(got.has_value(), want.has_value()) << "n=" << n;
    if (want) {
      EXPECT_EQ(*got, *want) << "n=" << n;
    }
  }
}

TEST(HuffmanFastPath, DecodeMatchesBitWalkOnValidStreams) {
  bool saw_long_code = false;
  for (const auto& p : huffman_payloads()) {
    const auto n = static_cast<int64_t>(p.size());
    const auto stream = oracle::huffman_encode(p.data(), n);
    ASSERT_TRUE(stream.has_value());
    for (int s = 0; s < 256; ++s) saw_long_code |= static_cast<int>((*stream)[s]) > 11;
    const auto sn = static_cast<int64_t>(stream->size());
    const auto decoded = cp::detail::huffman_decode(stream->data(), sn, n);
    EXPECT_EQ(decoded, p) << "n=" << n;
    // A wrong symbol count is malformed either way, with the same error.
    for (int64_t e : {n - 1, n + 1, n + 64}) {
      if (e >= 0) expect_same_decode(*stream, sn, e, "count");
    }
  }
  EXPECT_TRUE(saw_long_code) << "no payload exercised codes longer than the table";
}

TEST(HuffmanFastPath, HandBuiltCodesUpTo32BitsMatchBitWalk) {
  // Lengths 1, 2, ..., 31, 32: codes as deep as the format allows, one
  // short of complete, so the all-ones 32-bit pattern stays unassigned
  // (AllOnes32BitCodeRoundTrips covers the complete case). Streams are
  // uniform symbol sequences over it, so the long codes actually occur.
  uint8_t lens[256] = {};
  for (int s = 0; s < 32; ++s) lens[s] = static_cast<uint8_t>(s + 1);
  uint32_t codes[256] = {};
  ASSERT_TRUE(oracle::canonical_codes(lens, codes));
  ts::Generator gen(21);
  for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{100}, int64_t{5000}}) {
    std::vector<std::byte> syms(static_cast<size_t>(n));
    for (auto& b : syms) b = static_cast<std::byte>(gen.randint(0, 31));
    const auto stream = oracle::pack(lens, codes, syms.data(), n);
    const auto sn = static_cast<int64_t>(stream.size());
    EXPECT_EQ(cp::detail::huffman_decode(stream.data(), sn, n), syms);
    expect_same_decode(stream, sn, n, "long codes");
    expect_same_decode(stream, sn, n + 1, "long codes +1");
    for (int64_t cut = 256; cut < sn; cut += std::max<int64_t>(1, (sn - 256) / 40)) {
      expect_same_decode(stream, cut, n, "long codes cut");
    }
  }
}

TEST(HuffmanFastPath, AllOnes32BitCodeRoundTrips) {
  // Regression (found by the test above): the bit walk matched a code with
  // `code < first + count`, which wraps to 0 at length 32, so the all-ones
  // 32-bit code was rejected as invalid. Any complete tree 32 levels deep
  // assigns that code, and the encoder emits such trees: Fibonacci symbol
  // counts F(1..33) give exactly depth 32.
  std::vector<std::byte> p;
  int64_t a = 1, b = 1;
  for (int s = 0; s < 33; ++s) {
    p.insert(p.end(), static_cast<size_t>(a), static_cast<std::byte>(s));
    const int64_t c = a + b;
    a = b;
    b = c;
  }
  const auto n = static_cast<int64_t>(p.size());
  const auto stream = cp::detail::huffman_encode(p.data(), n);
  ASSERT_TRUE(stream.has_value());
  EXPECT_EQ(static_cast<int>((*stream)[0]), 32);  // the two rarest symbols
  EXPECT_EQ(static_cast<int>((*stream)[1]), 32);
  const auto sn = static_cast<int64_t>(stream->size());
  EXPECT_EQ(cp::detail::huffman_decode(stream->data(), sn, n), p);
  EXPECT_THROW(oracle::huffman_decode(stream->data(), sn, n), std::invalid_argument);
}

TEST(HuffmanFastPath, EveryTruncationMatchesBitWalk) {
  for (const auto& p : {skewed_payload(31, 600, 0.4), skewed_payload(32, 200, 0.2),
                        std::vector<std::byte>(300, std::byte{9})}) {
    const auto n = static_cast<int64_t>(p.size());
    const auto stream = oracle::huffman_encode(p.data(), n);
    ASSERT_TRUE(stream.has_value());
    for (int64_t cut = 0; cut <= static_cast<int64_t>(stream->size()); ++cut) {
      expect_same_decode(*stream, cut, n, "truncation");
    }
  }
}

TEST(HuffmanFastPath, EverySingleBitFlipMatchesBitWalk) {
  for (const auto& p : {skewed_payload(41, 90, 0.4), skewed_payload(42, 40, 0.15)}) {
    const auto n = static_cast<int64_t>(p.size());
    const auto stream = oracle::huffman_encode(p.data(), n);
    ASSERT_TRUE(stream.has_value());
    for (size_t bit = 0; bit < stream->size() * 8; ++bit) {
      std::vector<std::byte> flipped = *stream;
      flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      expect_same_decode(flipped, static_cast<int64_t>(flipped.size()), n,
                         "flip " + std::to_string(bit));
    }
  }
}

}  // namespace
