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
//     open-addressing table plus a bitmap sort);
//   * the lossless container: LosslessCodec::encode/decode and the stacked
//     compressor's segment coding, one plane after another, with the
//     byte-at-a-time PackBits coder and the one-symbol Huffman table (now
//     every (chunk, plane) unit in one parallel pass, a word-at-a-time
//     PackBits scan, a Huffman size limit and a two-symbol table).
// Every comparison is byte for byte: wire bodies, decoded tensors, gradients,
// generator state, and for malformed Huffman streams and lossless messages
// the exception message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
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


// ---- Lossless container: the serial codec, verbatim ----
//
// LosslessCodec::encode/decode and StackedCompressor::do_encode/do_decode as
// they were before the container coded its (chunk, plane) units in parallel,
// with the PackBits coder and the one-symbol-per-lookup Huffman decoder they
// called. The member functions become free functions of the codec (and, for
// the stacked pair, of the inner message and layout); the bodies are as they
// were.

namespace serial {

constexpr uint8_t kMagic = 0xAC;
constexpr uint8_t kVersion = 1;
constexpr int64_t kHeaderBytes = 24;
constexpr int kTableBits = 11;
constexpr int64_t kMaxExpansion = 512;

struct ByteReader {
  const std::byte* p = nullptr;
  int64_t n = 0;
  int64_t off = 0;

  template <typename T>
  T get() {
    ACTCOMP_CHECK(off + static_cast<int64_t>(sizeof(T)) <= n,
                  "truncated lossless container");
    T v{};
    std::memcpy(&v, p + off, sizeof(T));
    off += static_cast<int64_t>(sizeof(T));
    return v;
  }
  const std::byte* take(int64_t k) {
    ACTCOMP_CHECK(k >= 0 && off + k <= n, "truncated lossless container");
    const std::byte* q = p + off;
    off += k;
    return q;
  }
};

void rle_flush_literals(std::vector<std::byte>& out, const std::byte* p,
                        int64_t begin, int64_t end) {
  while (begin < end) {
    const int64_t len = std::min<int64_t>(128, end - begin);
    out.push_back(static_cast<std::byte>(len - 1));
    out.insert(out.end(), p + begin, p + begin + len);
    begin += len;
  }
}

std::vector<std::byte> rle_encode(const std::byte* p, int64_t n) {
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(n / 2 + 16));
  int64_t i = 0;
  auto run_at = [&](int64_t j) {
    int64_t run = 1;
    while (j + run < n && run < 128 && p[j + run] == p[j]) ++run;
    return run;
  };
  while (i < n) {
    int64_t run = run_at(i);
    if (run >= 3) {
      out.push_back(static_cast<std::byte>(257 - run));
      out.push_back(p[i]);
      i += run;
      continue;
    }
    const int64_t lit = i;
    while (i < n) {
      run = run_at(i);
      if (run >= 3) break;
      i += run;
    }
    rle_flush_literals(out, p, lit, i);
  }
  return out;
}

std::vector<std::byte> rle_decode(const std::byte* p, int64_t n,
                                  int64_t expected) {
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(expected));
  int64_t i = 0;
  while (i < n) {
    const auto c = static_cast<uint8_t>(p[i++]);
    if (c <= 127) {
      const int64_t len = c + 1;
      ACTCOMP_CHECK(i + len <= n, "truncated RLE literal run on wire");
      ACTCOMP_CHECK(static_cast<int64_t>(out.size()) + len <= expected,
                    "RLE stream overruns its declared plane size");
      out.insert(out.end(), p + i, p + i + len);
      i += len;
    } else {
      ACTCOMP_CHECK(c != 128, "reserved RLE control byte 128 on wire");
      ACTCOMP_CHECK(i < n, "truncated RLE repeat run on wire");
      const int64_t len = 257 - c;
      ACTCOMP_CHECK(static_cast<int64_t>(out.size()) + len <= expected,
                    "RLE stream overruns its declared plane size");
      out.insert(out.end(), static_cast<size_t>(len), p[i++]);
    }
  }
  ACTCOMP_CHECK(static_cast<int64_t>(out.size()) == expected,
                "RLE stream decodes to " << out.size() << " bytes, expected "
                                         << expected);
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

  uint32_t rev[256] = {};
  uint64_t total_bits = 0;
  for (int s = 0; s < 256; ++s) {
    for (int b = 0; b < lens[s]; ++b) {
      rev[s] |= ((codes[s] >> b) & 1u) << (lens[s] - 1 - b);
    }
    total_bits += static_cast<uint64_t>(counts[s]) * lens[s];
  }
  std::vector<std::byte> out(256 + static_cast<size_t>((total_bits + 7) / 8));
  for (int s = 0; s < 256; ++s) out[static_cast<size_t>(s)] = static_cast<std::byte>(lens[s]);
  std::byte* w = out.data() + 256;
  uint64_t acc = 0;
  int nbits = 0;
  for (int64_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(rev[s]) << nbits;
    nbits += lens[s];
    if (nbits >= 32) {
      const auto word = static_cast<uint32_t>(acc);
      std::memcpy(w, &word, 4);
      w += 4;
      acc >>= 32;
      nbits -= 32;
    }
  }
  for (; nbits > 0; nbits -= 8) {
    *w++ = static_cast<std::byte>(acc & 0xFFu);
    acc >>= 8;
  }
  return out;
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

  uint16_t table[1 << kTableBits] = {};
  for (int l = 1; l <= kTableBits; ++l) {
    for (uint32_t c = 0; c < count[l]; ++c) {
      const uint32_t code = first[l] + c;
      uint32_t rev = 0;
      for (int b = 0; b < l; ++b) rev |= ((code >> b) & 1u) << (l - 1 - b);
      const auto entry = static_cast<uint16_t>(syms[offset[l] + c] | (l << 8));
      for (uint32_t hi = 0; hi < (1u << (kTableBits - l)); ++hi) {
        table[rev | (hi << l)] = entry;
      }
    }
  }

  const std::byte* bits = p + 256;
  const int64_t nbytes = n - 256;
  const int64_t nbits_total = nbytes * 8;
  int64_t bitpos = 0;
  std::vector<std::byte> out(static_cast<size_t>(expected));
  int64_t i = 0;
  while (i < expected) {
    while ((bitpos >> 3) + 8 <= nbytes) {
      uint64_t window = 0;
      std::memcpy(&window, bits + (bitpos >> 3), 8);
      window >>= bitpos & 7;
      int avail = 64 - static_cast<int>(bitpos & 7);
      uint16_t e = 0;
      while (avail >= kTableBits && i < expected &&
             (e = table[window & ((1u << kTableBits) - 1)]) != 0) {
        const int len = e >> 8;
        out[static_cast<size_t>(i++)] = static_cast<std::byte>(e & 0xFF);
        window >>= len;
        avail -= len;
        bitpos += len;
      }
      if (i == expected || e == 0) break;
    }
    if (i == expected) break;
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
      if (code >= first[len] && code - first[len] < count[len]) {
        out[static_cast<size_t>(i++)] = static_cast<std::byte>(
            syms[offset[len] + (code - first[len])]);
        break;
      }
    }
  }
  ACTCOMP_CHECK((bitpos + 7) / 8 == n - 256,
                "Huffman bitstream has trailing bytes on wire");
  return out;
}

int64_t plane_raw_len(int64_t chunk_len, int stride, int plane) {
  return chunk_len / stride + (plane < chunk_len % stride ? 1 : 0);
}

std::vector<std::byte> gather_plane(const std::byte* p, int64_t n, int stride,
                                    int plane) {
  std::vector<std::byte> out(static_cast<size_t>(plane_raw_len(n, stride, plane)));
  size_t j = 0;
  for (int64_t i = plane; i < n; i += stride) out[j++] = p[i];
  return out;
}

std::pair<cp::LosslessAlgo, std::vector<std::byte>> encode_plane(
    const std::byte* p, int64_t n, cp::LosslessAlgo algo) {
  std::optional<std::vector<std::byte>> coded;
  switch (algo) {
    case cp::LosslessAlgo::kRaw:
      break;
    case cp::LosslessAlgo::kRle:
      coded = rle_encode(p, n);
      break;
    case cp::LosslessAlgo::kHuffman:
      coded = huffman_encode(p, n);
      break;
    case cp::LosslessAlgo::kRleHuffman: {
      const std::vector<std::byte> rle = rle_encode(p, n);
      if (auto h = huffman_encode(rle.data(), static_cast<int64_t>(rle.size()))) {
        std::vector<std::byte> stream;
        stream.reserve(8 + h->size());
        cp::wire::append_pod<uint64_t>(stream, static_cast<uint64_t>(rle.size()));
        stream.insert(stream.end(), h->begin(), h->end());
        coded = std::move(stream);
      }
      break;
    }
  }
  if (coded && static_cast<int64_t>(coded->size()) < n) {
    return {algo, std::move(*coded)};
  }
  return {cp::LosslessAlgo::kRaw, std::vector<std::byte>(p, p + n)};
}

std::vector<std::byte> decode_plane(cp::LosslessAlgo algo, const std::byte* p,
                                    int64_t n, int64_t expected) {
  switch (algo) {
    case cp::LosslessAlgo::kRaw:
      ACTCOMP_CHECK(n == expected, "raw plane size mismatch on wire");
      return std::vector<std::byte>(p, p + n);
    case cp::LosslessAlgo::kRle:
      return rle_decode(p, n, expected);
    case cp::LosslessAlgo::kHuffman:
      return huffman_decode(p, n, expected);
    case cp::LosslessAlgo::kRleHuffman: {
      ByteReader r{p, n};
      const auto rle_len = static_cast<int64_t>(r.get<uint64_t>());
      ACTCOMP_CHECK(rle_len >= 0 && rle_len <= kMaxExpansion * (n - r.off) + 8,
                    "implausible RLE stream size on wire");
      const std::vector<std::byte> rle =
          huffman_decode(p + r.off, n - r.off, rle_len);
      return rle_decode(rle.data(), static_cast<int64_t>(rle.size()), expected);
    }
  }
  ACTCOMP_CHECK(false, "unknown plane algo id on wire");
}

void encode_chunk(const std::byte* p, int64_t n, cp::LosslessAlgo algo, int stride,
                  std::vector<std::byte>& out) {
  for (int plane = 0; plane < stride; ++plane) {
    std::vector<std::byte> plane_bytes = gather_plane(p, n, stride, plane);
    auto [used, coded] = encode_plane(
        plane_bytes.data(), static_cast<int64_t>(plane_bytes.size()), algo);
    cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(used));
    cp::wire::append_pod<uint64_t>(out, static_cast<uint64_t>(coded.size()));
    out.insert(out.end(), coded.begin(), coded.end());
  }
}

void decode_chunk(const std::byte* p, int64_t n, int64_t expected_raw,
                  cp::LosslessAlgo container_algo, int stride,
                  std::vector<std::byte>& out) {
  ByteReader r{p, n};
  const size_t base = out.size();
  out.resize(base + static_cast<size_t>(expected_raw));
  for (int plane = 0; plane < stride; ++plane) {
    const auto algo_id = r.get<uint8_t>();
    ACTCOMP_CHECK(algo_id == static_cast<uint8_t>(cp::LosslessAlgo::kRaw) ||
                      algo_id == static_cast<uint8_t>(container_algo),
                  "plane algo id " << int{algo_id}
                                   << " is neither raw nor the container's");
    const auto coded_len = static_cast<int64_t>(r.get<uint64_t>());
    const std::byte* coded = r.take(coded_len);
    const int64_t expected = plane_raw_len(expected_raw, stride, plane);
    ACTCOMP_CHECK(expected <= kMaxExpansion * coded_len + 8,
                  "implausible plane expansion on wire");
    const std::vector<std::byte> raw = decode_plane(
        static_cast<cp::LosslessAlgo>(algo_id), coded, coded_len, expected);
    size_t j = 0;
    for (int64_t i = plane; i < expected_raw; i += stride) {
      out[base + static_cast<size_t>(i)] = raw[j++];
    }
  }
  ACTCOMP_CHECK(r.off == n, "trailing bytes after the chunk's last plane");
}

/// LosslessCodec::encode(data, n).
std::vector<std::byte> encode(const cp::LosslessCodec& codec,
                              const std::byte* data, int64_t n) {
  const cp::LosslessAlgo algo = codec.algo;
  const cp::PlaneSplit split = codec.split;
  const int64_t chunk_bytes = codec.chunk_bytes;
  ACTCOMP_CHECK(n >= 0, "negative payload size");
  ACTCOMP_CHECK(n == 0 || data != nullptr, "null payload");
  const int chunks = codec.num_chunks(n);
  const int64_t chunk_raw = chunks == 1 ? n : chunk_bytes;
  const int stride = cp::plane_count(split);

  std::vector<std::vector<std::byte>> chunk_streams(
      static_cast<size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const int64_t begin = static_cast<int64_t>(c) * chunk_raw;
    const int64_t len = std::min(chunk_raw, n - begin);
    encode_chunk(data + begin, len, algo, stride,
                 chunk_streams[static_cast<size_t>(c)]);
  }

  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(kHeaderBytes + 8 * chunks));
  cp::wire::append_pod<uint8_t>(out, kMagic);
  cp::wire::append_pod<uint8_t>(out, kVersion);
  cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(algo));
  cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(split));
  cp::wire::append_pod<uint64_t>(out, static_cast<uint64_t>(n));
  cp::wire::append_pod<uint32_t>(out, static_cast<uint32_t>(chunks));
  cp::wire::append_pod<uint64_t>(out, static_cast<uint64_t>(chunk_raw));
  for (const auto& cs : chunk_streams) {
    cp::wire::append_pod<uint64_t>(out, static_cast<uint64_t>(cs.size()));
  }
  for (const auto& cs : chunk_streams) out.insert(out.end(), cs.begin(), cs.end());
  return out;
}

/// LosslessCodec::decode(buf); the codec's fields play no part, as before.
std::vector<std::byte> decode(const std::vector<std::byte>& buf) {
  ByteReader r{buf.data(), static_cast<int64_t>(buf.size())};
  ACTCOMP_CHECK(r.get<uint8_t>() == kMagic, "bad lossless container magic");
  ACTCOMP_CHECK(r.get<uint8_t>() == kVersion,
                "unsupported lossless container version");
  const auto algo_id = r.get<uint8_t>();
  ACTCOMP_CHECK(algo_id <= static_cast<uint8_t>(cp::LosslessAlgo::kRleHuffman),
                "unknown lossless algo id " << int{algo_id});
  const auto split_id = r.get<uint8_t>();
  ACTCOMP_CHECK(split_id <= static_cast<uint8_t>(cp::PlaneSplit::kStride4),
                "unknown plane split id " << int{split_id});
  const auto raw = static_cast<int64_t>(r.get<uint64_t>());
  ACTCOMP_CHECK(raw >= 0 &&
                    raw <= kMaxExpansion * static_cast<int64_t>(buf.size()),
                "implausible raw payload size on wire");
  const auto chunks = static_cast<int64_t>(r.get<uint32_t>());
  ACTCOMP_CHECK(chunks >= 1, "lossless container needs >= 1 chunk");
  const auto chunk_raw = static_cast<int64_t>(r.get<uint64_t>());
  if (chunks == 1) {
    ACTCOMP_CHECK(chunk_raw == raw,
                  "single-chunk container must have chunk_raw == raw_bytes");
  } else {
    ACTCOMP_CHECK(chunk_raw >= 1, "multi-chunk container needs chunk_raw >= 1");
    ACTCOMP_CHECK(chunk_raw <= raw && chunks == (raw + chunk_raw - 1) / chunk_raw,
                  "chunk table inconsistent with raw_bytes");
  }
  ACTCOMP_CHECK(chunks <= (r.n - r.off) / 8, "truncated lossless container");
  std::vector<int64_t> sizes(static_cast<size_t>(chunks));
  int64_t total = 0;
  for (auto& s : sizes) {
    s = static_cast<int64_t>(r.get<uint64_t>());
    ACTCOMP_CHECK(s >= 0 && s <= static_cast<int64_t>(buf.size()),
                  "chunk size out of range on wire");
    total += s;
  }
  ACTCOMP_CHECK(r.off + total == static_cast<int64_t>(buf.size()),
                "container size does not match its chunk table (truncated or "
                "trailing bytes)");

  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(raw));
  const auto algo = static_cast<cp::LosslessAlgo>(algo_id);
  const int stride = cp::plane_count(static_cast<cp::PlaneSplit>(split_id));
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t expected =
        c + 1 == chunks ? raw - chunk_raw * (chunks - 1) : chunk_raw;
    const std::byte* p = r.take(sizes[static_cast<size_t>(c)]);
    decode_chunk(p, sizes[static_cast<size_t>(c)], expected, algo, stride, out);
  }
  return out;
}

/// StackedCompressor::do_encode after `inner_->encode(x)` and `layout_for`:
/// the stacked body for an inner body and its (validated) segments.
std::vector<std::byte> stacked_encode(const std::vector<std::byte>& inner_body,
                                      const std::vector<cp::BodySegment>& segs,
                                      const cp::LosslessCodec& codec_) {
  std::vector<std::byte> body;
  cp::wire::append_pod<uint32_t>(body, static_cast<uint32_t>(segs.size()));
  std::vector<std::vector<std::byte>> containers;
  containers.reserve(segs.size());
  for (const cp::BodySegment& s : segs) {
    cp::LosslessCodec c = codec_;
    c.split = s.split;
    containers.push_back(encode(c, inner_body.data() + s.offset, s.bytes));
    cp::wire::append_pod<uint64_t>(body,
                                   static_cast<uint64_t>(containers.back().size()));
  }
  for (const auto& c : containers) {
    body.insert(body.end(), c.begin(), c.end());
  }
  return body;
}

/// StackedCompressor::do_decode up to `inner_->decode(inner)`: the inner
/// body. `layout_size` stands for `layout_for(shape, bytes).size()`.
std::vector<std::byte> stacked_decode(
    const cp::CompressedMessage& msg,
    const std::function<size_t(int64_t)>& layout_size) {
  size_t off = 0;
  const auto nseg = static_cast<int64_t>(cp::wire::read_pod<uint32_t>(msg.body, off));
  ACTCOMP_CHECK(nseg >= 1, "stacked message needs >= 1 segment");
  ACTCOMP_CHECK(static_cast<size_t>(nseg) <= (msg.body.size() - off) / 8,
                "truncated stacked segment table on wire");
  std::vector<int64_t> sizes(static_cast<size_t>(nseg));
  for (auto& s : sizes) {
    s = static_cast<int64_t>(cp::wire::read_pod<uint64_t>(msg.body, off));
  }
  cp::CompressedMessage inner;
  inner.shape_dims = msg.shape_dims;
  for (int64_t i = 0; i < nseg; ++i) {
    const int64_t len = sizes[static_cast<size_t>(i)];
    ACTCOMP_CHECK(len >= 0 && static_cast<size_t>(len) <= msg.body.size() - off,
                  "truncated stacked segment on wire");
    const std::vector<std::byte> container(
        msg.body.begin() + static_cast<int64_t>(off),
        msg.body.begin() + static_cast<int64_t>(off) + len);
    const std::vector<std::byte> raw = decode(container);
    inner.body.insert(inner.body.end(), raw.begin(), raw.end());
    off += static_cast<size_t>(len);
  }
  ACTCOMP_CHECK(off == msg.body.size(),
                "trailing bytes after the stacked message's last segment");
  ACTCOMP_CHECK(
      static_cast<int64_t>(layout_size(static_cast<int64_t>(inner.body.size()))) ==
          nseg,
      "stacked segment count disagrees with the layout");
  return inner.body;
}

}  // namespace serial

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

// ---------------------------------------------------------------------------
// Lossless container: unit-parallel coding against the serial codec
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::byte>;

/// Either the decoded bytes or "<exception type>:<check message>". The
/// message drops ACTCOMP_CHECK's "check failed: (<condition>) at
/// <file>:<line>" head, which names the source the check sits in.
std::string container_outcome(const std::function<Bytes()>& fn) {
  try {
    const Bytes out = fn();
    return "ok:" + std::string(reinterpret_cast<const char*>(out.data()), out.size());
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::string dash = " — ";
    const size_t at = what.find(dash);
    return "invalid_argument:" +
           (at == std::string::npos ? what : what.substr(at + dash.size()));
  } catch (const std::exception& e) {
    return std::string("other:") + e.what();
  }
}

/// The standard codecs plus raw, rle, huffman/none and rle+huffman/none.
std::vector<cp::LosslessCodec> fastpath_codecs() {
  std::vector<cp::LosslessCodec> codecs = cp::standard_lossless_codecs();
  codecs.push_back({cp::LosslessAlgo::kRaw, cp::PlaneSplit::kStride4, 0});
  codecs.push_back({cp::LosslessAlgo::kRle, cp::PlaneSplit::kNone, 0});
  codecs.push_back({cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kNone, 0});
  codecs.push_back({cp::LosslessAlgo::kRleHuffman, cp::PlaneSplit::kNone, 0});
  return codecs;
}

struct Payload {
  std::string name;
  Bytes bytes;
};

Bytes fp16_activation(uint64_t seed, int64_t n) {
  ts::Generator gen(seed);
  Bytes out;
  oracle::append_fp16(out, gen.normal(ts::Shape{n}));
  return out;
}

/// Uniform over `k` symbols: runs and triples of every length start at
/// every offset.
Bytes small_alphabet(uint64_t seed, int64_t n, int k) {
  ts::Generator gen(seed);
  Bytes out(static_cast<size_t>(n));
  for (auto& b : out) b = static_cast<std::byte>(gen.randint(0, k - 1));
  return out;
}

/// Runs of exactly `len` equal bytes, each run's value unlike its
/// neighbours'.
Bytes runs_of(int64_t len, int64_t total) {
  Bytes out;
  for (int64_t r = 0; static_cast<int64_t>(out.size()) < total; ++r) {
    out.insert(out.end(), static_cast<size_t>(len), static_cast<std::byte>((r * 37) & 0xFF));
  }
  return out;
}

/// Neighbouring bytes all differ except for one triple at `pos`.
Bytes triple_at(int64_t n, int64_t pos) {
  Bytes out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = static_cast<std::byte>(i * 7 + 1);
  out[static_cast<size_t>(pos + 1)] = out[static_cast<size_t>(pos)];
  out[static_cast<size_t>(pos + 2)] = out[static_cast<size_t>(pos)];
  return out;
}

/// Two symbols, never three equal in a row: the plane's Huffman stream is
/// 256 + ceil(n / 8) bytes, which equals n at n = 293, so lengths around it
/// sit on both sides of the raw fallback.
Bytes two_symbols(uint64_t seed, int64_t n) {
  ts::Generator gen(seed);
  Bytes out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    auto b = static_cast<std::byte>(gen.randint(0, 1) * 200);
    if (i >= 2 && out[static_cast<size_t>(i - 1)] == b && out[static_cast<size_t>(i - 2)] == b) {
      b = b == std::byte{0} ? std::byte{200} : std::byte{0};
    }
    out[static_cast<size_t>(i)] = b;
  }
  return out;
}

/// Payloads small enough for every chunk size, down to one byte a chunk.
std::vector<Payload> tiny_payloads() {
  std::vector<Payload> out;
  for (int64_t n = 0; n <= 50; ++n) {
    out.push_back({"len" + std::to_string(n), small_alphabet(static_cast<uint64_t>(n), n, 3)});
  }
  out.push_back({"run129", runs_of(129, 300)});
  return out;
}

std::vector<Payload> small_payloads() {
  std::vector<Payload> out = tiny_payloads();
  for (int64_t n : {55, 56, 57, 63, 64, 65, 71, 72, 73, 79, 80, 81, 127, 128, 129,
                    130, 255, 256, 257}) {
    out.push_back({"edge" + std::to_string(n), small_alphabet(static_cast<uint64_t>(100 + n), n, 2)});
  }
  for (int64_t n : {10, 17, 24}) {
    for (int64_t pos = 0; pos + 3 <= n; ++pos) {
      out.push_back({"triple" + std::to_string(n) + "@" + std::to_string(pos), triple_at(n, pos)});
    }
  }
  for (int64_t n = 280; n <= 340; ++n) {
    out.push_back({"two" + std::to_string(n), two_symbols(static_cast<uint64_t>(n), n)});
  }
  return out;
}

std::vector<Payload> large_payloads() {
  std::vector<Payload> out;
  out.push_back({"fp16", fp16_activation(1, 3000)});
  out.push_back({"fp16-2chunks", fp16_activation(2, 40000)});
  out.push_back({"zeros", Bytes(5000, std::byte{0})});
  out.push_back({"skewed", skewed_payload(3, 4000, 0.4)});
  {
    ts::Generator gen(4);
    Bytes uniform(4096);
    for (auto& b : uniform) b = static_cast<std::byte>(gen.randint(0, 255));
    out.push_back({"uniform", std::move(uniform)});
  }
  for (int64_t len : {2, 3, 128, 129}) {
    out.push_back({"runs" + std::to_string(len), runs_of(len, 6000)});
  }
  return out;
}

::testing::AssertionResult same_as_serial(const cp::LosslessCodec& codec,
                                          const Payload& p, const Bytes& want) {
  const Bytes got = codec.encode(p.bytes);
  const std::string where = codec.name() + " chunk " + std::to_string(codec.chunk_bytes) +
                            " payload " + p.name + " threads " +
                            std::to_string(core::num_threads());
  if (got != want) return ::testing::AssertionFailure() << "container differs: " << where;
  if (codec.decode(got) != p.bytes) {
    return ::testing::AssertionFailure() << "decode differs: " << where;
  }
  if (codec.decode(got.data(), static_cast<int64_t>(got.size())) != p.bytes) {
    return ::testing::AssertionFailure() << "pointer decode differs: " << where;
  }
  return ::testing::AssertionSuccess();
}

/// Every (codec, chunk size, payload) container against the serial codec's,
/// computed once, at each pool width.
void expect_containers_match(const std::vector<int64_t>& chunk_sizes,
                             const std::vector<Payload>& payloads) {
  struct Case {
    cp::LosslessCodec codec;
    const Payload* payload;
    Bytes want;
  };
  std::vector<Case> cases;
  for (cp::LosslessCodec codec : fastpath_codecs()) {
    for (int64_t chunk : chunk_sizes) {
      codec.chunk_bytes = chunk;
      for (const Payload& p : payloads) {
        cases.push_back({codec, &p,
                         oracle::serial::encode(codec, p.bytes.data(),
                                                static_cast<int64_t>(p.bytes.size()))});
      }
    }
  }
  ThreadGuard tguard;
  for (int width : {1, 2, 4}) {
    core::set_num_threads(width);
    for (const Case& c : cases) {
      ASSERT_TRUE(same_as_serial(c.codec, *c.payload, c.want));
    }
  }
}

TEST(LosslessFastPath, ContainersMatchSerialCodecAtEveryWidth) {
  std::vector<Payload> payloads = small_payloads();
  for (Payload& p : large_payloads()) payloads.push_back(std::move(p));
  expect_containers_match({0, 700, 65536}, payloads);
}

TEST(LosslessFastPath, OneAndSevenByteChunksMatchSerialCodec) {
  expect_containers_match({1, 7}, tiny_payloads());
}

TEST(LosslessFastPath, HuffmanSizeLimitKeepsTheRawFallbackBoundary) {
  // The early exit must skip exactly the planes the serial codec stored raw:
  // a stream of exactly n bytes does not shrink an n-byte plane.
  const cp::LosslessCodec huffman{cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kNone, 0};
  bool saw_equal = false, saw_one_less = false;
  for (int64_t n = 280; n <= 340; ++n) {
    const Bytes p = two_symbols(static_cast<uint64_t>(n), n);
    const auto full = oracle::serial::huffman_encode(p.data(), n);
    ASSERT_TRUE(full.has_value());
    const auto size = static_cast<int64_t>(full->size());
    saw_equal |= size == n;
    saw_one_less |= size == n - 1;
    for (int64_t limit : {size - 1, size, size + 1}) {
      const auto got = cp::detail::huffman_encode(p.data(), n, limit);
      ASSERT_EQ(got.has_value(), limit >= size) << "n " << n << " limit " << limit;
      if (got) {
        EXPECT_EQ(*got, *full);
      }
    }
    // The container's plane-algo byte: Huffman only when strictly smaller.
    const Bytes c = huffman.encode(p);
    const auto algo = static_cast<uint8_t>(c[24 + 8]);
    EXPECT_EQ(algo, size < n ? 2 : 0) << "n " << n;
    EXPECT_EQ(c, oracle::serial::encode(huffman, p.data(), n));
  }
  EXPECT_TRUE(saw_equal && saw_one_less) << "no payload sat on the raw fallback boundary";
}

TEST(LosslessFastPath, RleKernelsMatchSerialCoder) {
  std::vector<Payload> payloads = small_payloads();
  for (Payload& p : large_payloads()) payloads.push_back(std::move(p));
  for (const Payload& p : payloads) {
    const auto n = static_cast<int64_t>(p.bytes.size());
    const Bytes want = oracle::serial::rle_encode(p.bytes.data(), n);
    Bytes got(static_cast<size_t>(cp::detail::rle_bound(n)));
    const int64_t m = cp::detail::rle_encode(p.bytes.data(), n, got.data());
    ASSERT_LE(m, cp::detail::rle_bound(n)) << p.name;
    got.resize(static_cast<size_t>(m));
    ASSERT_EQ(got, want) << p.name;
    for (int stride : {1, 2, 4}) {
      // Decode into every stride-th byte; the bytes between stay untouched.
      Bytes out(static_cast<size_t>(n * stride), std::byte{0x5A});
      cp::detail::rle_decode(got.data(), m, n, out.data(), stride);
      for (int64_t i = 0; i < n * stride; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)],
                  i % stride == 0 ? p.bytes[static_cast<size_t>(i / stride)] : std::byte{0x5A})
            << p.name << " stride " << stride << " at " << i;
      }
    }
    // Malformed streams: every truncation, and every expected size near n.
    for (int64_t cut = 0; cut < std::min<int64_t>(m, 40); ++cut) {
      Bytes out(static_cast<size_t>(n + 1));
      EXPECT_EQ(container_outcome([&] {
                  cp::detail::rle_decode(got.data(), cut, n, out.data());
                  return Bytes(out.begin(), out.begin() + n);
                }),
                container_outcome([&] { return oracle::serial::rle_decode(got.data(), cut, n); }))
          << p.name << " cut " << cut;
    }
    for (int64_t expected : {n - 1, n + 1}) {
      if (expected < 0) continue;
      Bytes out(static_cast<size_t>(n + 1));
      EXPECT_EQ(container_outcome([&] {
                  cp::detail::rle_decode(got.data(), m, expected, out.data());
                  return Bytes(out.begin(), out.begin() + expected);
                }),
                container_outcome(
                    [&] { return oracle::serial::rle_decode(got.data(), m, expected); }))
          << p.name << " expected " << expected;
    }
  }
}

TEST(LosslessFastPath, StridedHuffmanDecodeMatchesContiguous) {
  for (const auto& p : huffman_payloads()) {
    const auto n = static_cast<int64_t>(p.size());
    const auto stream = oracle::huffman_encode(p.data(), n);
    ASSERT_TRUE(stream.has_value());
    for (int stride : {2, 4}) {
      Bytes out(static_cast<size_t>(n * stride), std::byte{0x5A});
      cp::detail::huffman_decode_to(stream->data(), static_cast<int64_t>(stream->size()), n,
                                    out.data(), stride);
      for (int64_t i = 0; i < n * stride; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)],
                  i % stride == 0 ? p[static_cast<size_t>(i / stride)] : std::byte{0x5A})
            << "n " << n << " stride " << stride << " at " << i;
      }
    }
  }
}

cp::SegmentLayoutFn layout_for_setting(cp::Setting s) {
  if (s == cp::Setting::kT3 || s == cp::Setting::kR3) return cp::segments_topk();
  if (s == cp::Setting::kQ2) return cp::segments_quantize();
  return cp::segment_whole(cp::PlaneSplit::kStride2);
}

Bytes bytes_of(const ts::Tensor& t) {
  const std::vector<uint8_t> b = tensor_bytes(t);
  Bytes out(b.size());
  if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
  return out;
}

/// A stacked codec, the same inner codec built from the same seed, and the
/// layout both use.
struct StackedCase {
  cp::Setting setting;
  std::unique_ptr<cp::StackedCompressor> codec;
  cp::CompressorPtr twin;
  cp::SegmentLayoutFn layout;

  StackedCase(cp::Setting s, uint64_t seed, int64_t hidden)
      : setting(s), layout(layout_for_setting(s)) {
    ts::Generator gen(seed), twin_gen(seed);
    codec = std::make_unique<cp::StackedCompressor>(cp::make_compressor(s, hidden, gen),
                                                    cp::LosslessCodec{}, layout);
    twin = cp::make_compressor(s, hidden, twin_gen);
  }

  /// StackedCompressor::decode as it was: the serial stacked decoder, then
  /// the inner codec.
  Bytes serial_decode(const cp::CompressedMessage& msg) const {
    cp::CompressedMessage inner;
    inner.shape_dims = msg.shape_dims;
    inner.body = oracle::serial::stacked_decode(msg, [&](int64_t bytes) {
      return layout(ts::Shape{msg.shape_dims}, bytes).size();
    });
    return bytes_of(codec->inner().decode(inner));
  }
};

TEST(LosslessFastPath, StackedMessagesMatchSerialCodecAtEveryWidth) {
  ThreadGuard tguard;
  for (int width : {1, 2, 4}) {
    core::set_num_threads(width);
    for (cp::Setting s : {cp::Setting::kT3, cp::Setting::kQ2, cp::Setting::kR3,
                          cp::Setting::kA2}) {
      StackedCase c(s, 7, 256);
      ts::Generator gen(5);
      const ts::Tensor x = gen.normal(ts::Shape{48, 256});
      const cp::CompressedMessage msg = c.codec->encode(x);
      const cp::CompressedMessage inner = c.twin->encode(x);
      const std::vector<cp::BodySegment> segs =
          c.layout(x.shape(), static_cast<int64_t>(inner.body.size()));
      ASSERT_EQ(msg.body, oracle::serial::stacked_encode(inner.body, segs, cp::LosslessCodec{}))
          << cp::setting_label(s) << " threads " << width;
      const Bytes got = bytes_of(c.codec->decode(msg));
      EXPECT_EQ(got, c.serial_decode(msg)) << cp::setting_label(s) << " threads " << width;
      EXPECT_EQ(got, bytes_of(c.twin->decode(inner))) << cp::setting_label(s);
    }
  }
}

/// Seeded mutants of valid messages: bit flips, truncations, size fields
/// and Huffman length bytes overwritten with hostile values, and splices.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : gen_(seed) {}

  Bytes mutate(const std::vector<Bytes>& corpus) {
    Bytes m = corpus[below(corpus.size())];
    for (int r = 0, rounds = 1 + static_cast<int>(below(3)); r < rounds; ++r) {
      switch (below(5)) {
        case 0:
          for (int f = 0, flips = 1 + static_cast<int>(below(4)); f < flips && !m.empty(); ++f) {
            m[below(m.size())] ^= static_cast<std::byte>(1u << below(8));
          }
          break;
        case 1:
          m.resize(below(m.size() + 1));
          break;
        case 2:
          if (m.size() >= 8) {
            const uint64_t choices[] = {~uint64_t{0}, uint64_t{1} << 63, uint64_t{1} << 32,
                                        m.size() * uint64_t{600}, m.size() + 1, 0};
            const uint64_t v = choices[below(std::size(choices))];
            std::memcpy(m.data() + below(m.size() - 7), &v, 8);
          }
          break;
        case 3:
          if (!m.empty()) {
            const uint8_t choices[] = {0, 1, 11, 12, 31, 32, 33, 128, 255};
            m[below(m.size())] = static_cast<std::byte>(choices[below(std::size(choices))]);
          }
          break;
        case 4: {
          const Bytes& other = corpus[below(corpus.size())];
          m.resize(below(m.size() + 1));
          m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(below(other.size() + 1)),
                   other.end());
          break;
        }
      }
    }
    return m;
  }

 private:
  size_t below(size_t n) {
    return n == 0 ? 0 : static_cast<size_t>(gen_.randint(0, static_cast<int64_t>(n) - 1));
  }

  ts::Generator gen_;
};

constexpr int kMutants = 5000;

TEST(LosslessFastPath, ContainerMutantsMatchSerialCodecAtEveryWidth) {
  const std::vector<cp::LosslessCodec> codecs = {
      {cp::LosslessAlgo::kRleHuffman, cp::PlaneSplit::kStride2, 0},
      {cp::LosslessAlgo::kRleHuffman, cp::PlaneSplit::kStride4, 700},
      {cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kNone, 0},
      {cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kStride2, 300},
      {cp::LosslessAlgo::kRle, cp::PlaneSplit::kStride2, 64},
      {cp::LosslessAlgo::kRaw, cp::PlaneSplit::kStride2, 0}};
  const std::vector<Bytes> payloads = {fp16_activation(8, 700), skewed_payload(9, 1500, 0.4),
                                       Bytes(600, std::byte{0}), two_symbols(10, 300), Bytes{}};
  std::vector<Bytes> corpus;
  for (const cp::LosslessCodec& codec : codecs) {
    for (const Bytes& p : payloads) corpus.push_back(codec.encode(p));
  }
  // The decoder reads everything from the container header.
  const cp::LosslessCodec decoder;
  Mutator mut(2024);
  std::vector<Bytes> mutants;
  std::vector<std::string> want;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    mutants.push_back(mut.mutate(corpus));
    want.push_back(container_outcome([&] { return oracle::serial::decode(mutants.back()); }));
    rejected += want.back().rfind("ok:", 0) == 0 ? 0 : 1;
  }
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_LT(rejected, kMutants);
  ThreadGuard tguard;
  for (int width : {1, 2, 4}) {
    core::set_num_threads(width);
    for (int i = 0; i < kMutants; ++i) {
      ASSERT_EQ(container_outcome([&] { return decoder.decode(mutants[static_cast<size_t>(i)]); }),
                want[static_cast<size_t>(i)])
          << "mutant " << i << " threads " << width;
    }
  }
}

TEST(LosslessFastPath, StackedMutantsMatchSerialCodecAtEveryWidth) {
  std::vector<StackedCase> cases;
  for (cp::Setting s : {cp::Setting::kT3, cp::Setting::kQ2, cp::Setting::kR3}) {
    cases.emplace_back(s, 11, 64);
  }
  ts::Generator gen(12);
  const ts::Tensor x = gen.normal(ts::Shape{16, 64});
  for (StackedCase& c : cases) {
    std::vector<Bytes> corpus;
    for (int i = 0; i < 3; ++i) corpus.push_back(c.codec->encode(x).body);
    Mutator mut(300 + static_cast<uint64_t>(c.setting));
    std::vector<cp::CompressedMessage> mutants;
    std::vector<std::string> want;
    for (int i = 0; i < kMutants; ++i) {
      cp::CompressedMessage m;
      m.shape_dims = x.shape().dims();
      m.body = mut.mutate(corpus);
      mutants.push_back(std::move(m));
      want.push_back(container_outcome([&] { return c.serial_decode(mutants.back()); }));
    }
    ThreadGuard tguard;
    for (int width : {1, 2, 4}) {
      core::set_num_threads(width);
      for (int i = 0; i < kMutants; ++i) {
        ASSERT_EQ(container_outcome([&] {
                    return bytes_of(c.codec->decode(mutants[static_cast<size_t>(i)]));
                  }),
                  want[static_cast<size_t>(i)])
            << cp::setting_label(c.setting) << " mutant " << i << " threads " << width;
      }
    }
  }
}

TEST(LosslessFastPath, FirstErrorIsTheFirstInWireOrderNotInTime) {
  // Plane 0 holds a long Huffman stream of 64 more symbols than the plane:
  // it fails only once all its symbols are decoded ("trailing bytes").
  // Plane 1's length table has a 33-bit code: it fails at once. Decoded in
  // parallel, plane 1 throws first; the serial decoder reports plane 0.
  const int64_t plane = int64_t{1} << 19;
  const Bytes syms = skewed_payload(5, plane + 64, 0.3);
  const Bytes stream0 = *cp::detail::huffman_encode(syms.data(), plane + 64);
  Bytes stream1(256 + 1024, std::byte{0});
  stream1[0] = std::byte{33};
  Bytes c;
  cp::wire::append_pod<uint8_t>(c, 0xAC);
  cp::wire::append_pod<uint8_t>(c, 1);
  cp::wire::append_pod<uint8_t>(c, static_cast<uint8_t>(cp::LosslessAlgo::kHuffman));
  cp::wire::append_pod<uint8_t>(c, static_cast<uint8_t>(cp::PlaneSplit::kStride2));
  cp::wire::append_pod<uint64_t>(c, static_cast<uint64_t>(2 * plane));
  cp::wire::append_pod<uint32_t>(c, 1);
  cp::wire::append_pod<uint64_t>(c, static_cast<uint64_t>(2 * plane));
  cp::wire::append_pod<uint64_t>(c, 18 + stream0.size() + stream1.size());
  for (const Bytes* s : std::vector<const Bytes*>{&stream0, &stream1}) {
    cp::wire::append_pod<uint8_t>(c, static_cast<uint8_t>(cp::LosslessAlgo::kHuffman));
    cp::wire::append_pod<uint64_t>(c, s->size());
    c.insert(c.end(), s->begin(), s->end());
  }
  const std::string want = container_outcome([&] { return oracle::serial::decode(c); });
  ASSERT_NE(want.find("trailing bytes"), std::string::npos) << want;
  ThreadGuard tguard;
  for (int width : {1, 2, 4}) {
    core::set_num_threads(width);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(container_outcome([&] { return cp::LosslessCodec{}.decode(c); }), want)
          << "threads " << width;
    }
  }
}

}  // namespace
