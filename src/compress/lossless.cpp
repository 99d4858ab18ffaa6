#include "compress/lossless.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "compress/wire.h"
#include "core/threadpool.h"
#include "obs/profiler.h"
#include "tensor/check.h"
#include "tensor/fp16.h"

namespace actcomp::compress {

// The coders move whole little-endian words in and out of the stream.
static_assert(std::endian::native == std::endian::little,
              "the wire formats assume a little-endian host");

namespace {

// ---------------------------------------------------------------------------
// Container constants (normative layout in WIRE_FORMATS.md §4).
// ---------------------------------------------------------------------------

constexpr uint8_t kMagic = 0xAC;
constexpr uint8_t kVersion = 1;
/// Fixed header bytes before the chunk table.
constexpr int64_t kHeaderBytes = 24;
/// Per-plane prefix: u8 plane algo + u64 encoded size.
constexpr int64_t kPlanePrefixBytes = 9;
/// Longest Huffman code the encoder will emit; deeper trees (possible only
/// on adversarial distributions) fall back to the raw plane encoding.
constexpr int kMaxCodeLen = 32;
/// Bits resolved per Huffman decode table lookup (an 8 KiB table).
constexpr int kTableBits = 11;
/// Decoder sanity bound: PackBits expands at most 64x (2 encoded bytes ->
/// up to 128 raw) and Huffman at most 8x (>= 1 bit per symbol), so no valid
/// container's raw payload exceeds 512x its encoded size plus small headers.
constexpr int64_t kMaxExpansion = 512;

constexpr uint64_t kByteLsbs = 0x0101010101010101ull;
constexpr uint64_t kByteMsbs = 0x8080808080808080ull;

/// Bounds-checked reader over a byte span; every violation is a malformed /
/// truncated wire message, reported as std::invalid_argument.
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

template <typename T>
void put(std::byte*& w, T v) {
  std::memcpy(w, &v, sizeof(T));
  w += sizeof(T);
}

uint64_t load_u64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// memcpy that accepts an empty (possibly null) source.
void copy_bytes(std::byte* dst, const std::byte* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n));
}

/// Runs f(std::integral_constant<int, S>) for the plane stride S (1, 2, 4),
/// so the strided loops below compile with a constant step.
template <typename F>
void with_stride(int stride, F&& f) {
  switch (stride) {
    case 1: f(std::integral_constant<int, 1>{}); return;
    case 2: f(std::integral_constant<int, 2>{}); return;
    case 4: f(std::integral_constant<int, 4>{}); return;
  }
  ACTCOMP_ASSERT(false, "plane stride " << stride << " is not 1, 2 or 4");
}

/// Every S-th byte of src (n of them) into contiguous dst.
template <int S>
void gather_strided(const std::byte* src, int64_t n, std::byte* dst) {
  for (int64_t j = 0; j < n; ++j) dst[j] = src[j * S];
}

/// Contiguous src (n bytes) into every S-th byte of dst.
template <int S>
void scatter_strided(const std::byte* src, int64_t n, std::byte* dst) {
  if constexpr (S == 1) {
    copy_bytes(dst, src, n);
  } else {
    for (int64_t j = 0; j < n; ++j) dst[j * S] = src[j];
  }
}

/// A PackBits literal run of len <= 128 bytes. Most runs are full, and a
/// constant-size copy of those inlines where a call with a variable size
/// costs several times as much.
void copy_literal(std::byte* dst, const std::byte* src, int64_t len) {
  if (len == 128) {
    std::memcpy(dst, src, 128);
  } else {
    std::memcpy(dst, src, static_cast<size_t>(len));
  }
}

/// A symbol list with room for the whole byte alphabet: the coders keep
/// their working sets on the stack, so a pool worker running them never
/// allocates.
struct SymbolList {
  std::array<int, 256> v{};
  int n = 0;

  void push_back(int s) { v[static_cast<size_t>(n++)] = s; }
  bool empty() const { return n == 0; }
  size_t size() const { return static_cast<size_t>(n); }
  int* begin() { return v.data(); }
  int* end() { return v.data() + n; }
  const int* begin() const { return v.data(); }
  const int* end() const { return v.data() + n; }
  int operator[](size_t i) const { return v[i]; }
};

/// Symbols with a nonzero length, sorted by (length, symbol): canonical order.
SymbolList canonical_order(const uint8_t lens[256]) {
  SymbolList syms;
  for (int s = 0; s < 256; ++s) {
    if (lens[s] > 0) syms.push_back(s);
  }
  std::sort(syms.begin(), syms.end(), [&](int a, int b) {
    if (lens[a] != lens[b]) return lens[a] < lens[b];
    return a < b;
  });
  return syms;
}

// ---------------------------------------------------------------------------
// PackBits run-length coding (WIRE_FORMATS.md §4.4).
//
//   control c in [0, 127]   : literal run, copy the next c+1 bytes
//   control c in [129, 255] : repeat the next byte 257-c times (2..128)
//   control 128             : reserved, rejected on decode
//
// The encoder emits a repeat wherever three equal bytes start, else extends
// the literal run. A literal run therefore ends exactly at the next triple
// start, which next_triple() finds eight candidate positions per step.
// ---------------------------------------------------------------------------

/// Length of the run of p[i] starting at i, capped at 128 and at n.
int64_t run_length(const std::byte* p, int64_t i, int64_t n) {
  const int64_t cap = std::min<int64_t>(128, n - i);
  const uint64_t rep = kByteLsbs * static_cast<uint8_t>(p[i]);
  int64_t run = 1;
  for (; run + 8 <= cap; run += 8) {
    const uint64_t diff = load_u64(p + i + run) ^ rep;
    if (diff != 0) return run + (std::countr_zero(diff) >> 3);
  }
  while (run < cap && p[i + run] == p[i]) ++run;
  return run;
}

/// First j >= i with p[j] == p[j+1] == p[j+2] and j + 2 < n, else n.
int64_t next_triple(const std::byte* p, int64_t i, int64_t n) {
  // Byte k of `d` is zero iff a triple starts at i + k. The zero-byte test
  // can flag a byte above a real zero (borrow), never below one, so its
  // lowest flag is exact. Reading p[i + 2, i + 10) keeps all eight
  // candidates j <= i + 7 inside j + 2 < n.
  for (; i + 10 <= n; i += 8) {
    const uint64_t a = load_u64(p + i);
    const uint64_t d = (a ^ load_u64(p + i + 1)) | (a ^ load_u64(p + i + 2));
    const uint64_t zero = (d - kByteLsbs) & ~d & kByteMsbs;
    if (zero != 0) return i + (std::countr_zero(zero) >> 3);
  }
  for (; i + 2 < n; ++i) {
    if (p[i] == p[i + 1] && p[i] == p[i + 2]) return i;
  }
  return n;
}

/// PackBits decode into out[0], out[S], ...; see detail::rle_decode.
template <int S>
void rle_decode_strided(const std::byte* p, int64_t n, int64_t expected,
                        std::byte* out) {
  int64_t i = 0;
  int64_t got = 0;
  while (i < n) {
    const auto c = static_cast<uint8_t>(p[i++]);
    if (c <= 127) {
      const int64_t len = c + 1;
      ACTCOMP_CHECK(i + len <= n, "truncated RLE literal run on wire");
      ACTCOMP_CHECK(got + len <= expected,
                    "RLE stream overruns its declared plane size");
      if constexpr (S == 1) {
        copy_literal(out + got, p + i, len);
      } else {
        scatter_strided<S>(p + i, len, out + got * S);
      }
      i += len;
      got += len;
    } else {
      ACTCOMP_CHECK(c != 128, "reserved RLE control byte 128 on wire");
      ACTCOMP_CHECK(i < n, "truncated RLE repeat run on wire");
      const int64_t len = 257 - c;
      ACTCOMP_CHECK(got + len <= expected,
                    "RLE stream overruns its declared plane size");
      const std::byte v = p[i++];
      if constexpr (S == 1) {
        std::memset(out + got, static_cast<int>(v), static_cast<size_t>(len));
      } else {
        for (int64_t j = 0; j < len; ++j) out[(got + j) * S] = v;
      }
      got += len;
    }
  }
  ACTCOMP_CHECK(got == expected,
                "RLE stream decodes to " << got << " bytes, expected " << expected);
}

}  // namespace

namespace detail {

int64_t rle_bound(int64_t n) {
  // A literal run of L bytes costs ceil(L / 128) control bytes; every repeat
  // between two literal runs saves at least one byte, so the stream exceeds
  // its input by at most floor(n / 128) + 1.
  return n + n / 128 + 1;
}

int64_t rle_encode(const std::byte* p, int64_t n, std::byte* out) {
  std::byte* w = out;
  int64_t i = 0;
  while (i < n) {
    const int64_t run = run_length(p, i, n);
    if (run >= 3) {
      *w++ = static_cast<std::byte>(257 - run);
      *w++ = p[i];
      i += run;
      continue;
    }
    // p[i] starts no triple, so the literal run reaches the next one.
    const int64_t lit = i;
    i = next_triple(p, i + 1, n);
    for (int64_t b = lit; b < i; b += 128) {
      const int64_t len = std::min<int64_t>(128, i - b);
      *w++ = static_cast<std::byte>(len - 1);
      copy_literal(w, p + b, len);
      w += len;
    }
  }
  return w - out;
}

void rle_decode(const std::byte* p, int64_t n, int64_t expected, std::byte* out,
                int stride) {
  with_stride(stride, [&](auto s) {
    rle_decode_strided<decltype(s)::value>(p, n, expected, out);
  });
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Canonical order-0 Huffman over bytes (WIRE_FORMATS.md §4.5).
//
// Stream = u8 code_length[256], then the symbols' codes packed MSB-first
// into an LSB-first bit accumulator (bit k of the stream is byte k/8, bit
// k%8). Symbol count is implied by the plane's raw size, so the stream
// carries no explicit count; trailing pad bits fill the final byte.
// ---------------------------------------------------------------------------

/// Code lengths via the two-queue method over (count, symbol)-sorted leaves;
/// fully deterministic. Returns false when the tree exceeds kMaxCodeLen
/// (encoder then falls back to the raw plane).
bool huffman_lengths(const int64_t counts[256], uint8_t lens[256]) {
  std::fill(lens, lens + 256, uint8_t{0});
  struct Node {
    int64_t weight;
    int left, right;  // -1 for leaves
    int symbol;
  };
  std::array<Node, 511> nodes;  // 256 leaves + 255 internal nodes
  int nnodes = 0;
  SymbolList leaves;  // node ids, sorted by (weight, symbol)
  for (int s = 0; s < 256; ++s) {
    if (counts[s] > 0) {
      nodes[static_cast<size_t>(nnodes)] = {counts[s], -1, -1, s};
      leaves.push_back(nnodes++);
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
  SymbolList internal;
  size_t li = 0, ii = 0;
  auto pop_min = [&]() {
    // Ties prefer the leaf queue — a fixed rule keeps the tree deterministic.
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
    nodes[static_cast<size_t>(nnodes)] = {
        nodes[static_cast<size_t>(a)].weight + nodes[static_cast<size_t>(b)].weight,
        a, b, -1};
    internal.push_back(nnodes++);
  }
  // Depth-first walk assigning depths; the stack never holds more than the
  // tree's < 512 nodes.
  struct Frame {
    int node;
    int depth;
  };
  std::array<Frame, 511> stack;
  size_t top = 0;
  stack[top++] = {pop_min(), 0};
  while (top > 0) {
    const Frame f = stack[--top];
    const Node& nd = nodes[static_cast<size_t>(f.node)];
    if (nd.left < 0) {
      if (f.depth > kMaxCodeLen) return false;
      lens[nd.symbol] = static_cast<uint8_t>(std::max(1, f.depth));
    } else {
      stack[top++] = {nd.left, f.depth + 1};
      stack[top++] = {nd.right, f.depth + 1};
    }
  }
  return true;
}

/// Canonical code assignment from lengths: symbols sorted by (length,
/// symbol); codes count upward, shifting left at each length step. Returns
/// false on an inconsistent (over-full) length table.
bool canonical_codes(const uint8_t lens[256], uint32_t codes[256]) {
  const SymbolList syms = canonical_order(lens);
  uint64_t code = 0;
  int prev_len = syms.empty() ? 0 : lens[syms[0]];
  for (const int s : syms) {
    code <<= (lens[s] - prev_len);
    prev_len = lens[s];
    if (code >> lens[s]) return false;  // over-full: not a prefix code
    codes[s] = static_cast<uint32_t>(code);
    ++code;
  }
  return true;
}

/// The 32 bits of x in reverse order.
uint32_t reverse32(uint32_t x) {
  x = ((x >> 1) & 0x55555555u) | ((x & 0x55555555u) << 1);
  x = ((x >> 2) & 0x33333333u) | ((x & 0x33333333u) << 2);
  x = ((x >> 4) & 0x0F0F0F0Fu) | ((x & 0x0F0F0F0Fu) << 4);
  return __builtin_bswap32(x);
}

/// The low `len` bits of code in reverse order (a code read MSB-first,
/// as the LSB-first stream holds it).
uint32_t reverse_bits(uint32_t code, int len) {
  return len == 0 ? 0 : reverse32(code) >> (32 - len);
}

/// Byte histogram over four interleaved tables, so repeated symbols do not
/// serialize on one counter.
void histogram(const std::byte* p, int64_t n, int64_t counts[256]) {
  int64_t part[4][256] = {};
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++part[0][static_cast<uint8_t>(p[i])];
    ++part[1][static_cast<uint8_t>(p[i + 1])];
    ++part[2][static_cast<uint8_t>(p[i + 2])];
    ++part[3][static_cast<uint8_t>(p[i + 3])];
  }
  for (; i < n; ++i) ++part[0][static_cast<uint8_t>(p[i])];
  for (int s = 0; s < 256; ++s) {
    counts[s] = part[0][s] + part[1][s] + part[2][s] + part[3][s];
  }
}

/// A plane's canonical code and the exact size of its stream.
struct HuffmanCode {
  uint8_t lens[256];
  uint32_t rev[256];  ///< codes bit-reversed for the LSB-first accumulator
  int64_t bytes;      ///< length table + packed bits
};

/// False when the tree is deeper than kMaxCodeLen.
bool huffman_code(const std::byte* p, int64_t n, HuffmanCode& hc) {
  int64_t counts[256];
  histogram(p, n, counts);
  if (!huffman_lengths(counts, hc.lens)) return false;
  uint32_t codes[256] = {};
  if (!canonical_codes(hc.lens, codes)) return false;
  uint64_t total_bits = 0;
  for (int s = 0; s < 256; ++s) {
    hc.rev[s] = reverse_bits(codes[s], hc.lens[s]);
    total_bits += static_cast<uint64_t>(counts[s]) * hc.lens[s];
  }
  hc.bytes = 256 + static_cast<int64_t>((total_bits + 7) / 8);
  return true;
}

/// Writes exactly hc.bytes bytes.
void huffman_emit(const HuffmanCode& hc, const std::byte* p, int64_t n,
                  std::byte* out) {
  for (int s = 0; s < 256; ++s) out[s] = static_cast<std::byte>(hc.lens[s]);
  std::byte* w = out + 256;
  std::byte* const end = out + hc.bytes;
  uint64_t acc = 0;
  int nbits = 0;
  int64_t i = 0;
  // While eight bytes of room remain, store the whole accumulator and keep
  // only its partial byte. Two codes of up to 28 bits each fit next to the
  // pending 7 bits, so such codes go two per store; longer ones one (at
  // most 7 + 32 bits pending).
  if (*std::max_element(hc.lens, hc.lens + 256) <= 28) {
    for (; i + 2 <= n && end - w >= 8; i += 2) {
      const auto s0 = static_cast<uint8_t>(p[i]);
      const auto s1 = static_cast<uint8_t>(p[i + 1]);
      const uint64_t codes = static_cast<uint64_t>(hc.rev[s0]) |
                             static_cast<uint64_t>(hc.rev[s1]) << hc.lens[s0];
      acc |= codes << nbits;
      nbits += hc.lens[s0] + hc.lens[s1];
      std::memcpy(w, &acc, 8);
      w += nbits >> 3;
      acc >>= nbits & ~7;
      nbits &= 7;
    }
  }
  for (; i < n && end - w >= 8; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(hc.rev[s]) << nbits;
    nbits += hc.lens[s];
    std::memcpy(w, &acc, 8);
    w += nbits >> 3;
    acc >>= nbits & ~7;
    nbits &= 7;
  }
  for (; i < n; ++i) {
    const auto s = static_cast<uint8_t>(p[i]);
    acc |= static_cast<uint64_t>(hc.rev[s]) << nbits;
    nbits += hc.lens[s];
    for (; nbits >= 8; nbits -= 8) {
      *w++ = static_cast<std::byte>(acc & 0xFFu);
      acc >>= 8;
    }
  }
  if (nbits > 0) *w++ = static_cast<std::byte>(acc & 0xFFu);
}

/// The decode tables of one Huffman stream (built by huffman_decode_to).
struct DecodeTables {
  /// Over the next kTableBits stream bits: sym1 | sym2 << 8 | len1 << 16 |
  /// (len1 + len2) << 24 when two codes fit, len2 = 0 when only the first
  /// does, 0 when no code of length <= kTableBits starts there.
  uint32_t pair[1 << kTableBits];
  /// (first[l] + count[l]) << (32 - l): with no shorter code matching, a
  /// code of length l starts iff the next 32 stream bits, read MSB-first,
  /// are below this (canonical codes of length l + 1 begin at
  /// (first[l] + count[l]) << 1).
  uint64_t limit[kMaxCodeLen + 1];
  uint32_t first[kMaxCodeLen + 1];
  uint32_t offset[kMaxCodeLen + 1];
  SymbolList syms;
};

/// The table-driven part of Huffman decoding: decodes from (bitpos, i)
/// while a full 8-byte window is readable and ten output symbols remain.
/// The window then holds >= 57 unread bits, enough for five lookups of at
/// most kTableBits bits each, which emit at most ten symbols. A code longer
/// than the table is found from the canonical limits. Returns early where
/// no code matches, leaving that position (and its error) to the bit walk.
template <int S>
void huffman_table_decode(const DecodeTables& t, const std::byte* bits,
                          int64_t nbytes, int64_t expected, std::byte* out,
                          int64_t& bitpos_io, int64_t& i_io) {
  constexpr uint32_t kMask = (1u << kTableBits) - 1;
  int64_t bitpos = bitpos_io;
  int64_t i = i_io;
  bool stop = false;
  while (!stop && (bitpos >> 3) + 8 <= nbytes && i + 10 <= expected) {
    uint64_t window = load_u64(bits + (bitpos >> 3)) >> (bitpos & 7);
    uint32_t used = 0;
    for (int k = 0; k < 5; ++k) {
      const uint32_t e = t.pair[window & kMask];
      if (e == 0) {
        // No code of <= kTableBits bits starts here. At most eight
        // symbols are out this round, so one more still fits in the ten,
        // and a full window puts the next 32 bits in reach.
        bitpos += used;
        used = 0;
        if ((bitpos >> 3) + 8 > nbytes) {
          stop = true;
          break;
        }
        const uint32_t v = reverse32(static_cast<uint32_t>(
            load_u64(bits + (bitpos >> 3)) >> (bitpos & 7)));
        int len = kTableBits + 1;
        while (len <= kMaxCodeLen && v >= t.limit[len]) ++len;
        if (len > kMaxCodeLen) {
          stop = true;
          break;
        }
        const uint32_t code = v >> (32 - len);
        out[i++ * S] =
            static_cast<std::byte>(t.syms[t.offset[len] + (code - t.first[len])]);
        bitpos += len;
        break;
      }
      if constexpr (S == 1) {
        const auto two = static_cast<uint16_t>(e);
        std::memcpy(out + i, &two, 2);
      } else {
        out[i * S] = static_cast<std::byte>(e & 0xFF);
        out[(i + 1) * S] = static_cast<std::byte>((e >> 8) & 0xFF);
      }
      const uint32_t len = e >> 24;
      i += len == ((e >> 16) & 0xFF) ? 1 : 2;
      window >>= len;
      used += len;
    }
    bitpos += used;
  }
  bitpos_io = bitpos;
  i_io = i;
}

}  // namespace

namespace detail {

int64_t huffman_encode_to(const std::byte* p, int64_t n, int64_t limit,
                          std::byte* out) {
  HuffmanCode hc;
  if (!huffman_code(p, n, hc) || hc.bytes > limit) return -1;
  huffman_emit(hc, p, n, out);
  return hc.bytes;
}

std::optional<std::vector<std::byte>> huffman_encode(const std::byte* p,
                                                     int64_t n, int64_t limit) {
  HuffmanCode hc;
  if (!huffman_code(p, n, hc) || hc.bytes > limit) return std::nullopt;
  std::vector<std::byte> out(static_cast<size_t>(hc.bytes));
  huffman_emit(hc, p, n, out.data());
  return out;
}

void huffman_decode_to(const std::byte* p, int64_t n, int64_t expected,
                       std::byte* out, int stride) {
  ACTCOMP_CHECK(n >= 256, "truncated Huffman length table on wire");
  uint8_t lens[256];
  for (int s = 0; s < 256; ++s) {
    lens[s] = static_cast<uint8_t>(p[s]);
    ACTCOMP_CHECK(lens[s] <= kMaxCodeLen,
                  "Huffman code length " << int{lens[s]} << " exceeds limit "
                                         << kMaxCodeLen);
  }
  // Canonical tables: per length, the first code, symbol count, and the
  // offset into the (length, symbol)-sorted symbol array.
  DecodeTables t;
  t.syms = canonical_order(lens);
  const SymbolList& syms = t.syms;
  ACTCOMP_CHECK(!syms.empty() || expected == 0,
                "empty Huffman alphabet for a non-empty plane");
  uint32_t* const first = t.first;
  uint32_t count[kMaxCodeLen + 1] = {};
  uint32_t* const offset = t.offset;
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
      t.limit[l] = code << (32 - l);
    }
  }

  // One-symbol table over the next kTableBits stream bits (bit 0 = the next
  // bit, i.e. the code's MSB): symbol | length << 8 for every window that
  // starts with a code of length <= kTableBits, 0 otherwise. The check above
  // rejected over-full tables, so the canonical codes are prefix-free and a
  // hit is exactly the symbol the bit walk below finds after `length` bits.
  uint16_t single[1 << kTableBits] = {};
  for (int l = 1; l <= kTableBits; ++l) {
    for (uint32_t c = 0; c < count[l]; ++c) {
      const uint32_t rev = reverse_bits(first[l] + c, l);
      const auto entry = static_cast<uint16_t>(syms[offset[l] + c] | (l << 8));
      for (uint32_t hi = 0; hi < (1u << (kTableBits - l)); ++hi) {
        single[rev | (hi << l)] = entry;
      }
    }
  }
  // The two-symbol table: the second code is matched on the window's bits
  // after the first, which are real stream bits for every code of length
  // <= kTableBits - len1, so it is taken only when it is that short.
  for (uint32_t w = 0; w < (1u << kTableBits); ++w) {
    const uint32_t e1 = single[w];
    const uint32_t l1 = e1 >> 8;
    uint32_t entry = e1 == 0 ? 0 : (e1 & 0xFF) | l1 << 16 | l1 << 24;
    if (e1 != 0 && l1 < kTableBits) {
      const uint32_t e2 = single[w >> l1];
      const uint32_t l2 = e2 >> 8;
      if (e2 != 0 && l1 + l2 <= kTableBits) {
        entry = (e1 & 0xFF) | (e2 & 0xFF) << 8 | l1 << 16 | (l1 + l2) << 24;
      }
    }
    t.pair[w] = entry;
  }

  const std::byte* bits = p + 256;
  const int64_t nbytes = n - 256;
  const int64_t nbits_total = nbytes * 8;
  with_stride(stride, [&](auto st) {
    constexpr int S = decltype(st)::value;
    int64_t bitpos = 0;
    int64_t i = 0;
    while (i < expected) {
      huffman_table_decode<S>(t, bits, nbytes, expected, out, bitpos, i);
      if (i == expected) break;
      // Canonical bit walk for one symbol: the stream tail and every
      // malformed stream take this path, so the tables change no
      // accept/reject decision, bit count or exception.
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
        // Compare by difference: first + count wraps to 0 for the all-ones
        // 32-bit code, the last code of any complete 32-bit-deep tree.
        if (code >= first[len] && code - first[len] < count[len]) {
          out[i++ * S] = static_cast<std::byte>(syms[offset[len] + (code - first[len])]);
          break;
        }
      }
    }
    ACTCOMP_CHECK((bitpos + 7) / 8 == n - 256,
                  "Huffman bitstream has trailing bytes on wire");
  });
}

std::vector<std::byte> huffman_decode(const std::byte* p, int64_t n,
                                      int64_t expected) {
  std::vector<std::byte> out(static_cast<size_t>(expected));
  huffman_decode_to(p, n, expected, out.data());
  return out;
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Unit-parallel container coding (DESIGN.md §16).
//
// Each (chunk, plane) of a container is an independent coding unit: it
// reads its own input bytes and writes its own output bytes. All units of
// one or more containers (a stacked message's segments) are coded in one
// parallel_for. The calling thread sizes every buffer before the pass, so
// the pool workers only write into memory it allocated, and lays the units
// out in wire order after it. The bytes are those of coding each plane in
// turn.
// ---------------------------------------------------------------------------

int64_t plane_raw_len(int64_t chunk_len, int stride, int plane) {
  return chunk_len / stride + (plane < chunk_len % stride ? 1 : 0);
}

struct EncodeUnit {
  const std::byte* chunk;  ///< the chunk's first byte
  int plane;
  int stride;
  LosslessAlgo algo;
  int64_t raw;         ///< plane bytes
  int64_t at;          ///< output offset of the prefix, raw-fallback layout
  int64_t scratch_at;  ///< scratch offset
  int64_t coded = 0;   ///< payload bytes written (set by the pass)
};

/// Scratch a unit needs besides its output slot, which holds the gathered
/// plane: the PackBits stream, or the Huffman stream of a gathered plane.
int64_t encode_scratch(LosslessAlgo algo, int stride, int64_t raw) {
  switch (algo) {
    case LosslessAlgo::kRaw: return 0;
    case LosslessAlgo::kHuffman: return stride > 1 ? raw : 0;
    case LosslessAlgo::kRle:
    case LosslessAlgo::kRleHuffman: return detail::rle_bound(raw);
  }
  return 0;
}

/// Codes one plane into dst (prefix + at most `raw` payload bytes) under the
/// container's algo, falling back to raw whenever coding would not shrink
/// it. A Huffman stream is sized before it is emitted, so a plane that
/// falls back skips the emission.
void encode_unit(EncodeUnit& u, std::byte* dst, std::byte* scratch) {
  std::byte* const payload = dst + kPlanePrefixBytes;
  const int64_t n = u.raw;
  const std::byte* plane = u.chunk;
  if (u.stride > 1 && n > 0) {
    with_stride(u.stride, [&](auto s) {
      gather_strided<decltype(s)::value>(u.chunk + u.plane, n, payload);
    });
    plane = payload;
  }
  int64_t len = -1;
  switch (u.algo) {
    case LosslessAlgo::kRaw:
      break;
    case LosslessAlgo::kRle: {
      const int64_t m = detail::rle_encode(plane, n, scratch);
      if (m < n) {
        copy_bytes(payload, scratch, m);
        len = m;
      }
      break;
    }
    case LosslessAlgo::kHuffman: {
      if (n <= 256) break;  // the length table alone is 256 bytes
      std::byte* to = plane == payload ? scratch : payload;
      len = detail::huffman_encode_to(plane, n, n - 1, to);
      if (len >= 0 && to != payload) copy_bytes(payload, to, len);
      break;
    }
    case LosslessAlgo::kRleHuffman: {
      if (n <= 8 + 256) break;  // the size prefix and length table alone
      const int64_t m = detail::rle_encode(plane, n, scratch);
      const int64_t h = detail::huffman_encode_to(scratch, m, n - 9, payload + 8);
      if (h >= 0) {
        std::byte* w = payload;
        put<uint64_t>(w, static_cast<uint64_t>(m));
        len = 8 + h;
      }
      break;
    }
  }
  LosslessAlgo used = u.algo;
  if (len < 0) {
    used = LosslessAlgo::kRaw;
    len = n;
    if (plane != payload) copy_bytes(payload, plane, n);
  }
  std::byte* w = dst;
  put<uint8_t>(w, static_cast<uint8_t>(used));
  put<uint64_t>(w, static_cast<uint64_t>(len));
  u.coded = len;
}

/// Containers coded together: add() each payload, then run() once.
class EncodeBatch {
 public:
  void add(const LosslessCodec& codec, const std::byte* data, int64_t n) {
    ACTCOMP_CHECK(n >= 0, "negative payload size");
    ACTCOMP_CHECK(n == 0 || data != nullptr, "null payload");
    Container c;
    c.codec = codec;
    c.raw = n;
    c.chunks = codec.num_chunks(n);
    c.chunk_raw = c.chunks == 1 ? n : codec.chunk_bytes;
    c.first_unit = units_.size();
    const int stride = plane_count(codec.split);
    int64_t at = bound_ + kHeaderBytes + 8 * c.chunks;
    for (int k = 0; k < c.chunks; ++k) {
      const int64_t begin = static_cast<int64_t>(k) * c.chunk_raw;
      const int64_t len = std::min(c.chunk_raw, n - begin);
      for (int plane = 0; plane < stride; ++plane) {
        const int64_t raw = plane_raw_len(len, stride, plane);
        units_.push_back({data + begin, plane, stride, codec.algo, raw, at,
                          scratch_});
        at += kPlanePrefixBytes + raw;
        scratch_ += encode_scratch(codec.algo, stride, raw);
      }
    }
    c.units = units_.size() - c.first_unit;
    containers_.push_back(c);
    bound_ = at;  // += codec.max_encoded_bytes(n)
  }

  /// Appends the containers to `out`, back to back; returns their sizes.
  std::vector<int64_t> run(std::vector<std::byte>& out) {
    // Each unit codes into its raw-fallback slot of an uninitialized work
    // buffer. The scratch goes before the output is sized, so the output
    // can take its pages; the output is then sized exactly and filled in
    // wire order: each header and chunk table, then the units' prefixes
    // and payloads copied out of their slots.
    auto scratch =
        std::make_unique_for_overwrite<std::byte[]>(static_cast<size_t>(scratch_));
    const auto slots =
        std::make_unique_for_overwrite<std::byte[]>(static_cast<size_t>(bound_));
    core::parallel_for(0, static_cast<int64_t>(units_.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           EncodeUnit& u = units_[static_cast<size_t>(i)];
                           encode_unit(u, slots.get() + u.at,
                                       scratch.get() + u.scratch_at);
                         }
                       });
    scratch.reset();
    std::vector<int64_t> sizes;
    int64_t total = 0;
    for (const Container& c : containers_) {
      int64_t size = kHeaderBytes + 8 * c.chunks;
      for (size_t i = c.first_unit; i < c.first_unit + c.units; ++i) {
        size += kPlanePrefixBytes + units_[i].coded;
      }
      sizes.push_back(size);
      total += size;
    }
    const size_t base = out.size();
    out.resize(base + static_cast<size_t>(total));
    std::byte* w = out.data() + base;
    for (const Container& c : containers_) {
      put<uint8_t>(w, kMagic);
      put<uint8_t>(w, kVersion);
      put<uint8_t>(w, static_cast<uint8_t>(c.codec.algo));
      put<uint8_t>(w, static_cast<uint8_t>(c.codec.split));
      put<uint64_t>(w, static_cast<uint64_t>(c.raw));
      put<uint32_t>(w, static_cast<uint32_t>(c.chunks));
      put<uint64_t>(w, static_cast<uint64_t>(c.chunk_raw));
      const size_t stride = c.units / static_cast<size_t>(c.chunks);
      for (size_t k = 0; k < c.units; k += stride) {
        int64_t chunk_size = 0;
        for (size_t i = k; i < k + stride; ++i) {
          chunk_size += kPlanePrefixBytes + units_[c.first_unit + i].coded;
        }
        put<uint64_t>(w, static_cast<uint64_t>(chunk_size));
      }
      for (size_t i = c.first_unit; i < c.first_unit + c.units; ++i) {
        const EncodeUnit& u = units_[i];
        copy_bytes(w, slots.get() + u.at, kPlanePrefixBytes + u.coded);
        w += kPlanePrefixBytes + u.coded;
      }
    }
    return sizes;
  }

 private:
  struct Container {
    LosslessCodec codec;
    int64_t raw = 0;
    int chunks = 1;
    int64_t chunk_raw = 0;
    size_t first_unit = 0;
    size_t units = 0;
  };

  std::vector<Container> containers_;
  std::vector<EncodeUnit> units_;
  int64_t bound_ = 0;
  int64_t scratch_ = 0;
};

struct DecodeUnit {
  LosslessAlgo algo;
  const std::byte* coded;
  int64_t coded_len;
  int64_t expected;    ///< plane bytes
  int64_t out_at;      ///< output offset of the plane's first byte
  int stride;
  int64_t scratch_at;  ///< the Huffman-decoded PackBits stream (rle+huffman)
};

/// The PackBits stream size an rle+huffman plane declares, if decode would
/// accept it; 0 otherwise (the unit then throws before touching scratch).
int64_t declared_rle_len(const std::byte* p, int64_t n) {
  if (n < 8) return 0;
  const auto rle_len = static_cast<int64_t>(load_u64(p));
  return rle_len >= 0 && rle_len <= kMaxExpansion * (n - 8) + 8 ? rle_len : 0;
}

void decode_unit(const DecodeUnit& u, std::byte* out, std::byte* scratch) {
  const std::byte* p = u.coded;
  const int64_t n = u.coded_len;
  // An empty plane writes nothing (and an empty output may be null).
  std::byte* dst = u.expected > 0 ? out + u.out_at : nullptr;
  switch (u.algo) {
    case LosslessAlgo::kRaw:
      ACTCOMP_CHECK(n == u.expected, "raw plane size mismatch on wire");
      with_stride(u.stride, [&](auto s) {
        scatter_strided<decltype(s)::value>(p, n, dst);
      });
      return;
    case LosslessAlgo::kRle:
      detail::rle_decode(p, n, u.expected, dst, u.stride);
      return;
    case LosslessAlgo::kHuffman:
      detail::huffman_decode_to(p, n, u.expected, dst, u.stride);
      return;
    case LosslessAlgo::kRleHuffman: {
      ByteReader r{p, n};
      const auto rle_len = static_cast<int64_t>(r.get<uint64_t>());
      ACTCOMP_CHECK(rle_len >= 0 && rle_len <= kMaxExpansion * (n - r.off) + 8,
                    "implausible RLE stream size on wire");
      std::byte* rle = scratch + u.scratch_at;
      detail::huffman_decode_to(p + r.off, n - r.off, rle_len, rle);
      detail::rle_decode(rle, rle_len, u.expected, dst, u.stride);
      return;
    }
  }
  ACTCOMP_CHECK(false, "unknown plane algo id on wire");
}

/// Containers decoded together. add() parses one container's header, chunk
/// table and plane prefixes on the calling thread, with the serial
/// decoder's checks in its order; run() decodes the planes.
class DecodeBatch {
 public:
  void add(const std::byte* p, int64_t n) {
    ByteReader r{p, n};
    ACTCOMP_CHECK(r.get<uint8_t>() == kMagic, "bad lossless container magic");
    ACTCOMP_CHECK(r.get<uint8_t>() == kVersion,
                  "unsupported lossless container version");
    const auto algo_id = r.get<uint8_t>();
    ACTCOMP_CHECK(algo_id <= static_cast<uint8_t>(LosslessAlgo::kRleHuffman),
                  "unknown lossless algo id " << int{algo_id});
    const auto split_id = r.get<uint8_t>();
    ACTCOMP_CHECK(split_id <= static_cast<uint8_t>(PlaneSplit::kStride4),
                  "unknown plane split id " << int{split_id});
    const auto raw = static_cast<int64_t>(r.get<uint64_t>());
    ACTCOMP_CHECK(raw >= 0 && raw <= kMaxExpansion * n,
                  "implausible raw payload size on wire");
    const auto chunks = static_cast<int64_t>(r.get<uint32_t>());
    ACTCOMP_CHECK(chunks >= 1, "lossless container needs >= 1 chunk");
    const auto chunk_raw = static_cast<int64_t>(r.get<uint64_t>());
    if (chunks == 1) {
      ACTCOMP_CHECK(chunk_raw == raw,
                    "single-chunk container must have chunk_raw == raw_bytes");
    } else {
      ACTCOMP_CHECK(chunk_raw >= 1, "multi-chunk container needs chunk_raw >= 1");
      // chunk_raw·(n-1) < raw <= chunk_raw·n, i.e. n = ceil(raw / chunk_raw),
      // in a form a hostile chunk_raw cannot overflow.
      ACTCOMP_CHECK(chunk_raw <= raw && chunks == (raw + chunk_raw - 1) / chunk_raw,
                    "chunk table inconsistent with raw_bytes");
    }
    ACTCOMP_CHECK(chunks <= (r.n - r.off) / 8, "truncated lossless container");
    std::vector<int64_t> sizes(static_cast<size_t>(chunks));
    int64_t total = 0;
    for (auto& s : sizes) {
      s = static_cast<int64_t>(r.get<uint64_t>());
      ACTCOMP_CHECK(s >= 0 && s <= n, "chunk size out of range on wire");
      total += s;
    }
    ACTCOMP_CHECK(r.off + total == n,
                  "container size does not match its chunk table (truncated or "
                  "trailing bytes)");

    const int64_t base = raw_;
    raw_ += raw;
    const auto algo = static_cast<LosslessAlgo>(algo_id);
    const int stride = plane_count(static_cast<PlaneSplit>(split_id));
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t expected =
          c + 1 == chunks ? raw - chunk_raw * (chunks - 1) : chunk_raw;
      const std::byte* q = r.take(sizes[static_cast<size_t>(c)]);
      add_chunk(q, sizes[static_cast<size_t>(c)], expected, algo, stride,
                base + c * chunk_raw);
    }
  }

  /// Raw bytes of the containers added so far.
  int64_t raw_bytes() const { return raw_; }

  /// Decodes every added plane into out[0, raw_bytes()). Rethrows the error
  /// of the first failing plane in wire order, whichever failed first in
  /// time.
  void run(std::byte* out) {
    if (units_.empty()) return;
    const auto scratch =
        std::make_unique_for_overwrite<std::byte[]>(static_cast<size_t>(scratch_));
    std::vector<std::exception_ptr> errors(units_.size());
    core::parallel_for(0, static_cast<int64_t>(units_.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           try {
                             decode_unit(units_[static_cast<size_t>(i)], out,
                                         scratch.get());
                           } catch (...) {
                             errors[static_cast<size_t>(i)] = std::current_exception();
                           }
                         }
                       });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  void add_chunk(const std::byte* p, int64_t n, int64_t expected_raw,
                 LosslessAlgo container_algo, int stride, int64_t out_at) {
    ByteReader r{p, n};
    for (int plane = 0; plane < stride; ++plane) {
      const auto algo_id = r.get<uint8_t>();
      ACTCOMP_CHECK(algo_id == static_cast<uint8_t>(LosslessAlgo::kRaw) ||
                        algo_id == static_cast<uint8_t>(container_algo),
                    "plane algo id " << int{algo_id}
                                     << " is neither raw nor the container's");
      const auto coded_len = static_cast<int64_t>(r.get<uint64_t>());
      const std::byte* coded = r.take(coded_len);
      const int64_t expected = plane_raw_len(expected_raw, stride, plane);
      ACTCOMP_CHECK(expected <= kMaxExpansion * coded_len + 8,
                    "implausible plane expansion on wire");
      const auto algo = static_cast<LosslessAlgo>(algo_id);
      units_.push_back({algo, coded, coded_len, expected, out_at + plane, stride,
                        scratch_});
      if (algo == LosslessAlgo::kRleHuffman) {
        scratch_ += declared_rle_len(coded, coded_len);
      }
    }
    ACTCOMP_CHECK(r.off == n, "trailing bytes after the chunk's last plane");
  }

  std::vector<DecodeUnit> units_;
  int64_t raw_ = 0;
  int64_t scratch_ = 0;
};

/// Runs `parse` (which add()s containers, with any checks between them) and
/// decodes what it added into `out`. The serial decoder would have decoded
/// every plane added before a parse error, so a failing plane's error comes
/// first, then the parse error.
template <typename Parse>
void decode_batch(Parse&& parse, std::vector<std::byte>& out) {
  DecodeBatch batch;
  std::exception_ptr parse_error;
  try {
    parse(batch);
  } catch (...) {
    parse_error = std::current_exception();
  }
  out.resize(static_cast<size_t>(batch.raw_bytes()));
  batch.run(out.data());
  if (parse_error) std::rethrow_exception(parse_error);
}

}  // namespace

// ---------------------------------------------------------------------------
// Labels / registries.
// ---------------------------------------------------------------------------

std::string lossless_algo_label(LosslessAlgo algo) {
  switch (algo) {
    case LosslessAlgo::kRaw: return "raw";
    case LosslessAlgo::kRle: return "rle";
    case LosslessAlgo::kHuffman: return "huffman";
    case LosslessAlgo::kRleHuffman: return "rle+huffman";
  }
  ACTCOMP_ASSERT(false, "unreachable lossless algo enum");
}

std::string plane_split_label(PlaneSplit split) {
  switch (split) {
    case PlaneSplit::kNone: return "none";
    case PlaneSplit::kStride2: return "bp2";
    case PlaneSplit::kStride4: return "bp4";
  }
  ACTCOMP_ASSERT(false, "unreachable plane split enum");
}

int plane_count(PlaneSplit split) {
  switch (split) {
    case PlaneSplit::kNone: return 1;
    case PlaneSplit::kStride2: return 2;
    case PlaneSplit::kStride4: return 4;
  }
  ACTCOMP_ASSERT(false, "unreachable plane split enum");
}

const std::vector<LosslessCodec>& standard_lossless_codecs() {
  static const std::vector<LosslessCodec> kCodecs = {
      {LosslessAlgo::kRle, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kHuffman, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kRleHuffman, PlaneSplit::kStride2, 0},
      {LosslessAlgo::kRleHuffman, PlaneSplit::kStride4, 0},
  };
  return kCodecs;
}

// ---------------------------------------------------------------------------
// LosslessCodec.
// ---------------------------------------------------------------------------

std::string LosslessCodec::name() const {
  return lossless_algo_label(algo) + "/" + plane_split_label(split);
}

int LosslessCodec::num_chunks(int64_t raw_bytes) const {
  ACTCOMP_CHECK(raw_bytes >= 0, "negative payload size");
  if (chunk_bytes <= 0 || raw_bytes == 0) return 1;
  return static_cast<int>((raw_bytes + chunk_bytes - 1) / chunk_bytes);
}

int64_t LosslessCodec::max_encoded_bytes(int64_t raw_bytes) const {
  const int chunks = num_chunks(raw_bytes);
  // Header + chunk table + per-chunk per-plane prefixes + raw-fallback data.
  return kHeaderBytes + 8 * chunks +
         static_cast<int64_t>(chunks) * plane_count(split) * kPlanePrefixBytes +
         raw_bytes;
}

std::vector<std::byte> LosslessCodec::encode(const std::byte* data,
                                             int64_t n) const {
  ACTCOMP_PROFILE("compress.lossless.encode");
  EncodeBatch batch;
  batch.add(*this, data, n);
  std::vector<std::byte> out;
  batch.run(out);
  return out;
}

std::vector<std::byte> LosslessCodec::encode(
    const std::vector<std::byte>& data) const {
  return encode(data.data(), static_cast<int64_t>(data.size()));
}

std::vector<std::byte> LosslessCodec::decode(const std::byte* buf,
                                             int64_t n) const {
  ACTCOMP_PROFILE("compress.lossless.decode");
  std::vector<std::byte> out;
  decode_batch([&](DecodeBatch& batch) { batch.add(buf, n); }, out);
  return out;
}

std::vector<std::byte> LosslessCodec::decode(
    const std::vector<std::byte>& buf) const {
  return decode(buf.data(), static_cast<int64_t>(buf.size()));
}

// ---------------------------------------------------------------------------
// LosslessCompressor.
// ---------------------------------------------------------------------------

LosslessCompressor::LosslessCompressor(LosslessCodec codec) : codec_(codec) {}

std::string LosslessCompressor::name() const {
  return "lossless(" + codec_.name() + ")";
}

CompressedMessage LosslessCompressor::do_encode(const tensor::Tensor& x) {
  std::vector<std::byte> fp16;
  fp16.reserve(static_cast<size_t>(x.numel()) * 2);
  wire::append_fp16(fp16, x);
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body = codec_.encode(fp16);
  return msg;
}

tensor::Tensor LosslessCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  const std::vector<std::byte> fp16 = codec_.decode(msg.body);
  ACTCOMP_CHECK(static_cast<int64_t>(fp16.size()) == shape.numel() * 2,
                "lossless payload decodes to " << fp16.size()
                                               << " bytes, expected "
                                               << shape.numel() * 2);
  size_t off = 0;
  std::vector<float> vals = wire::read_fp16(fp16, off, shape.numel());
  return tensor::Tensor(shape, std::move(vals));
}

tensor::Tensor LosslessCompressor::round_trip(const tensor::Tensor& x) {
  return tensor::fp16_round(x);
}

WireFormat LosslessCompressor::wire_size(const tensor::Shape& shape) const {
  const int64_t raw = fp16_bytes(shape);
  const int64_t header = kHeaderBytes + 8 * codec_.num_chunks(raw);
  return WireFormat{.payload_bytes = codec_.max_encoded_bytes(raw) - header,
                    .metadata_bytes = header};
}

// ---------------------------------------------------------------------------
// Segment layouts.
// ---------------------------------------------------------------------------

SegmentLayoutFn segment_whole(PlaneSplit split) {
  return [split](const tensor::Shape&, int64_t body_bytes) {
    return std::vector<BodySegment>{{0, body_bytes, split}};
  };
}

SegmentLayoutFn segments_topk() {
  return [](const tensor::Shape&, int64_t body_bytes) {
    ACTCOMP_CHECK(body_bytes % 6 == 0,
                  "top-k body is not 6 bytes per kept element: " << body_bytes);
    const int64_t k = body_bytes / 6;
    return std::vector<BodySegment>{{0, 4 * k, PlaneSplit::kStride4},
                                    {4 * k, 2 * k, PlaneSplit::kStride2}};
  };
}

SegmentLayoutFn segments_quantize() {
  return [](const tensor::Shape& shape, int64_t body_bytes) {
    ACTCOMP_CHECK(shape.rank() >= 1, "quantize body needs a ranked shape");
    const int64_t cols = shape.dim(-1);
    const int64_t rows = cols == 0 ? 0 : shape.numel() / cols;
    const int64_t header = rows * 4;
    ACTCOMP_CHECK(header <= body_bytes,
                  "quantize body smaller than its row-params header");
    return std::vector<BodySegment>{
        {0, header, PlaneSplit::kStride2},
        {header, body_bytes - header, PlaneSplit::kNone}};
  };
}

// ---------------------------------------------------------------------------
// StackedCompressor.
// ---------------------------------------------------------------------------

StackedCompressor::StackedCompressor(CompressorPtr inner, LosslessCodec codec,
                                     SegmentLayoutFn layout)
    : inner_(std::move(inner)), codec_(codec), layout_(std::move(layout)) {
  ACTCOMP_CHECK(inner_ != nullptr, "stacked compressor needs an inner codec");
  if (!layout_) layout_ = segment_whole(codec_.split);
}

std::string StackedCompressor::name() const {
  return inner_->name() + "+lossless(" + lossless_algo_label(codec_.algo) + ")";
}

std::vector<BodySegment> StackedCompressor::layout_for(
    const tensor::Shape& shape, int64_t body_bytes) const {
  std::vector<BodySegment> segs = layout_(shape, body_bytes);
  ACTCOMP_CHECK(!segs.empty(), "segment layout produced no segments");
  int64_t off = 0;
  for (const BodySegment& s : segs) {
    ACTCOMP_CHECK(s.offset == off && s.bytes >= 0,
                  "segment layout must tile the body in order without gaps");
    off += s.bytes;
  }
  ACTCOMP_CHECK(off == body_bytes,
                "segment layout covers " << off << " of " << body_bytes
                                         << " body bytes");
  return segs;
}

CompressedMessage StackedCompressor::do_encode(const tensor::Tensor& x) {
  CompressedMessage inner = inner_->encode(x);
  const auto body_bytes = static_cast<int64_t>(inner.body.size());
  const std::vector<BodySegment> segs = layout_for(x.shape(), body_bytes);

  ACTCOMP_PROFILE("compress.lossless.encode");
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  // Every segment's units are coded in one pass, behind the segment table.
  EncodeBatch batch;
  for (const BodySegment& s : segs) {
    LosslessCodec c = codec_;
    c.split = s.split;
    batch.add(c, inner.body.data() + s.offset, s.bytes);
  }
  msg.body.resize(4 + 8 * segs.size());
  const std::vector<int64_t> sizes = batch.run(msg.body);
  std::byte* w = msg.body.data();
  put<uint32_t>(w, static_cast<uint32_t>(segs.size()));
  for (const int64_t size : sizes) put<uint64_t>(w, static_cast<uint64_t>(size));
  return msg;
}

tensor::Tensor StackedCompressor::do_decode(const CompressedMessage& msg) const {
  CompressedMessage inner;
  inner.shape_dims = msg.shape_dims;
  {
    ACTCOMP_PROFILE("compress.lossless.decode");
    decode_batch(
        [&](DecodeBatch& batch) {
          size_t off = 0;
          const auto nseg =
              static_cast<int64_t>(wire::read_pod<uint32_t>(msg.body, off));
          ACTCOMP_CHECK(nseg >= 1, "stacked message needs >= 1 segment");
          ACTCOMP_CHECK(static_cast<size_t>(nseg) <= (msg.body.size() - off) / 8,
                        "truncated stacked segment table on wire");
          std::vector<int64_t> sizes(static_cast<size_t>(nseg));
          for (auto& s : sizes) {
            s = static_cast<int64_t>(wire::read_pod<uint64_t>(msg.body, off));
          }
          for (int64_t i = 0; i < nseg; ++i) {
            const int64_t len = sizes[static_cast<size_t>(i)];
            ACTCOMP_CHECK(len >= 0 && static_cast<size_t>(len) <= msg.body.size() - off,
                          "truncated stacked segment on wire");
            // The container header carries its own split, so decode needs
            // no layout.
            batch.add(msg.body.data() + off, len);
            off += static_cast<size_t>(len);
          }
          ACTCOMP_CHECK(off == msg.body.size(),
                        "trailing bytes after the stacked message's last segment");
          ACTCOMP_CHECK(
              static_cast<int64_t>(
                  layout_for(tensor::Shape{msg.shape_dims}, batch.raw_bytes())
                      .size()) == nseg,
              "stacked segment count disagrees with the layout");
        },
        inner.body);
  }
  return inner_->decode(inner);
}

tensor::Tensor StackedCompressor::round_trip(const tensor::Tensor& x) {
  return inner_->round_trip(x);
}

autograd::Variable StackedCompressor::apply(const autograd::Variable& x) {
  return inner_->apply(x);
}

WireFormat StackedCompressor::wire_size(const tensor::Shape& shape) const {
  const WireFormat inner = inner_->wire_size(shape);
  const std::vector<BodySegment> segs =
      layout_for(shape, inner.total_bytes());
  int64_t payload = 0;
  int64_t metadata = 4 + 8 * static_cast<int64_t>(segs.size());
  for (const BodySegment& s : segs) {
    LosslessCodec c = codec_;
    c.split = s.split;
    payload += c.max_encoded_bytes(s.bytes);
  }
  return WireFormat{.payload_bytes = payload, .metadata_bytes = metadata};
}

std::vector<autograd::Variable> StackedCompressor::parameters() {
  return inner_->parameters();
}

}  // namespace actcomp::compress
