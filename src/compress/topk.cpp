#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "compress/wire.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress {

namespace {

// Fixed chunk width for the radix histogram and emit passes. A constant
// (never derived from the thread count) keeps every per-chunk count, and
// therefore the selected set, identical for any ACTCOMP_THREADS.
constexpr int64_t kChunk = int64_t{1} << 16;

// Elements per parallel chunk for the gather/scatter loops.
constexpr int64_t kEwGrain = int64_t{1} << 13;

// Radix digits over the 31-bit magnitude key, most significant first:
// bits [20, 31), [10, 20), [0, 10). An 11-bit histogram is 8 KiB per chunk,
// so a 12k-element activation pays for one small table, not a 64k-entry one.
constexpr int kDigitShift[] = {20, 10, 0};
constexpr int kDigitBits[] = {11, 10, 10};
constexpr int kBuckets = 1 << 11;

// |x| as an order-preserving integer: clearing the sign bit (what ew_abs and
// fabs do) leaves non-negative floats whose bit patterns sort exactly like
// their values, with +inf above every finite value and NaN above +inf.
inline uint32_t magnitude_key(float v) {
  uint32_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u & 0x7FFFFFFFu;
}

}  // namespace

TopKCompressor::TopKCompressor(double fraction) : fraction_(fraction) {
  ACTCOMP_CHECK(fraction > 0.0 && fraction <= 1.0,
                "top-k fraction must be in (0, 1], got " << fraction);
}

std::string TopKCompressor::name() const {
  std::ostringstream os;
  os << "topk(f=" << fraction_ << ')';
  return os.str();
}

int64_t TopKCompressor::k_for(int64_t numel) const {
  if (numel == 0) return 0;
  const auto k = static_cast<int64_t>(
      std::llround(fraction_ * static_cast<double>(numel)));
  return std::clamp<int64_t>(k, 1, numel);
}

std::vector<int64_t> TopKCompressor::select(const tensor::Tensor& x) const {
  const int64_t n = x.numel();
  const int64_t k = k_for(n);
  if (k == 0) return {};
  const float* d = x.data().data();
  const int64_t nchunks = (n + kChunk - 1) / kChunk;
  const auto chunk_end = [&](int64_t c) { return std::min(n, (c + 1) * kChunk); };

  // Radix select of T, the k-th largest key. Each pass histograms the next
  // digit of the keys that share T's digits so far, per fixed-width chunk,
  // then walks the buckets from the top. `above[c]` accumulates how many of
  // chunk c's keys are strictly greater than T.
  std::vector<uint32_t> hist(static_cast<size_t>(nchunks) * kBuckets);
  std::vector<int64_t> above(static_cast<size_t>(nchunks), 0);
  uint32_t prefix = 0;   // T's digits chosen so far
  int64_t rank = k;      // T's rank among the keys that share `prefix`
  uint32_t digit = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const int shift = kDigitShift[pass];
    const uint32_t mask = (uint32_t{1} << kDigitBits[pass]) - 1;
    const int hi_shift = shift + kDigitBits[pass];
    std::fill(hist.begin(), hist.end(), 0u);
    core::parallel_for(0, nchunks, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        uint32_t* h = hist.data() + c * kBuckets;
        for (int64_t i = c * kChunk, e = chunk_end(c); i < e; ++i) {
          const uint32_t key = magnitude_key(d[i]);
          if ((key >> hi_shift) == prefix) ++h[(key >> shift) & mask];
        }
      }
    });
    int64_t greater = 0;
    for (digit = mask;; --digit) {
      int64_t count = 0;
      for (int64_t c = 0; c < nchunks; ++c) count += hist[c * kBuckets + digit];
      if (greater + count >= rank) break;
      greater += count;
    }
    rank -= greater;
    for (int64_t c = 0; c < nchunks; ++c) {
      const uint32_t* h = hist.data() + c * kBuckets;
      for (uint32_t b = digit + 1; b <= mask; ++b) above[c] += h[b];
    }
    prefix = (prefix << kDigitBits[pass]) | digit;
  }
  const uint32_t threshold = prefix;

  // Emit in ascending index order: every key above T, plus the first `rank`
  // keys equal to T (the lowest-index ties). That is exactly the top-k set
  // under (|x| desc, index asc), already in wire order. Per-chunk offsets
  // come from the integer counts, so the layout is thread-count independent.
  std::vector<int64_t> offset(static_cast<size_t>(nchunks) + 1, 0);
  std::vector<int64_t> ties(static_cast<size_t>(nchunks), 0);
  int64_t ties_left = rank;
  for (int64_t c = 0; c < nchunks; ++c) {
    ties[c] = std::min<int64_t>(ties_left, hist[c * kBuckets + digit]);
    ties_left -= ties[c];
    offset[c + 1] = offset[c] + above[c] + ties[c];
  }
  std::vector<int64_t> kept(static_cast<size_t>(k));
  core::parallel_for(0, nchunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      int64_t* out = kept.data() + offset[c];
      int64_t tie_quota = ties[c];
      for (int64_t i = c * kChunk, e = chunk_end(c); i < e; ++i) {
        const uint32_t key = magnitude_key(d[i]);
        if (key > threshold) {
          *out++ = i;
        } else if (key == threshold && tie_quota > 0) {
          *out++ = i;
          --tie_quota;
        }
      }
    }
  });
  return kept;
}

CompressedMessage TopKCompressor::do_encode(const tensor::Tensor& x) {
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body = wire::encode_sparse(x, select(x));
  return msg;
}

tensor::Tensor TopKCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  return wire::decode_sparse(msg.body, shape, k_for(shape.numel()), "top-k");
}

tensor::Tensor TopKCompressor::round_trip(const tensor::Tensor& x) {
  tensor::Tensor out{x.shape()};
  const auto din = x.data();
  auto dout = out.data();
  const std::vector<int64_t> kept = select(x);
  // fp16 on the wire, so round kept values through fp16 too (gather,
  // batch round-trip through the SIMD kernel, scatter back).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(
      0, static_cast<int64_t>(kept.size()), kEwGrain, [&](int64_t b, int64_t e) {
        const int64_t len = e - b;
        std::vector<float> vals(static_cast<size_t>(len));
        for (int64_t i = b; i < e; ++i) {
          vals[static_cast<size_t>(i - b)] =
              din[static_cast<size_t>(kept[static_cast<size_t>(i)])];
        }
        kt.fp16_round_trip(vals.data(), vals.data(), len);
        for (int64_t i = b; i < e; ++i) {
          dout[static_cast<size_t>(kept[static_cast<size_t>(i)])] =
              vals[static_cast<size_t>(i - b)];
        }
      });
  return out;
}

WireFormat TopKCompressor::wire_size(const tensor::Shape& shape) const {
  const int64_t k = k_for(shape.numel());
  return WireFormat{.payload_bytes = k * 2, .metadata_bytes = k * 4};
}

tensor::Tensor TopKCompressor::vjp(const tensor::Tensor& grad_out,
                                   const tensor::Tensor& input) const {
  tensor::Tensor g{grad_out.shape()};
  const auto dg = grad_out.data();
  auto dout = g.data();
  const std::vector<int64_t> kept = select(input);
  core::parallel_for(
      0, static_cast<int64_t>(kept.size()), kEwGrain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          const size_t j = static_cast<size_t>(kept[static_cast<size_t>(i)]);
          dout[j] = dg[j];
        }
      });
  return g;
}

}  // namespace actcomp::compress
