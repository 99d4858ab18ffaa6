#include "compress/wire.h"

#include <algorithm>
#include <atomic>

#include "core/threadpool.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress::wire {

namespace {
// Elements per parallel chunk for the sparse gather/scatter loops.
constexpr int64_t kEwGrain = int64_t{1} << 13;
// fp16 values per conversion call of append_fp16/read_fp16: the kernels
// take a uint16_t array, and staging the wire bytes through one 8 KiB
// block keeps that copy in L1 instead of a second full-size buffer.
constexpr int64_t kHalfBlock = 4096;

int32_t index_at(const std::byte* idx_base, int64_t i) {
  int32_t j = 0;
  std::memcpy(&j, idx_base + i * 4, 4);
  return j;
}

/// The first position in [b, e) whose index is outside [0, numel) or not
/// above the index before it (the one at b - 1 for b > 0); e if none.
int64_t first_bad_index(const std::byte* idx_base, int64_t b, int64_t e,
                        int64_t numel) {
  int64_t prev = b == 0 ? -1 : index_at(idx_base, b - 1);
  for (int64_t i = b; i < e; ++i) {
    const int32_t j = index_at(idx_base, i);
    if (j < 0 || j >= numel || j <= prev) return i;
    prev = j;
  }
  return e;
}
}  // namespace

void append_fp16(std::vector<std::byte>& buf, const tensor::Tensor& t) {
  const auto src = t.data();
  if (src.empty()) return;
  const auto n = static_cast<int64_t>(src.size());
  const size_t off = buf.size();
  buf.resize(off + src.size() * 2);
  const tensor::kernels::KernelTable& k = tensor::kernels::active_kernels();
  uint16_t half[kHalfBlock];
  for (int64_t b = 0; b < n; b += kHalfBlock) {
    const int64_t len = std::min(kHalfBlock, n - b);
    k.fp16_encode(src.data() + b, half, len);
    std::memcpy(buf.data() + off + static_cast<size_t>(b) * 2, half,
                static_cast<size_t>(len) * 2);
  }
}

std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n) {
  ACTCOMP_CHECK(n >= 0 && off <= buf.size() &&
                    static_cast<uint64_t>(n) <= (buf.size() - off) / 2,
                "truncated wire message");
  if (n == 0) return {};
  std::vector<float> out(static_cast<size_t>(n));
  const tensor::kernels::KernelTable& k = tensor::kernels::active_kernels();
  uint16_t half[kHalfBlock];
  for (int64_t b = 0; b < n; b += kHalfBlock) {
    const int64_t len = std::min(kHalfBlock, n - b);
    std::memcpy(half, buf.data() + off + static_cast<size_t>(b) * 2,
                static_cast<size_t>(len) * 2);
    k.fp16_decode(half, out.data() + b, len);
  }
  off += static_cast<size_t>(n) * 2;
  return out;
}

std::vector<std::byte> encode_sparse(const tensor::Tensor& x,
                                     const std::vector<int64_t>& kept) {
  const int64_t k = static_cast<int64_t>(kept.size());
  std::vector<std::byte> body(static_cast<size_t>(k) * 6);
  const auto d = x.data();
  std::byte* idx_base = body.data();
  std::byte* val_base = body.data() + static_cast<size_t>(k) * 4;
  // Gather the kept values per chunk, then batch-convert through the SIMD
  // fp16 kernel (same bit converter, same wire bytes).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    std::vector<float> vals(static_cast<size_t>(len));
    std::vector<uint16_t> half(static_cast<size_t>(len));
    for (int64_t i = b; i < e; ++i) {
      const int64_t src = kept[static_cast<size_t>(i)];
      const int32_t j = static_cast<int32_t>(src);
      std::memcpy(idx_base + i * 4, &j, 4);
      vals[static_cast<size_t>(i - b)] = d[static_cast<size_t>(src)];
    }
    kt.fp16_encode(vals.data(), half.data(), len);
    std::memcpy(val_base + b * 2, half.data(), static_cast<size_t>(len) * 2);
  });
  return body;
}

tensor::Tensor decode_sparse(const std::vector<std::byte>& body,
                             const tensor::Shape& shape, int64_t k,
                             const char* what) {
  ACTCOMP_CHECK(body.size() == static_cast<size_t>(k) * 6,
                what << " wire body is " << body.size() << " bytes, expected "
                     << k * 6);
  const std::byte* idx_base = body.data();
  const std::byte* val_base = body.data() + static_cast<size_t>(k) * 4;
  const int64_t numel = shape.numel();
  // Validate every index before any write: only a strictly ascending index
  // plane guarantees that the parallel scatter chunks write disjoint
  // elements. On a failure, one serial pass reports the first violation in
  // wire order, so the error is the same at any thread count.
  std::atomic<bool> valid{true};
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    if (first_bad_index(idx_base, b, e, numel) != e) valid.store(false);
  });
  if (!valid.load()) {
    const int64_t i = first_bad_index(idx_base, 0, k, numel);
    const int32_t j = index_at(idx_base, i);
    ACTCOMP_CHECK(j >= 0 && j < numel,
                  what << " index " << j << " at position " << i
                       << " out of range on wire");
    ACTCOMP_CHECK(false, what << " index " << j << " at position " << i
                              << " does not ascend strictly on wire");
  }
  tensor::Tensor out{shape};
  auto d = out.data();
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    std::vector<uint16_t> half(static_cast<size_t>(len));
    std::vector<float> vals(static_cast<size_t>(len));
    std::memcpy(half.data(), val_base + b * 2, static_cast<size_t>(len) * 2);
    kt.fp16_decode(half.data(), vals.data(), len);
    for (int64_t i = b; i < e; ++i) {
      d[static_cast<size_t>(index_at(idx_base, i))] =
          vals[static_cast<size_t>(i - b)];
    }
  });
  return out;
}

}  // namespace actcomp::compress::wire
