// Byte-level helpers shared by the wire formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/tensor.h"

namespace actcomp::compress::wire {

template <typename T>
void append_pod(std::vector<std::byte>& buf, T v) {
  const size_t off = buf.size();
  buf.resize(off + sizeof(T));
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T read_pod(const std::vector<std::byte>& buf, size_t& off) {
  ACTCOMP_CHECK(off + sizeof(T) <= buf.size(), "truncated wire message");
  T v{};
  std::memcpy(&v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

/// Append every element of `t` as IEEE fp16 (batch conversions, 8 KiB at a
/// time).
void append_fp16(std::vector<std::byte>& buf, const tensor::Tensor& t);

/// Read `n` fp16 values starting at `off` into fp32. Throws
/// std::invalid_argument ("truncated wire message") unless all 2n bytes are
/// present; `off` then advances past them.
std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n);

/// The T*/R* body (WIRE_FORMATS.md §3.3): i32 index[k] ++ fp16 value[k] for
/// the strictly ascending indices `kept` into `x`.
std::vector<std::byte> encode_sparse(const tensor::Tensor& x,
                                     const std::vector<int64_t>& kept);

/// Inverse of encode_sparse for a tensor of `shape` with `k` kept elements;
/// dropped elements decode as zero. Throws std::invalid_argument, naming
/// `what` ("top-k", "random-k"), unless the body is exactly 6k bytes and its
/// indices are in range and strictly ascending.
tensor::Tensor decode_sparse(const std::vector<std::byte>& body,
                             const tensor::Shape& shape, int64_t k,
                             const char* what);

}  // namespace actcomp::compress::wire
