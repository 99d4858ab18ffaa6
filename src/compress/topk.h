// Top-K sparsification (paper §3.1, settings T1–T4).
//
// Keeps the `fraction`·numel elements of largest magnitude per tensor (the
// paper uses torch.topk over the whole activation) and transmits
// (value: fp16, index: int32) pairs. The backward pass is the kept-element
// mask: y = m ⊙ x  ⇒  ∂y/∂x = m.
//
// Selection is exact under the strict order (|x| descending, index
// ascending): the top-k set is unique, so encode, round_trip and the
// backward mask agree, at any thread count. It is an exact radix select
// over the sign-cleared bit patterns of x, which sort exactly like |x|
// (DESIGN.md §10): three digit passes find the k-th largest key T, and one
// ascending scan emits every index above T plus the lowest-index ties at T,
// already in wire order.
//
// NaN inputs: the key order ranks NaN above +inf (and NaNs among themselves
// by payload bits, then index), so a NaN is always kept before any number.
#pragma once

#include <cstdint>

#include "compress/compressor.h"

namespace actcomp::compress {

class TopKCompressor final : public Compressor {
 public:
  /// `fraction` of elements kept, in (0, 1].
  explicit TopKCompressor(double fraction);

  std::string name() const override;
  CompressedMessage do_encode(const tensor::Tensor& x) override;
  tensor::Tensor do_decode(const CompressedMessage& msg) const override;
  tensor::Tensor round_trip(const tensor::Tensor& x) override;
  WireFormat wire_size(const tensor::Shape& shape) const override;
  bool allreduce_compatible() const override { return false; }

  double fraction() const { return fraction_; }
  /// Number of elements kept for a tensor with `numel` elements (>= 1).
  int64_t k_for(int64_t numel) const;

 protected:
  tensor::Tensor vjp(const tensor::Tensor& grad_out,
                     const tensor::Tensor& input) const override;

 private:
  /// Ascending indices of the k largest-|x| elements (ties broken by lower
  /// index; NaN ranks above +inf).
  std::vector<int64_t> select(const tensor::Tensor& x) const;

  double fraction_;
};

}  // namespace actcomp::compress
