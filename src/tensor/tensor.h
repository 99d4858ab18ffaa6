// Tensor: a contiguous, row-major float32 array with shared storage.
//
// Semantics mirror the common ML-framework convention: copying a Tensor is
// cheap and aliases the same storage (like a torch.Tensor handle); use
// clone() for a deep copy. All tensors are contiguous — reshape() is free,
// and transpose_last2 materializes; matmul instead reads a transposed
// operand in place through its strides (ops.h).
//
// The library is CPU-only. Ops in tensor/ops.h split their loops over the
// core::parallel_for pool with fixed chunking, so results are bit-identical
// at any thread count (DESIGN.md §10). A Tensor handle itself is not
// synchronized: share one across threads only for reading.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/shape.h"

namespace actcomp::tensor {

class Tensor {
 public:
  /// An empty 0-element tensor of rank 1.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor over existing values; `values.size()` must equal `shape.numel()`.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  static Tensor scalar(float value) { return Tensor(Shape{}, {value}); }
  /// [start, start+step, ...] of length n, as a rank-1 tensor.
  static Tensor arange(int64_t n, float start = 0.0f, float step = 1.0f);

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  int64_t numel() const { return shape_.numel(); }
  int64_t dim(int i) const { return shape_.dim(i); }

  /// Mutable / const views of the underlying contiguous storage.
  std::span<float> data() { return {storage_->data(), storage_->size()}; }
  std::span<const float> data() const { return {storage_->data(), storage_->size()}; }

  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// Value of a 1-element tensor.
  float item() const;

  /// Deep copy.
  Tensor clone() const;

  /// Same storage, new shape (numel must match).
  Tensor reshape(Shape new_shape) const;

  /// True if the two handles alias the same storage.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  /// True if no other handle aliases this storage, so moving the handle
  /// hands over the only reference to its buffer.
  bool storage_unique() const { return storage_.use_count() == 1; }

  void fill(float value);

  /// Human-readable summary, e.g. "Tensor[2, 3] {…}" (values elided past 16).
  std::string str() const;

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> storage_;
};

}  // namespace actcomp::tensor
