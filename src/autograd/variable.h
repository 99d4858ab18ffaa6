// Tape-based reverse-mode automatic differentiation.
//
// A Variable is a cheap handle to a graph Node holding a value, an optional
// accumulated gradient, and a backward closure that routes the node's
// gradient to its parents. backward() runs the tape in reverse topological
// order. The design mirrors PyTorch's define-by-run autograd at small scale:
// ops in functions.h build the graph as they execute.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace actcomp::autograd {

class Variable;

namespace detail {

struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;          // empty until first accumulation
  bool has_grad = false;
  bool requires_grad = false;
  std::string op;               // for diagnostics
  std::vector<std::shared_ptr<Node>> parents;
  // Routes this node's grad into parents (called once, after grad is final).
  std::function<void(Node&)> backward_fn;

  // Adds `g` into grad: the first gradient is copied in, later ones are
  // added element by element in arrival order.
  void accumulate(const tensor::Tensor& g);
  // Same sums, but the first gradient's buffer is adopted instead of copied
  // when no other handle aliases it (a fresh temporary). Aliased storage
  // (n.grad itself, reshape views of it) takes the copying overload's path.
  void accumulate(tensor::Tensor&& g);
};

}  // namespace detail

/// RAII guard disabling graph construction (inference / no-grad regions).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  static bool grad_enabled();

 private:
  bool prev_;
};

class Variable {
 public:
  /// Invalid handle; most operations on it throw.
  Variable() = default;

  /// Graph leaf. Parameters pass requires_grad = true; inputs false.
  static Variable leaf(tensor::Tensor value, bool requires_grad = false);

  /// Interior node with an explicit backward closure. Building block for all
  /// ops, and the extension point for custom ops (compressors use it).
  static Variable make(tensor::Tensor value, std::vector<Variable> parents,
                       std::function<void(detail::Node&)> backward_fn,
                       std::string op_name);

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const;
  tensor::Tensor& mutable_value();
  const tensor::Shape& shape() const { return value().shape(); }
  bool requires_grad() const;

  /// Accumulated gradient. Throws if backward has not produced one.
  const tensor::Tensor& grad() const;
  bool has_grad() const;
  void zero_grad();

  /// Run reverse-mode AD from this (scalar) variable with seed gradient 1.
  void backward() const;
  /// Run reverse-mode AD with an explicit seed gradient (same shape as value).
  void backward(const tensor::Tensor& seed) const;

  /// A leaf sharing this variable's value but cut off from the graph.
  Variable detach() const;

  const std::string& op_name() const;

  /// Identity test for graph nodes.
  bool same_node(const Variable& other) const { return node_ == other.node_; }

  std::shared_ptr<detail::Node> node() const { return node_; }

 private:
  explicit Variable(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}
  std::shared_ptr<detail::Node> node_;
};

}  // namespace actcomp::autograd
