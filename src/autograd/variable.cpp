#include "autograd/variable.h"

#include <unordered_map>
#include <unordered_set>

#include "obs/profiler.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"

namespace actcomp::autograd {

namespace detail {

namespace {

void check_grad_shape(const Node& n, const tensor::Tensor& g) {
  ACTCOMP_CHECK(g.shape() == n.value.shape(),
                "gradient shape " << g.shape().str() << " != value shape "
                                  << n.value.shape().str() << " in op '" << n.op
                                  << "'");
}

}  // namespace

void Node::accumulate(const tensor::Tensor& g) {
  check_grad_shape(*this, g);
  if (!has_grad) {
    grad = g.clone();
    has_grad = true;
    return;
  }
  float* dg = grad.data().data();
  const int64_t n = grad.numel();
  tensor::kernels::active_kernels().ew_add(dg, g.data().data(), dg, 0, n, n);
}

void Node::accumulate(tensor::Tensor&& g) {
  if (has_grad || !g.storage_unique()) {
    accumulate(static_cast<const tensor::Tensor&>(g));
    return;
  }
  check_grad_shape(*this, g);
  grad = std::move(g);
  has_grad = true;
}

}  // namespace detail

namespace {
thread_local bool g_grad_enabled = true;
}

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }
bool NoGradGuard::grad_enabled() { return g_grad_enabled; }

Variable Variable::leaf(tensor::Tensor value, bool requires_grad) {
  auto node = std::make_shared<detail::Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->op = "leaf";
  return Variable(std::move(node));
}

Variable Variable::make(tensor::Tensor value, std::vector<Variable> parents,
                        std::function<void(detail::Node&)> backward_fn,
                        std::string op_name) {
  auto node = std::make_shared<detail::Node>();
  node->value = std::move(value);
  node->op = std::move(op_name);
  bool any_grad = false;
  for (const Variable& p : parents) {
    ACTCOMP_CHECK(p.defined(), "undefined parent in op '" << node->op << "'");
    any_grad = any_grad || p.requires_grad();
  }
  if (any_grad && NoGradGuard::grad_enabled()) {
    node->requires_grad = true;
    node->parents.reserve(parents.size());
    for (const Variable& p : parents) node->parents.push_back(p.node());
    node->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(node));
}

const tensor::Tensor& Variable::value() const {
  ACTCOMP_CHECK(defined(), "value() on undefined Variable");
  return node_->value;
}

tensor::Tensor& Variable::mutable_value() {
  ACTCOMP_CHECK(defined(), "mutable_value() on undefined Variable");
  return node_->value;
}

bool Variable::requires_grad() const {
  ACTCOMP_CHECK(defined(), "requires_grad() on undefined Variable");
  return node_->requires_grad;
}

const tensor::Tensor& Variable::grad() const {
  ACTCOMP_CHECK(defined() && node_->has_grad,
                "grad() before backward produced one");
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->has_grad; }

void Variable::zero_grad() {
  ACTCOMP_CHECK(defined(), "zero_grad() on undefined Variable");
  node_->has_grad = false;
  node_->grad = tensor::Tensor();
}

const std::string& Variable::op_name() const {
  ACTCOMP_CHECK(defined(), "op_name() on undefined Variable");
  return node_->op;
}

Variable Variable::detach() const {
  return leaf(value(), /*requires_grad=*/false);
}

void Variable::backward() const {
  ACTCOMP_CHECK(defined(), "backward() on undefined Variable");
  ACTCOMP_CHECK(value().numel() == 1,
                "backward() without seed requires a scalar, got "
                    << value().shape().str());
  backward(tensor::Tensor::full(value().shape(), 1.0f));
}

void Variable::backward(const tensor::Tensor& seed) const {
  ACTCOMP_PROFILE("autograd.backward");
  ACTCOMP_CHECK(defined(), "backward() on undefined Variable");
  ACTCOMP_CHECK(node_->requires_grad,
                "backward() from a node that does not require grad");

  // Iterative post-order DFS to build reverse topological order.
  std::vector<detail::Node*> topo;
  std::unordered_set<detail::Node*> visited;
  struct Frame {
    detail::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      detail::Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  node_->accumulate(seed);
  // topo is post-order (parents before children); walk it backwards so each
  // node's gradient is final before its backward_fn distributes it.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    detail::Node* n = *it;
    if (n->backward_fn && n->has_grad) n->backward_fn(*n);
  }
}

}  // namespace actcomp::autograd
