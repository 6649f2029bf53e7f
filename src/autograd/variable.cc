#include "autograd/variable.h"

#include <unordered_set>

#include "common/logging.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace autograd {

Variable::Variable(Tensor data, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->data = std::move(data);
  node_->requires_grad = requires_grad;
  node_->is_leaf = true;
}

Variable Variable::Leaf(Tensor data, bool requires_grad) {
  return Variable(std::move(data), requires_grad);
}

Variable Variable::FromNode(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

const Tensor& Variable::data() const {
  ENHANCENET_CHECK(defined());
  return node_->data;
}

Tensor& Variable::mutable_data() {
  ENHANCENET_CHECK(defined());
  return node_->data;
}

bool Variable::requires_grad() const {
  ENHANCENET_CHECK(defined());
  return node_->requires_grad;
}

void Variable::set_requires_grad(bool requires_grad) {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK(node_->is_leaf) << "set_requires_grad on non-leaf";
  node_->requires_grad = requires_grad;
}

bool Variable::has_grad() const {
  ENHANCENET_CHECK(defined());
  return node_->grad_defined;
}

const Tensor& Variable::grad() const {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK(node_->grad_defined) << "grad() before Backward()";
  return node_->grad;
}

Tensor& Variable::mutable_grad() {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK(node_->grad_defined) << "mutable_grad() before Backward()";
  return node_->grad;
}

void Variable::ZeroGrad() {
  ENHANCENET_CHECK(defined());
  node_->grad_defined = false;
  node_->grad = Tensor();
}

void Variable::AccumulateGrad(const Tensor& g) const {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK(g.shape() == node_->data.shape())
      << "gradient shape " << ShapeToString(g.shape())
      << " does not match data shape " << ShapeToString(node_->data.shape())
      << " (op " << node_->op_name << ")";
  if (!node_->grad_defined) {
    // Clone: `g` may be shared (an upstream grad_out headed to several
    // parents) and the buffer is mutated by later contributions.
    node_->grad = g.Clone();
    node_->grad_defined = true;
  } else {
    ops::AxpyInPlace(1.0f, g, &node_->grad);
  }
}

void Variable::AccumulateGrad(Tensor&& g) const {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK(g.shape() == node_->data.shape())
      << "gradient shape " << ShapeToString(g.shape())
      << " does not match data shape " << ShapeToString(node_->data.shape())
      << " (op " << node_->op_name << ")";
  if (!node_->grad_defined) {
    // Adopt the temp outright: nothing else holds it, so no clone is needed.
    node_->grad = std::move(g);
    node_->grad_defined = true;
  } else {
    ops::AxpyInPlace(1.0f, g, &node_->grad);
  }
}

void Variable::Backward() {
  ENHANCENET_CHECK(defined());
  ENHANCENET_CHECK_EQ(node_->data.numel(), 1)
      << "Backward() requires a scalar output";

  // Iterative post-order DFS to get a topological order of the graph.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Seed d self / d self = 1.
  AccumulateGrad(Tensor::Ones(node_->data.shape()));

  // Reverse topological order: every node's grad is complete before its
  // backward_fn fires (all of a node's consumers fire earlier in the sweep).
  // That same ordering makes eager release safe: once a node's backward_fn
  // has run, nothing later in the sweep reads its grad or its closure, so
  // both are dropped immediately — the closure's captured aux tensors
  // (saved activations, masks) are the bulk of backward-pass memory, so peak
  // memory during a long rollout is bounded by the frontier of the sweep
  // instead of the whole graph. Data tensors and leaf grads are user-visible
  // and always kept.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->grad_defined) {
      node->backward_fn(node->grad);
    }
    if (!node->is_leaf) {
      node->grad = Tensor();
      node->grad_defined = false;
      node->backward_fn = nullptr;
    }
  }

  // What the finished graph still pins: every node's data plus the leaf
  // gradients.
  int64_t live_bytes = 0;
  for (Node* node : topo) {
    live_bytes += node->data.numel() * static_cast<int64_t>(sizeof(float));
    if (node->grad_defined) {
      live_bytes += node->grad.numel() * static_cast<int64_t>(sizeof(float));
    }
  }
  static obs::Gauge* live_gauge =
      obs::Registry::Global().GetGauge("autograd.graph.live_bytes");
  live_gauge->Set(live_bytes);
}

Variable Variable::Detach() const {
  ENHANCENET_CHECK(defined());
  return Variable::Leaf(node_->data, /*requires_grad=*/false);
}

}  // namespace autograd
}  // namespace enhancenet
