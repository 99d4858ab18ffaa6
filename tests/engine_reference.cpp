// The pre-refactor Engine::run() dispatch loop, preserved verbatim as a
// reference implementation. It lives in the test-support library
// (actcomp_test_support, tests/CMakeLists.txt), not in actcomp_sim:
//   * tests/engine_test.cpp pins run() == run_reference() on randomized DAGs
//     (the refactor's byte-identity contract);
//   * bench/engine_bench measures run()'s events/sec against this loop (the
//     >= 10x speedup bound).
// Differences from the original are mechanical: per-op dependency vectors
// are reconstructed from the flat dep_edges_ list (the op nodes no longer
// carry them), preserving the original vector-of-vectors allocation pattern
// and per-dispatch behavior exactly.
#include <cmath>
#include <functional>
#include <queue>

#include "sim/engine.h"
#include "tensor/check.h"

namespace actcomp::sim {

std::vector<OpTiming> Engine::run_reference() const {
  const size_t n = ops_.size();
  std::vector<OpTiming> times(n);
  std::vector<int> deps_left(n, 0);
  std::vector<std::vector<int>> dependents(n);
  for (const auto& [op, dep] : dep_edges_) {
    ++deps_left[static_cast<size_t>(op)];
    dependents[static_cast<size_t>(dep)].push_back(op);
  }

  struct ResourceState {
    size_t next = 0;  ///< program-order cursor (kProgramOrder)
    int busy = 0;     ///< ops in flight
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  };
  std::vector<ResourceState> state(resources_.size());
  std::vector<char> is_ready(n, 0);

  // Completion events, processed in (time, op id) order for determinism.
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  size_t finished = 0;

  auto start_op = [&](int id, double now) {
    const OpNode& op = ops_[static_cast<size_t>(id)];
    times[static_cast<size_t>(id)] = {now, now + op.duration_ms};
    ++state[static_cast<size_t>(op.resource)].busy;
    events.push({now + op.duration_ms, id});
  };

  auto dispatch = [&](int res, double now) {
    const ResourceNode& r = resources_[static_cast<size_t>(res)];
    ResourceState& s = state[static_cast<size_t>(res)];
    if (r.policy == ExecPolicy::kProgramOrder) {
      while (s.next < r.ops.size() &&
             is_ready[static_cast<size_t>(r.ops[s.next])] &&
             (r.capacity == 0 || s.busy < r.capacity)) {
        start_op(r.ops[s.next], now);
        ++s.next;
      }
    } else {
      while (!s.ready.empty() && (r.capacity == 0 || s.busy < r.capacity)) {
        const int id = s.ready.top();
        s.ready.pop();
        start_op(id, now);
      }
    }
  };

  auto mark_ready = [&](int id) {
    is_ready[static_cast<size_t>(id)] = 1;
    const int res = ops_[static_cast<size_t>(id)].resource;
    if (resources_[static_cast<size_t>(res)].policy == ExecPolicy::kReadyOrder) {
      state[static_cast<size_t>(res)].ready.push(id);
    }
  };

  for (size_t i = 0; i < n; ++i) {
    if (deps_left[i] == 0) mark_ready(static_cast<int>(i));
  }
  for (int r = 0; r < num_resources(); ++r) dispatch(r, 0.0);

  while (!events.empty()) {
    const auto [now, id] = events.top();
    events.pop();
    ++finished;
    --state[static_cast<size_t>(ops_[static_cast<size_t>(id)].resource)].busy;
    for (int d : dependents[static_cast<size_t>(id)]) {
      if (--deps_left[static_cast<size_t>(d)] == 0) mark_ready(d);
    }
    // Re-dispatch the freed resource and every resource that gained a ready
    // op (dispatch is idempotent, so duplicates are harmless).
    dispatch(ops_[static_cast<size_t>(id)].resource, now);
    for (int d : dependents[static_cast<size_t>(id)]) {
      dispatch(ops_[static_cast<size_t>(d)].resource, now);
    }
  }

  ACTCOMP_ASSERT(finished == n, "engine deadlocked with " << n - finished
                                                          << " ops unreachable");
  return times;
}

}  // namespace actcomp::sim
