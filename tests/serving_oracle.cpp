#include "serving_oracle.h"

#include <algorithm>
#include <cmath>

#include "sim/engine.h"
#include "tensor/check.h"

namespace actcomp::oracle {

using namespace actcomp::sim;

ServingReport reference_simulate_serving(
    const std::vector<ServingRequest>& requests, const ServingConfig& cfg) {
  validate_serving_inputs(requests, cfg);
  ServingReport rep;
  rep.requests.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    rep.requests[i].arrival_ms = requests[i].arrival_ms;
    rep.requests[i].prompt_tokens = requests[i].prompt_tokens;
  }
  // Zero requests: nothing to schedule, no engine graph at all.
  if (requests.empty()) return rep;

  Engine eng;
  const int arrivals_res = eng.add_resource(0, ExecPolicy::kReadyOrder);
  const int replica_res = eng.add_resource(1, ExecPolicy::kProgramOrder);
  std::vector<int> arrival_op(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    // Pure delay: the op "ends" exactly at the request's arrival time.
    arrival_op[i] = eng.add_op(arrivals_res, requests[i].arrival_ms);
  }

  struct Live {
    size_t idx;
    int64_t cached;     ///< KV positions committed (prompt + generated - 1)
    int64_t generated;
    int64_t reserved;   ///< budget tokens held until completion
  };
  struct PlannedStep {
    int op;
    bool prefill;
    double start_ms, end_ms;
    int64_t seqs, new_tokens;
  };
  std::vector<Live> running;
  std::vector<PlannedStep> steps;
  size_t next = 0;
  int64_t reserved_total = 0;
  double last_end = 0.0;

  auto price = [&cfg](const StepShape& shape) {
    const double ms = cfg.step_cost(shape);
    ACTCOMP_CHECK(std::isfinite(ms) && ms >= 0.0,
                  "step_cost returned " << ms << " for a "
                                        << (shape.prefill ? "prefill" : "decode")
                                        << " step — must be finite and >= 0");
    return ms;
  };

  while (next < requests.size() || !running.empty()) {
    // Idle replica: the clock jumps to the next arrival (validation
    // guarantees the FIFO head fits an empty replica, so progress is
    // assured). In the engine this jump is the prefill op's arrival dep.
    const double now = running.empty() && next < requests.size()
                           ? std::max(last_end, requests[next].arrival_ms)
                           : last_end;

    // Admission wave: FIFO under max_batch and the token budget.
    std::vector<size_t> admitted;
    int64_t admit_prompts = 0, admit_context = 0;
    while (next < requests.size() && requests[next].arrival_ms <= now &&
           static_cast<int64_t>(running.size() + admitted.size()) <
               cfg.max_batch &&
           reserved_total + requests[next].prompt_tokens +
                   requests[next].max_new_tokens <=
               cfg.token_budget) {
      const ServingRequest& r = requests[next];
      reserved_total += r.prompt_tokens + r.max_new_tokens;
      admit_prompts += r.prompt_tokens;
      admit_context += r.prompt_tokens * (r.prompt_tokens + 1) / 2;
      admitted.push_back(next);
      ++next;
    }

    if (!admitted.empty()) {
      const StepShape shape{true, static_cast<int64_t>(admitted.size()),
                            admit_prompts, admit_context};
      const double dur = price(shape);
      const int op = eng.add_op(replica_res, dur);
      double start = last_end;
      for (const size_t idx : admitted) {
        eng.add_dep(op, arrival_op[idx]);
        start = std::max(start, requests[idx].arrival_ms);
      }
      const double end = start + dur;
      for (const size_t idx : admitted) {
        const ServingRequest& r = requests[idx];
        RequestTiming& t = rep.requests[idx];
        t.admit_ms = start;
        t.first_token_ms = end;
        t.generated = std::min<int64_t>(1, r.max_new_tokens);
        if (t.generated == r.max_new_tokens) {
          t.done_ms = end;  // 0- or 1-token requests finish at prefill
          reserved_total -= r.prompt_tokens + r.max_new_tokens;
        } else {
          running.push_back({idx, r.prompt_tokens, t.generated,
                             r.prompt_tokens + r.max_new_tokens});
        }
      }
      steps.push_back({op, true, start, end, shape.seqs, shape.new_tokens});
      last_end = end;
      continue;  // re-check admission before decoding
    }

    ACTCOMP_ASSERT(!running.empty(),
                   "serving scheduler stalled with requests pending");
    int64_t context = 0;
    for (const Live& l : running) context += l.cached + 1;
    const StepShape shape{false, static_cast<int64_t>(running.size()),
                          static_cast<int64_t>(running.size()), context};
    const double dur = price(shape);
    const int op = eng.add_op(replica_res, dur);
    const double start = last_end;
    const double end = start + dur;
    std::vector<Live> still;
    still.reserve(running.size());
    for (Live& l : running) {
      l.cached += 1;
      l.generated += 1;
      RequestTiming& t = rep.requests[l.idx];
      t.generated = l.generated;
      if (l.generated == requests[l.idx].max_new_tokens) {
        t.done_ms = end;
        reserved_total -= l.reserved;
      } else {
        still.push_back(l);
      }
    }
    running = std::move(still);
    steps.push_back({op, false, start, end, shape.seqs, shape.new_tokens});
    last_end = end;
  }

  // Realize the graph on the engine and check the loop's clock against it
  // exactly: the schedule is the engine's max/+ arithmetic, not a claim.
  const std::vector<OpTiming> times = eng.run();
  for (const PlannedStep& s : steps) {
    const OpTiming& t = times[static_cast<size_t>(s.op)];
    ACTCOMP_ASSERT(t.start_ms == s.start_ms && t.end_ms == s.end_ms,
                   "engine-realized step times diverge from the scheduler: ["
                       << t.start_ms << ", " << t.end_ms << "] vs ["
                       << s.start_ms << ", " << s.end_ms << "]");
    rep.steps.push_back({s.prefill, t.start_ms, t.end_ms, s.seqs, s.new_tokens});
  }

  finalize_serving_report(rep, std::vector<char>(requests.size(), 1));
  return rep;
}

}  // namespace actcomp::oracle
