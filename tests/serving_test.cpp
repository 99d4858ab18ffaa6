// Property tests for the request-level serving simulator (sim/serving.h)
// and its bridge to the calibrated TP/PP cost model
// (parallel::make_serving_cost):
//
//   - seeded determinism: same trace + config => byte-identical report
//   - exact rate scaling: one seed draws ONE unit-exponential sequence, so
//     doubling the rate exactly halves every arrival time
//   - Little's law: the event-sweep mean concurrency equals arrival rate x
//     mean end-to-end latency (two independent measurements of the same
//     bookkeeping)
//   - work conservation: the replica's steps are disjoint, ordered, and
//     fit inside the makespan
//   - tail monotonicity: a higher arrival rate (same seed) never lowers p99
//   - graceful degenerate inputs: empty trace, single request, zero-token
//     generations — plus precise validation errors for impossible inputs
//   - differential: 200 seeded traces, bit-identical to the stand-alone
//     reference loop in serving_oracle.cpp
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compression_plan.h"
#include "parallel/mp_simulator.h"
#include "serving_oracle.h"
#include "sim/serving.h"

namespace {

using namespace actcomp;

// A deterministic, hardware-free cost function: prefill pays per prompt
// token, decode pays a fixed latency plus a little per context token.
double toy_cost(const sim::StepShape& s) {
  return s.prefill ? 2.0 + 0.05 * static_cast<double>(s.new_tokens)
                   : 1.0 + 0.001 * static_cast<double>(s.context_tokens);
}

sim::ServingConfig toy_config(int64_t max_batch = 8,
                              int64_t token_budget = 4096) {
  sim::ServingConfig cfg;
  cfg.max_batch = max_batch;
  cfg.token_budget = token_budget;
  cfg.step_cost = toy_cost;
  return cfg;
}

std::vector<sim::ServingRequest> toy_trace(double rate_per_s, uint64_t seed,
                                           int n = 48) {
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = rate_per_s;
  spec.num_requests = n;
  spec.prompt_tokens = 16;
  spec.max_new_tokens = 8;
  spec.seed = seed;
  return sim::poisson_trace(spec);
}

TEST(PoissonTrace, SeededAndDeterministic) {
  const auto a = toy_trace(4.0, 7);
  const auto b = toy_trace(4.0, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << "request " << i;
  }
  const auto c = toy_trace(4.0, 8);
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].arrival_ms != c[i].arrival_ms;
  }
  EXPECT_TRUE(any_different) << "a different seed must move the arrivals";
}

TEST(PoissonTrace, DoublingTheRateExactlyHalvesArrivals) {
  // Same seed => same unit exponentials; the rate only rescales them, and
  // scaling by a power of two is exact in floating point. This is the
  // order-preservation property that makes tail monotonicity testable.
  const auto slow = toy_trace(2.0, 3);
  const auto fast = toy_trace(4.0, 3);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast[i].arrival_ms, slow[i].arrival_ms / 2.0);
  }
}

TEST(PoissonTrace, ArrivalsAreSortedAndPositive) {
  const auto t = toy_trace(10.0, 1);
  double prev = 0.0;
  for (const auto& r : t) {
    EXPECT_GT(r.arrival_ms, 0.0);
    EXPECT_GE(r.arrival_ms, prev);
    prev = r.arrival_ms;
  }
}

TEST(Percentiles, NearestRankConvention) {
  // 1..100: nearest-rank p50 = 50th sample, p99 = 99th.
  std::vector<double> s;
  for (int i = 100; i >= 1; --i) s.push_back(static_cast<double>(i));
  const auto p = sim::latency_percentiles(s);
  EXPECT_EQ(p.p50_ms, 50.0);
  EXPECT_EQ(p.p95_ms, 95.0);
  EXPECT_EQ(p.p99_ms, 99.0);
  const auto one = sim::latency_percentiles({42.0});
  EXPECT_EQ(one.p50_ms, 42.0);
  EXPECT_EQ(one.p99_ms, 42.0);
  const auto none = sim::latency_percentiles({});
  EXPECT_EQ(none.p99_ms, 0.0);
}

TEST(Serving, SameInputsSameReport) {
  const auto trace = toy_trace(6.0, 11);
  const auto a = sim::simulate_serving(trace, toy_config());
  const auto b = sim::simulate_serving(trace, toy_config());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.busy_ms, b.busy_ms);
  EXPECT_EQ(a.mean_concurrency, b.mean_concurrency);
  EXPECT_EQ(a.ttft.p99_ms, b.ttft.p99_ms);
  EXPECT_EQ(a.tpot.p99_ms, b.tpot.p99_ms);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].done_ms, b.requests[i].done_ms) << "request " << i;
  }
  ASSERT_EQ(a.steps.size(), b.steps.size());
}

TEST(Serving, EveryRequestCompletesWithItsBudget) {
  const auto trace = toy_trace(6.0, 11);
  const auto rep = sim::simulate_serving(trace, toy_config());
  ASSERT_EQ(rep.completed, static_cast<int64_t>(trace.size()));
  int64_t want_tokens = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    want_tokens += trace[i].max_new_tokens;
    const auto& t = rep.requests[i];
    EXPECT_EQ(t.generated, trace[i].max_new_tokens) << "request " << i;
    EXPECT_GE(t.admit_ms, t.arrival_ms);
    EXPECT_GT(t.first_token_ms, t.admit_ms);
    EXPECT_GE(t.done_ms, t.first_token_ms);
  }
  EXPECT_EQ(rep.generated_tokens, want_tokens);
}

TEST(Serving, LittlesLaw) {
  // L = lambda x W: the time-integrated mean concurrency (event sweep) must
  // equal completions-per-ms x mean end-to-end latency. The two sides are
  // computed from the same timeline by different code paths, so this checks
  // the bookkeeping, not an algebraic identity.
  for (const double rate : {2.0, 8.0, 32.0}) {
    const auto trace = toy_trace(rate, 5);
    const auto rep = sim::simulate_serving(trace, toy_config());
    ASSERT_GT(rep.makespan_ms, 0.0);
    double mean_e2e = 0.0;
    for (const auto& t : rep.requests) mean_e2e += t.e2e_ms();
    mean_e2e /= static_cast<double>(rep.requests.size());
    const double lambda = static_cast<double>(rep.completed) / rep.makespan_ms;
    EXPECT_NEAR(rep.mean_concurrency, lambda * mean_e2e,
                1e-9 * rep.mean_concurrency)
        << "rate " << rate;
  }
}

TEST(Serving, WorkConservation) {
  const auto trace = toy_trace(16.0, 9);
  const auto rep = sim::simulate_serving(trace, toy_config());
  // The replica's steps are serial: disjoint, ordered, inside the horizon.
  double prev_end = 0.0;
  double busy = 0.0;
  for (const auto& s : rep.steps) {
    EXPECT_GE(s.start_ms, prev_end);
    EXPECT_GT(s.end_ms, s.start_ms);
    prev_end = s.end_ms;
    busy += s.end_ms - s.start_ms;
  }
  EXPECT_EQ(busy, rep.busy_ms);
  EXPECT_GE(rep.steps.front().start_ms, trace.front().arrival_ms);
  EXPECT_LE(rep.busy_ms,
            rep.makespan_ms * (1.0 + 1e-12) + 1e-9);
}

TEST(Serving, HigherRateNeverLowersTheTail) {
  // Same seed => same unit exponentials, compressed in time. With an
  // amortization-free cost (strictly linear in tokens, no fixed per-step
  // term) the replica is a work-conserving FIFO server, and the Lindley
  // recursion makes every request's latency non-decreasing as the
  // inter-arrival gaps shrink. NOTE the cost model matters: a fixed per-step
  // cost CAN make p99 drop at higher load, because bigger batches amortize
  // it — that is continuous batching working as intended, not a bug.
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) {
    return 0.1 * static_cast<double>(s.new_tokens) +
           0.002 * static_cast<double>(s.context_tokens);
  };
  sim::LatencyPercentiles prev_ttft, prev_e2e;
  bool first = true;
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto rep = sim::simulate_serving(toy_trace(rate, 21), cfg);
    const double slack = 1.0 - 1e-12;  // exact ties under FP reassociation
    if (!first) {
      EXPECT_GE(rep.ttft.p99_ms, prev_ttft.p99_ms * slack) << "rate " << rate;
      EXPECT_GE(rep.ttft.p50_ms, prev_ttft.p50_ms * slack) << "rate " << rate;
      EXPECT_GE(rep.e2e.p99_ms, prev_e2e.p99_ms * slack) << "rate " << rate;
    }
    prev_ttft = rep.ttft;
    prev_e2e = rep.e2e;
    first = false;
  }
  // And across the whole sweep the saturation is strict: 16x the arrival
  // rate must visibly stretch the tail.
  const auto slow = sim::simulate_serving(toy_trace(1.0, 21), cfg);
  const auto fast = sim::simulate_serving(toy_trace(16.0, 21), cfg);
  EXPECT_GT(fast.e2e.p99_ms, slow.e2e.p99_ms);
}

TEST(Serving, SingleRequestTimelineIsExact) {
  // One request, constant costs: the whole timeline is checkable by hand.
  // prefill [5, 7), then max_new - 1 decode steps of 1 ms each.
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) { return s.prefill ? 2.0 : 1.0; };
  const std::vector<sim::ServingRequest> trace = {{5.0, 16, 4}};
  const auto rep = sim::simulate_serving(trace, cfg);
  ASSERT_EQ(rep.completed, 1);
  const auto& t = rep.requests[0];
  EXPECT_EQ(t.admit_ms, 5.0);
  EXPECT_EQ(t.first_token_ms, 7.0);
  EXPECT_EQ(t.done_ms, 10.0);  // 7 + three decode steps
  EXPECT_EQ(t.generated, 4);
  EXPECT_EQ(rep.ttft.p50_ms, 2.0);
  EXPECT_EQ(rep.ttft.p99_ms, 2.0);
  EXPECT_EQ(rep.e2e.p99_ms, 5.0);
  EXPECT_EQ(rep.makespan_ms, 5.0);
  EXPECT_EQ(rep.busy_ms, 5.0);
  EXPECT_EQ(rep.mean_concurrency, 1.0);
  ASSERT_EQ(rep.steps.size(), 4u);  // 1 prefill + 3 decodes
  EXPECT_TRUE(rep.steps[0].prefill);
}

TEST(Serving, EmptyTraceDegradesGracefully) {
  const auto rep = sim::simulate_serving({}, toy_config());
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(rep.generated_tokens, 0);
  EXPECT_EQ(rep.makespan_ms, 0.0);
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_EQ(rep.ttft.p99_ms, 0.0);
}

TEST(Serving, ZeroTokenGenerationFinishesAtPrefill) {
  // max_new_tokens == 0: the request is prefilled and completes immediately;
  // it contributes no TTFT/TPOT samples (nothing was generated).
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) { return s.prefill ? 2.0 : 1.0; };
  const std::vector<sim::ServingRequest> trace = {{0.0, 8, 0}, {0.0, 8, 2}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_EQ(rep.requests[0].generated, 0);
  EXPECT_EQ(rep.requests[0].done_ms, rep.requests[0].first_token_ms);
  EXPECT_EQ(rep.generated_tokens, 2);
  // Only request 1 contributes a TTFT sample; both share the prefill step.
  EXPECT_EQ(rep.ttft.p50_ms, rep.requests[1].ttft_ms());
}

TEST(Serving, TokenBudgetSerializesAdmission) {
  // Budget fits exactly one request's prompt + max_new: the second request
  // cannot be admitted until the first completes and frees its reservation.
  sim::ServingConfig cfg = toy_config(/*max_batch=*/8, /*token_budget=*/24);
  const std::vector<sim::ServingRequest> trace = {{0.0, 16, 8}, {0.0, 16, 8}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_GE(rep.requests[1].admit_ms, rep.requests[0].done_ms);
  EXPECT_EQ(rep.completed, 2);
}

TEST(Serving, MaxBatchSerializesAdmission) {
  sim::ServingConfig cfg = toy_config(/*max_batch=*/1);
  const std::vector<sim::ServingRequest> trace = {{0.0, 16, 8}, {0.0, 16, 8}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_GE(rep.requests[1].admit_ms, rep.requests[0].done_ms);
}

TEST(ServingValidation, PreciseErrors) {
  const std::vector<sim::ServingRequest> ok = {{0.0, 16, 8}};
  sim::ServingConfig no_cost = toy_config();
  no_cost.step_cost = nullptr;
  EXPECT_THROW(sim::validate_serving_inputs(ok, no_cost),
               std::invalid_argument);
  EXPECT_THROW(sim::validate_serving_inputs({{0.0, 0, 8}}, toy_config()),
               std::invalid_argument);  // zero-length prompt
  EXPECT_THROW(sim::validate_serving_inputs({{0.0, 16, -1}}, toy_config()),
               std::invalid_argument);  // negative generation budget
  EXPECT_THROW(sim::validate_serving_inputs({{-1.0, 16, 8}}, toy_config()),
               std::invalid_argument);  // negative arrival
  EXPECT_THROW(
      sim::validate_serving_inputs({{5.0, 16, 8}, {4.0, 16, 8}}, toy_config()),
      std::invalid_argument);  // unsorted arrivals
  EXPECT_THROW(sim::validate_serving_inputs(
                   {{0.0, 16, 8}}, toy_config(/*max_batch=*/8,
                                              /*token_budget=*/16)),
               std::invalid_argument);  // could never be admitted
  EXPECT_THROW(sim::poisson_trace({0.0, 4, 16, 8, 1}),
               std::invalid_argument);  // rate must be positive
}

// ---- Differential: simulate_serving against the stand-alone reference. ----

/// Bit pattern of a double, so -0.0 vs 0.0 or two NaNs count as they are.
uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Empty when the two reports agree in every field, bit for bit; otherwise
/// the first field that differs.
std::string first_difference(const sim::ServingReport& a,
                             const sim::ServingReport& b) {
  std::ostringstream os;
  auto num = [&](const char* name, double x, double y) {
    if (os.tellp() == 0 && bits(x) != bits(y)) {
      os << name << ": " << x << " vs " << y;
    }
  };
  auto pct = [&](const char* name, const sim::LatencyPercentiles& x,
                 const sim::LatencyPercentiles& y) {
    const std::string n(name);
    num((n + ".p50").c_str(), x.p50_ms, y.p50_ms);
    num((n + ".p95").c_str(), x.p95_ms, y.p95_ms);
    num((n + ".p99").c_str(), x.p99_ms, y.p99_ms);
  };
  num("completed", static_cast<double>(a.completed),
      static_cast<double>(b.completed));
  num("generated_tokens", static_cast<double>(a.generated_tokens),
      static_cast<double>(b.generated_tokens));
  num("makespan_ms", a.makespan_ms, b.makespan_ms);
  num("busy_ms", a.busy_ms, b.busy_ms);
  num("mean_concurrency", a.mean_concurrency, b.mean_concurrency);
  pct("ttft", a.ttft, b.ttft);
  pct("tpot", a.tpot, b.tpot);
  pct("e2e", a.e2e, b.e2e);
  num("requests.size", static_cast<double>(a.requests.size()),
      static_cast<double>(b.requests.size()));
  num("steps.size", static_cast<double>(a.steps.size()),
      static_cast<double>(b.steps.size()));
  if (os.tellp() != 0) return os.str();
  for (size_t i = 0; i < a.requests.size() && os.tellp() == 0; ++i) {
    const sim::RequestTiming& x = a.requests[i];
    const sim::RequestTiming& y = b.requests[i];
    const std::string at = "requests[" + std::to_string(i) + "].";
    num((at + "arrival_ms").c_str(), x.arrival_ms, y.arrival_ms);
    num((at + "admit_ms").c_str(), x.admit_ms, y.admit_ms);
    num((at + "first_token_ms").c_str(), x.first_token_ms, y.first_token_ms);
    num((at + "done_ms").c_str(), x.done_ms, y.done_ms);
    num((at + "prompt_tokens").c_str(), static_cast<double>(x.prompt_tokens),
        static_cast<double>(y.prompt_tokens));
    num((at + "generated").c_str(), static_cast<double>(x.generated),
        static_cast<double>(y.generated));
  }
  for (size_t i = 0; i < a.steps.size() && os.tellp() == 0; ++i) {
    const sim::StepTiming& x = a.steps[i];
    const sim::StepTiming& y = b.steps[i];
    const std::string at = "steps[" + std::to_string(i) + "].";
    num((at + "prefill").c_str(), x.prefill, y.prefill);
    num((at + "start_ms").c_str(), x.start_ms, y.start_ms);
    num((at + "end_ms").c_str(), x.end_ms, y.end_ms);
    num((at + "seqs").c_str(), static_cast<double>(x.seqs),
        static_cast<double>(y.seqs));
    num((at + "new_tokens").c_str(), static_cast<double>(x.new_tokens),
        static_cast<double>(y.new_tokens));
    num((at + "replica").c_str(), x.replica, y.replica);
  }
  return os.str();
}

TEST(ServingDifferential, RandomTracesMatchTheReferenceLoopBitForBit) {
  // 200 seeded traces through simulate_serving (the fleet scheduler's
  // one-replica case) and the stand-alone reference loop. Half the traces
  // sit on an integer-millisecond grid with integer step costs, so step
  // ends land exactly on arrivals (the tie the arrival cursor must order
  // before step ends); the other half use continuous times and costs. Every
  // trace mixes prompt lengths 1-64 with 0-, 1- and 2..40-token generations
  // and has runs of equal arrival times; max_batch cycles through 1, 3 and
  // 8, and the token budget through one, two and ~three requests' worth of
  // the largest need, plus one budget that never binds.
  std::mt19937_64 rng(20261018);
  auto below = [&](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  const int64_t batches[] = {1, 3, 8};
  int binding = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool grid = trial % 2 == 0;
    std::vector<sim::ServingRequest> trace;
    const int64_t n = 1 + below(48);
    double t = grid ? static_cast<double>(below(5)) : 10.0 * unit();
    int64_t max_need = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0 && below(10) >= 4) {  // ~40% share the previous arrival time
        t += grid ? static_cast<double>(1 + below(6)) : 8.0 * unit();
      }
      const int64_t kind = below(5);
      const int64_t gen = kind == 0 ? 0 : kind == 1 ? 1 : 2 + below(39);
      trace.push_back({t, 1 + below(64), gen});
      max_need = std::max(max_need, trace.back().prompt_tokens + gen);
    }
    sim::ServingConfig cfg;
    cfg.max_batch = batches[trial % 3];
    const int64_t budget_kind = (trial / 3) % 4;
    cfg.token_budget = budget_kind == 3 ? 1 << 20
                                        : max_need * (budget_kind + 1) +
                                              below(max_need / 2 + 1);
    binding += budget_kind < 3 && cfg.max_batch > 1 ? 1 : 0;
    if (grid) {
      cfg.step_cost = [](const sim::StepShape& s) {
        return s.prefill ? static_cast<double>(2 + s.new_tokens / 32)
                         : static_cast<double>(1 + s.context_tokens / 512);
      };
    } else {
      cfg.step_cost = [](const sim::StepShape& s) {
        return s.prefill ? 0.7 + 0.031 * static_cast<double>(s.new_tokens)
                         : 0.3 + 0.0017 * static_cast<double>(s.context_tokens);
      };
    }
    const sim::ServingReport want = oracle::reference_simulate_serving(trace, cfg);
    const sim::ServingReport got = sim::simulate_serving(trace, cfg);
    ASSERT_EQ(first_difference(got, want), "")
        << "trial " << trial << " (" << n << " requests, max_batch "
        << cfg.max_batch << ", token_budget " << cfg.token_budget << ")";
  }
  EXPECT_GT(binding, 200 / 3) << "a budget must bind in many traces";
}

// ---- The bridge to the calibrated cost model. ----

TEST(InferenceCost, ValidatesShapes) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::none();
  EXPECT_THROW(sim.inference_step_cost(plan, {0, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(sim.inference_step_cost(plan, {1, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(sim.inference_step_cost(plan, {1, 4, 2}),
               std::invalid_argument);  // context < new_tokens
  EXPECT_THROW(sim.run_inference(plan, 0, 4), std::invalid_argument);
  EXPECT_THROW(sim.run_inference(plan, 16, -1), std::invalid_argument);
}

TEST(InferenceCost, BreakdownIsConsistent) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::none();
  const auto b = sim.run_inference(plan, 128, 32);
  EXPECT_GT(b.ttft_ms, 0.0);
  EXPECT_GT(b.per_token_ms, 0.0);
  EXPECT_NEAR(b.total_ms, b.ttft_ms + 31.0 * b.per_token_ms,
              1e-9 * b.total_ms);
  // Degenerate generations: nothing decoded after the prefill.
  const auto one = sim.run_inference(plan, 128, 1);
  EXPECT_EQ(one.total_ms, one.ttft_ms);
  EXPECT_EQ(one.per_token_ms, 0.0);
  const auto none = sim.run_inference(plan, 128, 0);
  EXPECT_EQ(none.total_ms, none.ttft_ms);
}

TEST(InferenceCost, CompressionTaxesDecodeOnNvlink) {
  // The serving twin of the paper's Takeaway 1: on a fast intra-node link a
  // decode step's collectives are latency-bound, so a compressor's fixed
  // per-step overhead can only hurt.
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto layers = nn::BertConfig::bert_large().num_layers;
  const parallel::InferenceBatch decode{8, 8, 8 * 144};
  const double base =
      sim.inference_step_cost(core::CompressionPlan::none(), decode).total_ms();
  for (const auto s : {compress::Setting::kA2, compress::Setting::kT3,
                       compress::Setting::kQ2}) {
    const auto plan = core::CompressionPlan::paper_default(s, layers);
    EXPECT_GT(sim.inference_step_cost(plan, decode).total_ms(), base)
        << compress::setting_label(s);
  }
}

TEST(InferenceCost, MakeServingCostMatchesStepCost) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(2), nn::BertConfig::bert_large(), {8, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::paper_default(
      compress::Setting::kQ2, nn::BertConfig::bert_large().num_layers);
  const sim::StepCostFn fn = parallel::make_serving_cost(sim, plan);
  const sim::StepShape prefill{true, 2, 256, 2 * 128 * 129 / 2};
  const sim::StepShape decode{false, 4, 4, 4 * 150};
  EXPECT_EQ(fn(prefill),
            sim.inference_step_cost(plan, {2, 256, 2 * 128 * 129 / 2})
                .total_ms());
  EXPECT_EQ(fn(decode),
            sim.inference_step_cost(plan, {4, 4, 4 * 150}).total_ms());
}

TEST(InferenceCost, ServingEndToEndThroughCalibratedModel) {
  // The full stack: Poisson trace -> continuous batching -> engine-checked
  // schedule, priced by the calibrated simulator. Smoke-checks the shape of
  // the report rather than exact numbers (the golden bench pins those).
  parallel::ModelParallelSimulator mp(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  sim::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.token_budget = 1024;
  cfg.step_cost =
      parallel::make_serving_cost(mp, core::CompressionPlan::none());
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 8.0;
  spec.num_requests = 16;
  spec.prompt_tokens = 64;
  spec.max_new_tokens = 8;
  spec.seed = 2;
  const auto rep = sim::simulate_serving(sim::poisson_trace(spec), cfg);
  EXPECT_EQ(rep.completed, 16);
  EXPECT_EQ(rep.generated_tokens, 16 * 8);
  EXPECT_GT(rep.throughput_tok_s(), 0.0);
  EXPECT_GT(rep.ttft.p50_ms, 0.0);
  EXPECT_GE(rep.ttft.p99_ms, rep.ttft.p50_ms);
  EXPECT_GE(rep.tpot.p99_ms, rep.tpot.p50_ms);
}

}  // namespace
