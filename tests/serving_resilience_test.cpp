// Tests for the fault-tolerant multi-replica serving runtime
// (sim/serving_resilience.h) and the trace-file round-trip
// (sim/serving_trace.h):
//
//   - clean path: one replica, no faults/retries/shedding/degradation =>
//     field-for-field identical to the stand-alone reference loop in
//     serving_oracle.cpp (toy cost AND the calibrated
//     make_serving_cost_ladder rung 0) — an independent implementation of
//     the schedule simulate_serving reports
//   - seeded determinism under faults: same trace + config => identical
//     reports; a different fault seed moves the schedule
//   - work conservation: completed + shed + failed == offered, no request
//     lost or double-counted, under crashes and retries
//   - hedging: rescues a request stuck on a browned-out replica and never
//     worsens the tail in that regime; first-wins accounting (hedge_wins)
//   - shedding: shed requests reported separately, never in the percentiles
//   - SLO degradation: hysteresis controller escalates/de-escalates with a
//     dead band (no oscillation on constant load) and escalation beats the
//     fixed w/o setting under overload
//   - routing: JSQ keeps work off a dead replica; blind round-robin needs
//     timeouts+retries to survive the same fleet
//   - ReplicaFaultProcess determinism; serving-trace JSON round-trips
//     exactly; precise validation errors
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/mp_simulator.h"
#include "sim/serving.h"
#include "sim/serving_resilience.h"
#include "sim/serving_trace.h"
#include "serving_oracle.h"

namespace {

using namespace actcomp;

double toy_cost(const sim::StepShape& s) {
  return s.prefill ? 2.0 + 0.05 * static_cast<double>(s.new_tokens)
                   : 1.0 + 0.001 * static_cast<double>(s.context_tokens);
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

sim::ResilientServingConfig fleet(int replicas) {
  sim::ResilientServingConfig cfg;
  cfg.num_replicas = replicas;
  cfg.max_batch = 8;
  cfg.token_budget = 4096;
  cfg.cost_ladder = {toy_cost};
  return cfg;
}

sim::ReplicaFaultSpec crashy(double mtbf_ms, double repair_ms, uint64_t seed) {
  sim::ReplicaFaultSpec s;
  s.mtbf_ms = mtbf_ms;
  s.repair_ms = repair_ms;
  s.seed = seed;
  return s;
}

sim::ReplicaFaultSpec browned(double factor, uint64_t seed) {
  // First brown-out window opens almost immediately and lasts forever: the
  // replica is persistently `factor`x slow.
  sim::ReplicaFaultSpec s;
  s.slow_mtbf_ms = 1e-3;
  s.slow_duration_ms = 1e12;
  s.slow_factor = factor;
  s.seed = seed;
  return s;
}

void expect_serving_reports_equal(const sim::ServingReport& a,
                                  const sim::ServingReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.busy_ms, b.busy_ms);
  EXPECT_EQ(a.mean_concurrency, b.mean_concurrency);
  EXPECT_EQ(a.ttft.p50_ms, b.ttft.p50_ms);
  EXPECT_EQ(a.ttft.p99_ms, b.ttft.p99_ms);
  EXPECT_EQ(a.tpot.p50_ms, b.tpot.p50_ms);
  EXPECT_EQ(a.tpot.p99_ms, b.tpot.p99_ms);
  EXPECT_EQ(a.e2e.p50_ms, b.e2e.p50_ms);
  EXPECT_EQ(a.e2e.p95_ms, b.e2e.p95_ms);
  EXPECT_EQ(a.e2e.p99_ms, b.e2e.p99_ms);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival_ms, b.requests[i].arrival_ms) << i;
    EXPECT_EQ(a.requests[i].admit_ms, b.requests[i].admit_ms) << i;
    EXPECT_EQ(a.requests[i].first_token_ms, b.requests[i].first_token_ms) << i;
    EXPECT_EQ(a.requests[i].done_ms, b.requests[i].done_ms) << i;
    EXPECT_EQ(a.requests[i].generated, b.requests[i].generated) << i;
  }
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].prefill, b.steps[i].prefill) << i;
    EXPECT_EQ(a.steps[i].start_ms, b.steps[i].start_ms) << i;
    EXPECT_EQ(a.steps[i].end_ms, b.steps[i].end_ms) << i;
    EXPECT_EQ(a.steps[i].seqs, b.steps[i].seqs) << i;
    EXPECT_EQ(a.steps[i].new_tokens, b.steps[i].new_tokens) << i;
    EXPECT_EQ(a.steps[i].replica, b.steps[i].replica) << i;
  }
}

void expect_resilient_reports_equal(const sim::ResilientServingReport& a,
                                    const sim::ResilientServingReport& b) {
  expect_serving_reports_equal(a.serving, b.serving);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.killed_copies, b.killed_copies);
  EXPECT_EQ(a.wasted_tokens, b.wasted_tokens);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << i;
  }
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (size_t r = 0; r < a.replicas.size(); ++r) {
    EXPECT_EQ(a.replicas[r].completed, b.replicas[r].completed) << r;
    EXPECT_EQ(a.replicas[r].steps, b.replicas[r].steps) << r;
    EXPECT_EQ(a.replicas[r].busy_ms, b.replicas[r].busy_ms) << r;
    EXPECT_EQ(a.replicas[r].crashes, b.replicas[r].crashes) << r;
  }
}

void expect_work_conserved(const sim::ResilientServingReport& rep) {
  int64_t completed = 0, shed = 0, failed = 0;
  for (size_t i = 0; i < rep.outcomes.size(); ++i) {
    switch (rep.outcomes[i]) {
      case sim::RequestOutcome::kCompleted: {
        ++completed;
        EXPECT_GT(rep.serving.requests[i].done_ms, 0.0) << i;
        break;
      }
      case sim::RequestOutcome::kShed: {
        ++shed;
        EXPECT_EQ(rep.serving.requests[i].generated, 0) << i;
        break;
      }
      case sim::RequestOutcome::kFailed: {
        ++failed;
        EXPECT_EQ(rep.serving.requests[i].done_ms, 0.0) << i;
        break;
      }
    }
  }
  EXPECT_EQ(completed, rep.serving.completed);
  EXPECT_EQ(shed, rep.shed);
  EXPECT_EQ(failed, rep.failed);
  EXPECT_EQ(completed + shed + failed, rep.offered);
  EXPECT_EQ(rep.offered, static_cast<int64_t>(rep.outcomes.size()));
}

TEST(CleanPath, MatchesSimulateServingWithToyCost) {
  const auto trace = toy_trace(6.0, 11);
  sim::ServingConfig base;
  base.max_batch = 8;
  base.token_budget = 4096;
  base.step_cost = toy_cost;
  const auto want = oracle::reference_simulate_serving(trace, base);

  const auto got = sim::simulate_serving_resilient(trace, fleet(1));
  expect_serving_reports_equal(got.serving, want);
  EXPECT_EQ(got.offered, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(got.shed, 0);
  EXPECT_EQ(got.failed, 0);
  EXPECT_EQ(got.retries, 0);
  EXPECT_EQ(got.crashes, 0);
  EXPECT_EQ(got.dispatches, got.offered);
  for (const auto o : got.outcomes) {
    EXPECT_EQ(o, sim::RequestOutcome::kCompleted);
  }
  for (const auto& s : got.serving.steps) EXPECT_EQ(s.replica, 0);
}

TEST(CleanPath, MatchesSimulateServingWithCalibratedLadder) {
  // The calibrated cost ladder's rung 0 prices exactly what ablation_serving
  // feeds simulate_serving — the fleet path must realize the schedule of the
  // reference loop.
  const nn::BertConfig model = nn::BertConfig::bert_large();
  parallel::ModelParallelSimulator mp(sim::ClusterSpec::aws_p3(2), model,
                                      {8, 1}, parallel::TrainJob{});
  auto ladder = parallel::make_serving_cost_ladder(mp, model.num_layers);
  ASSERT_EQ(ladder.size(), parallel::serving_ladder_settings().size());

  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 1.5;
  spec.num_requests = 24;
  spec.prompt_tokens = 128;
  spec.max_new_tokens = 32;
  spec.seed = 1;
  const auto trace = sim::poisson_trace(spec);

  sim::ServingConfig base;
  base.max_batch = 8;
  base.token_budget = 2048;
  base.step_cost = ladder[0];
  const auto want = oracle::reference_simulate_serving(trace, base);

  sim::ResilientServingConfig cfg;
  cfg.num_replicas = 1;
  cfg.max_batch = 8;
  cfg.token_budget = 2048;
  cfg.cost_ladder = std::move(ladder);
  const auto got = sim::simulate_serving_resilient(trace, cfg);
  expect_serving_reports_equal(got.serving, want);
}

TEST(Determinism, SameSeedSameReportUnderFaults) {
  const auto trace = toy_trace(6.0, 5);
  auto cfg = fleet(3);
  cfg.policy = sim::RoutePolicy::kJoinShortestQueue;
  cfg.replica_faults = {crashy(1500.0, 300.0, 21), crashy(2000.0, 250.0, 22),
                        crashy(900.0, 400.0, 23)};
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_ms = 1.0;
  cfg.retry.timeout_ms = 250.0;

  const auto a = sim::simulate_serving_resilient(trace, cfg);
  const auto b = sim::simulate_serving_resilient(trace, cfg);
  expect_resilient_reports_equal(a, b);
  EXPECT_GT(a.crashes, 0) << "scenario should actually crash";
  expect_work_conserved(a);
}

TEST(Determinism, DifferentFaultSeedMovesTheSchedule) {
  const auto trace = toy_trace(6.0, 5);
  auto cfg = fleet(2);
  cfg.replica_faults = {crashy(1000.0, 300.0, 1), crashy(1000.0, 300.0, 2)};
  cfg.retry.max_attempts = 4;
  cfg.retry.timeout_ms = 250.0;
  const auto a = sim::simulate_serving_resilient(trace, cfg);
  auto cfg2 = cfg;
  cfg2.replica_faults[0].seed = 77;
  cfg2.replica_faults[1].seed = 78;
  const auto b = sim::simulate_serving_resilient(trace, cfg2);
  const bool moved = a.serving.makespan_ms != b.serving.makespan_ms ||
                     a.crashes != b.crashes ||
                     a.serving.busy_ms != b.serving.busy_ms;
  EXPECT_TRUE(moved) << "different fault seeds must realize different "
                        "schedules";
}

TEST(Retries, WorkIsConservedUnderCrashes) {
  const auto trace = toy_trace(150.0, 9, 96);
  auto cfg = fleet(3);
  cfg.policy = sim::RoutePolicy::kJoinShortestQueue;
  cfg.replica_faults = {crashy(60.0, 30.0, 31), crashy(80.0, 25.0, 32),
                        crashy(70.0, 40.0, 33)};
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_ms = 2.0;
  const auto rep = sim::simulate_serving_resilient(trace, cfg);
  expect_work_conserved(rep);
  EXPECT_GT(rep.crashes, 0);
  EXPECT_GT(rep.killed_copies, 0);
  EXPECT_GT(rep.retries, 0);
  EXPECT_EQ(rep.shed, 0) << "no admission policy configured";
  // Every killed or timed-out copy was re-dispatched or gave up explicitly.
  EXPECT_EQ(rep.dispatches, rep.offered - rep.shed + rep.retries + rep.hedges);
}

TEST(Hedging, RescuesARequestOnABrownedOutReplica) {
  // One request, two replicas. Round-robin sends it to replica 0, which is
  // 50x slow; the hedge fires 5 ms later on the healthy replica 1 and wins.
  const std::vector<sim::ServingRequest> trace = {{10.0, 16, 8}};
  auto slow_cfg = fleet(2);
  slow_cfg.replica_faults = {browned(50.0, 3), sim::ReplicaFaultSpec{}};
  const auto without = sim::simulate_serving_resilient(trace, slow_cfg);
  ASSERT_EQ(without.serving.completed, 1);

  auto hedge_cfg = slow_cfg;
  hedge_cfg.retry.hedge_after_ms = 5.0;
  const auto with = sim::simulate_serving_resilient(trace, hedge_cfg);
  ASSERT_EQ(with.serving.completed, 1);
  EXPECT_EQ(with.hedges, 1);
  EXPECT_EQ(with.hedge_wins, 1);
  EXPECT_LT(with.serving.requests[0].e2e_ms(),
            without.serving.requests[0].e2e_ms());

  // The winning timeline is the clean single-replica one, shifted by the
  // hedge delay: the request waited hedge_after_ms, then ran cleanly.
  sim::ServingConfig base;
  base.max_batch = 8;
  base.token_budget = 4096;
  base.step_cost = toy_cost;
  const auto clean = oracle::reference_simulate_serving(trace, base);
  EXPECT_NEAR(with.serving.requests[0].e2e_ms(),
              5.0 + clean.requests[0].e2e_ms(), 1e-9);
}

TEST(Hedging, NeverWorsensTheTailOnABrownedFleet) {
  // Half the round-robin traffic lands on the 20x replica; hedging gives
  // those requests a fast second chance. The tail with hedging must be no
  // worse than without — and strictly better here.
  const auto trace = toy_trace(6.0, 13, 40);
  auto cfg = fleet(2);
  cfg.replica_faults = {browned(20.0, 7), sim::ReplicaFaultSpec{}};
  const auto without = sim::simulate_serving_resilient(trace, cfg);

  auto hedge_cfg = cfg;
  hedge_cfg.retry.hedge_after_ms = 30.0;
  const auto with = sim::simulate_serving_resilient(trace, hedge_cfg);

  expect_work_conserved(with);
  EXPECT_GT(with.hedges, 0);
  EXPECT_GT(with.hedge_wins, 0);
  EXPECT_LE(with.serving.e2e.p99_ms, without.serving.e2e.p99_ms);
  EXPECT_LT(with.serving.e2e.p99_ms, 0.5 * without.serving.e2e.p99_ms)
      << "hedging should dramatically shorten the browned-out tail";
}

TEST(Shedding, ShedRequestsAreReportedSeparately) {
  // A burst of 10 simultaneous arrivals against a 48-token backpressure cap
  // (= 2 requests of 16 prompt + 8 new): exactly two admit, eight shed.
  std::vector<sim::ServingRequest> trace;
  for (int i = 0; i < 10; ++i) trace.push_back({1.0, 16, 8});
  auto cfg = fleet(1);
  cfg.admission.max_queued_tokens = 48;
  const auto rep = sim::simulate_serving_resilient(trace, cfg);
  expect_work_conserved(rep);
  EXPECT_EQ(rep.serving.completed, 2);
  EXPECT_EQ(rep.shed, 8);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_DOUBLE_EQ(rep.shed_rate(), 0.8);
  // Percentiles cover the two completed requests only — both finished, so
  // the p99 is a real latency, not polluted by zero-filled shed entries.
  EXPECT_GT(rep.serving.e2e.p99_ms, 0.0);
  EXPECT_EQ(rep.serving.generated_tokens, 2 * 8);
}

TEST(SloController, EscalatesOnlyAfterHoldWindows) {
  sim::ServingDegradeSpec spec;
  spec.enabled = true;
  spec.window = 4;
  spec.hold_windows = 2;
  sim::SloDegradationController ctl(spec, 100.0, 3);
  // First breaching window: no transition yet (hold_windows = 2).
  for (int i = 0; i < 4; ++i) ctl.observe_e2e(150.0);
  EXPECT_EQ(ctl.level(), 0);
  EXPECT_EQ(ctl.last_window_p99(), 150.0);
  // Second consecutive breach: escalate.
  for (int i = 0; i < 4; ++i) ctl.observe_e2e(150.0);
  EXPECT_EQ(ctl.level(), 1);
  EXPECT_EQ(ctl.escalations(), 1);
}

TEST(SloController, ConstantLoadNeverOscillates) {
  sim::ServingDegradeSpec spec;
  spec.enabled = true;
  spec.window = 4;
  spec.hold_windows = 2;
  // Constant latency above the SLO: walks to the top of the ladder and
  // stays — exactly (num_levels - 1) escalations, never a de-escalation.
  {
    sim::SloDegradationController ctl(spec, 100.0, 3);
    for (int i = 0; i < 200; ++i) ctl.observe_e2e(150.0);
    EXPECT_EQ(ctl.level(), 2);
    EXPECT_EQ(ctl.escalations(), 2);
    EXPECT_EQ(ctl.deescalations(), 0);
  }
  // Constant latency inside the dead band (recover x SLO = 70 < 90 < 100):
  // no transitions at all, in either direction.
  {
    sim::SloDegradationController ctl(spec, 100.0, 3);
    for (int i = 0; i < 200; ++i) ctl.observe_e2e(90.0);
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_EQ(ctl.escalations(), 0);
    EXPECT_EQ(ctl.deescalations(), 0);
  }
  // Recovery: sustained low latency de-escalates back to 0 and stays.
  {
    sim::SloDegradationController ctl(spec, 100.0, 3);
    for (int i = 0; i < 80; ++i) ctl.observe_e2e(150.0);
    EXPECT_EQ(ctl.level(), 2);
    for (int i = 0; i < 200; ++i) ctl.observe_e2e(40.0);
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_EQ(ctl.deescalations(), 2);
    EXPECT_EQ(ctl.escalations(), 2);
    EXPECT_EQ(ctl.max_level_seen(), 2);
  }
}

TEST(Degradation, EscalationRecoversAnOverloadedFleet) {
  // Fixed-interval arrivals demand 2 tokens/ms; the quality-first rung
  // sustains 8/6 ≈ 1.3 tokens/ms (overload, queue grows without bound), the
  // compressed rung 8/0.5 = 16 (comfortable). The adaptive ladder escalates
  // and drains; the fixed w/o config cannot.
  std::vector<sim::ServingRequest> trace;
  for (int i = 0; i < 160; ++i) {
    trace.push_back({4.0 * static_cast<double>(i), 16, 8});
  }
  auto slow = [](const sim::StepShape& s) { return s.prefill ? 4.0 : 6.0; };
  auto fast = [](const sim::StepShape& s) { return s.prefill ? 1.0 : 0.5; };

  auto fixed_cfg = fleet(1);
  fixed_cfg.cost_ladder = {slow, fast};
  fixed_cfg.slo_e2e_p99_ms = 60.0;
  const auto fixed = sim::simulate_serving_resilient(trace, fixed_cfg);

  auto adaptive_cfg = fixed_cfg;
  adaptive_cfg.degrade.enabled = true;
  adaptive_cfg.degrade.window = 16;
  adaptive_cfg.degrade.hold_windows = 2;
  const auto adaptive = sim::simulate_serving_resilient(trace, adaptive_cfg);

  expect_work_conserved(adaptive);
  EXPECT_EQ(fixed.escalations, 0);
  EXPECT_GE(adaptive.escalations, 1);
  EXPECT_GE(adaptive.max_level_seen, 1);
  EXPECT_LT(adaptive.serving.e2e.p99_ms, fixed.serving.e2e.p99_ms);
  EXPECT_GT(adaptive.goodput_tok_s(), fixed.goodput_tok_s());
}

TEST(Routing, JsqRoutesAroundADeadReplica) {
  // Replica 1 crashes at t ~ 0 and stays down for the whole trace. JSQ only
  // considers UP replicas, so every request lands on replica 0 first try.
  const auto trace = toy_trace(6.0, 17);
  auto cfg = fleet(2);
  cfg.policy = sim::RoutePolicy::kJoinShortestQueue;
  cfg.replica_faults = {sim::ReplicaFaultSpec{}, crashy(1e-3, 1e9, 5)};
  const auto rep = sim::simulate_serving_resilient(trace, cfg);
  expect_work_conserved(rep);
  EXPECT_EQ(rep.serving.completed, rep.offered);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.retries, 0);
  EXPECT_EQ(rep.replicas[1].completed, 0);
  EXPECT_EQ(rep.replicas[1].crashes, 1);
  EXPECT_EQ(rep.replicas[0].completed, rep.offered);
}

TEST(Routing, BlindRoundRobinNeedsTimeoutsOnTheSameFleet) {
  // Same dead-replica fleet under blind round-robin: half the dispatches
  // land on the corpse and only timeout+retry rescues them — strictly worse
  // tail than JSQ, which is the whole case for health-aware routing.
  const auto trace = toy_trace(6.0, 17);
  auto jsq = fleet(2);
  jsq.policy = sim::RoutePolicy::kJoinShortestQueue;
  jsq.replica_faults = {sim::ReplicaFaultSpec{}, crashy(1e-3, 1e9, 5)};
  const auto jsq_rep = sim::simulate_serving_resilient(trace, jsq);

  auto rr = jsq;
  rr.policy = sim::RoutePolicy::kRoundRobin;
  rr.retry.max_attempts = 6;
  rr.retry.timeout_ms = 20.0;
  rr.retry.backoff_ms = 1.0;
  const auto rr_rep = sim::simulate_serving_resilient(trace, rr);

  expect_work_conserved(rr_rep);
  EXPECT_GT(rr_rep.timeouts, 0);
  EXPECT_GT(rr_rep.retries, 0);
  EXPECT_GT(rr_rep.serving.e2e.p99_ms, jsq_rep.serving.e2e.p99_ms);

  // Health-aware routing ejects the dead replica after its first timeout
  // and converges back to the JSQ tail for later requests.
  auto ha = rr;
  ha.policy = sim::RoutePolicy::kHealthAware;
  ha.eject_ms = 1e9;
  const auto ha_rep = sim::simulate_serving_resilient(trace, ha);
  expect_work_conserved(ha_rep);
  EXPECT_EQ(ha_rep.serving.completed, ha_rep.offered);
  EXPECT_LT(ha_rep.serving.e2e.p99_ms, rr_rep.serving.e2e.p99_ms);
}

TEST(Routing, RoundRobinSpreadsAHealthyFleet) {
  const auto trace = toy_trace(10.0, 19, 32);
  auto cfg = fleet(2);
  const auto rep = sim::simulate_serving_resilient(trace, cfg);
  expect_work_conserved(rep);
  EXPECT_EQ(rep.serving.completed, rep.offered);
  EXPECT_GT(rep.replicas[0].steps, 0);
  EXPECT_GT(rep.replicas[1].steps, 0);
  EXPECT_EQ(rep.replicas[0].completed + rep.replicas[1].completed,
            rep.offered);
}

TEST(ReplicaFaults, ProcessIsDeterministic) {
  const auto spec = crashy(500.0, 100.0, 42);
  sim::ReplicaFaultProcess a(spec), b(spec);
  for (int i = 0; i < 8; ++i) {
    const double ta = a.draw_crash_after(static_cast<double>(i) * 10.0);
    const double tb = b.draw_crash_after(static_cast<double>(i) * 10.0);
    EXPECT_EQ(ta, tb);
    EXPECT_GT(ta, static_cast<double>(i) * 10.0);
  }
  auto other = spec;
  other.seed = 43;
  sim::ReplicaFaultProcess c(other);
  EXPECT_NE(a.draw_crash_after(0.0), c.draw_crash_after(0.0));
}

TEST(ReplicaFaults, DisabledProcessIsExactlyClean) {
  sim::ReplicaFaultProcess p{sim::ReplicaFaultSpec{}};
  EXPECT_TRUE(std::isinf(p.draw_crash_after(0.0)));
  for (double t = 0.0; t < 100.0; t += 7.3) {
    EXPECT_EQ(p.slow_multiplier_at(t), 1.0);
  }
  EXPECT_FALSE(sim::ReplicaFaultSpec{}.enabled());
  EXPECT_TRUE(crashy(100.0, 1.0, 0).enabled());
  EXPECT_TRUE(browned(2.0, 0).enabled());
}

TEST(ReplicaFaults, BrownoutWindowsAreRenewalsInStepOrder) {
  auto spec = browned(3.0, 9);
  spec.slow_mtbf_ms = 50.0;
  spec.slow_duration_ms = 20.0;
  sim::ReplicaFaultProcess a(spec), b(spec);
  int slowed = 0, total = 0;
  for (double t = 0.0; t < 2000.0; t += 4.1) {
    const double ma = a.slow_multiplier_at(t);
    EXPECT_EQ(ma, b.slow_multiplier_at(t));
    EXPECT_TRUE(ma == 1.0 || ma == 3.0);
    slowed += ma > 1.0 ? 1 : 0;
    ++total;
  }
  EXPECT_GT(slowed, 0) << "some samples must land inside a window";
  EXPECT_LT(slowed, total) << "and some outside";
}

TEST(ServingTrace, JsonRoundTripIsExact) {
  std::vector<sim::ServingRequest> reqs = {
      {0.1 + 0.2, 128, 32},           // 0.30000000000000004 must survive
      {123.45678901234567, 1, 0},
      {1e-9 + 123.45678901234567, 4096, 1024},
  };
  const auto doc = sim::serving_trace_to_json(reqs);
  const std::string text = doc.dump(2);
  std::string err;
  const auto parsed = obs::json::Value::parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  const auto back = sim::serving_trace_from_json(parsed);
  ASSERT_EQ(back.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(back[i].arrival_ms, reqs[i].arrival_ms) << i;
    EXPECT_EQ(back[i].prompt_tokens, reqs[i].prompt_tokens) << i;
    EXPECT_EQ(back[i].max_new_tokens, reqs[i].max_new_tokens) << i;
  }
  // Determinism of the serialized form itself.
  EXPECT_EQ(text, sim::serving_trace_to_json(back).dump(2));
}

TEST(ServingTrace, FileRoundTrip) {
  const auto reqs = toy_trace(6.0, 3, 16);
  const std::string path = "serving_trace_roundtrip_test.json";
  sim::save_serving_trace(path, reqs);
  const auto back = sim::load_serving_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(back[i].arrival_ms, reqs[i].arrival_ms) << i;
  }
  EXPECT_THROW(sim::load_serving_trace("no_such_dir/none.json"),
               std::runtime_error);
}

TEST(ServingTrace, RejectsMalformedDocuments) {
  using obs::json::Value;
  try {
    Value doc = Value::object();
    doc.set("schema", "actcomp.other.v9");
    doc.set("requests", Value::array());
    sim::serving_trace_from_json(doc);
    FAIL() << "wrong schema must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos);
  }
  EXPECT_THROW(sim::serving_trace_from_json(Value(1.0)),
               std::invalid_argument);
  {
    Value doc = Value::object();
    doc.set("schema", sim::kServingTraceSchema);
    Value arr = Value::array();
    Value item = Value::object();
    item.set("arrival_ms", 1.0);  // prompt_tokens/max_new_tokens missing
    arr.push_back(std::move(item));
    doc.set("requests", std::move(arr));
    EXPECT_THROW(sim::serving_trace_from_json(doc), std::invalid_argument);
  }
}

TEST(Validation, PreciseErrors) {
  const auto trace = toy_trace(6.0, 1, 4);
  auto expect_fails = [&](sim::ResilientServingConfig cfg,
                          const std::string& needle) {
    try {
      sim::validate_resilient_serving_inputs(trace, cfg);
      FAIL() << "expected invalid_argument containing '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  {
    auto cfg = fleet(0);
    expect_fails(cfg, "num_replicas");
  }
  {
    auto cfg = fleet(1);
    cfg.cost_ladder.clear();
    expect_fails(cfg, "cost_ladder");
  }
  {
    auto cfg = fleet(1);
    cfg.cost_ladder.push_back({});
    expect_fails(cfg, "cost_ladder[1]");
  }
  {
    auto cfg = fleet(2);
    cfg.replica_faults = {crashy(10.0, 1.0, 0)};
    expect_fails(cfg, "replica_faults");
  }
  {
    auto cfg = fleet(1);
    cfg.retry.max_attempts = 0;
    expect_fails(cfg, "max_attempts");
    cfg.retry.max_attempts = 17;
    expect_fails(cfg, "max_attempts");
  }
  {
    auto cfg = fleet(1);
    cfg.retry.hedge_after_ms = 5.0;
    expect_fails(cfg, "single replica");
  }
  {
    auto cfg = fleet(1);
    cfg.cost_ladder.push_back(toy_cost);
    cfg.degrade.enabled = true;
    expect_fails(cfg, "slo_e2e_p99_ms");
  }
  {
    auto cfg = fleet(1);
    cfg.degrade.enabled = true;
    cfg.slo_e2e_p99_ms = 50.0;
    expect_fails(cfg, "2 rungs");
  }
  {
    auto cfg = fleet(1);
    cfg.cost_ladder.push_back(toy_cost);
    cfg.degrade.enabled = true;
    cfg.slo_e2e_p99_ms = 50.0;
    cfg.degrade.recover_fraction = 1.5;
    expect_fails(cfg, "recover_fraction");
  }
  {
    sim::ReplicaFaultSpec bad;
    bad.slow_factor = 0.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    sim::ReplicaFaultSpec bad2;
    bad2.slow_mtbf_ms = 10.0;
    bad2.slow_factor = 2.0;  // zero-length window
    EXPECT_THROW(bad2.validate(), std::invalid_argument);
  }
  EXPECT_THROW(sim::SloDegradationController({true, 0, 1, 0.5}, 10.0, 2),
               std::invalid_argument);
  EXPECT_THROW(sim::SloDegradationController({true, 4, 2, 0.5}, -1.0, 2),
               std::invalid_argument);
}

}  // namespace
