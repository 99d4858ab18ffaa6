// Workloads `serve-sweep` and `serve-fleet`: the simulation plane's serving
// question, priced per wire format.
//
// Both price every scheduler step of BERT-Large on one NVLink node at TP=4
// through parallel::make_serving_cost, wrapped so the benchmark times the
// pricing calls from outside.
//
//  * serve-sweep: one replica, simulate_serving once per
//    compress::main_settings() entry over one seeded Poisson trace. The
//    rate is one `w/o` sustains; the compressed settings back up.
//  * serve-fleet: 8 replicas through simulate_serving_resilient with JSQ
//    routing, a seeded crash/repair process per replica, retries with a
//    timeout, hedging, the SLO ladder (make_serving_cost_ladder) and
//    token-budget admission control, over a calm -> burst -> calm trace
//    whose burst exceeds the fleet's capacity.
//
// An op is one simulator call. Checks: completed + shed + failed equals the
// offered requests, and every call's report digest equals the digest the
// same call produced during set-up (the simulators are deterministic).
#include <array>
#include <cstdio>

#include "compress/settings.h"
#include "core/compression_plan.h"
#include "core/threadpool.h"
#include "harness.h"
#include "nn/bert.h"
#include "parallel/mp_simulator.h"
#include "sim/hardware.h"
#include "sim/serving.h"
#include "sim/serving_resilience.h"

namespace actcomp::perfbench {
namespace {

constexpr int64_t kPrompt = 128;
constexpr int64_t kGenerate = 32;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kTokenBudget = 2048;

// serve-sweep trace: a rate the uncompressed replica sustains.
constexpr double kSweepRate = 14.0;
constexpr int kSweepRequests = 1000;

// serve-fleet trace and knobs.
constexpr int kReplicas = 8;
constexpr int kFleetScenarios = 4;  // seeded traces + fault processes per cycle
constexpr double kCalmRate = 300.0;
constexpr double kBurstRate = 1500.0;
constexpr int kCalmRequests = 400;
constexpr int kBurstRequests = 600;
constexpr double kMtbfMs = 1500.0;
constexpr double kRepairMs = 150.0;
constexpr double kTimeoutMs = 400.0;
constexpr double kHedgeAfterMs = 150.0;
constexpr double kSloP99Ms = 250.0;

/// The pricing every serving workload uses: BERT-Large, one aws_p3 node
/// (NVLink), TP=4.
parallel::ModelParallelSimulator make_pricer() {
  return parallel::ModelParallelSimulator(sim::ClusterSpec::aws_p3(1),
                                          nn::BertConfig::bert_large(),
                                          parallel::ParallelConfig{4, 1, 1},
                                          parallel::TrainJob{});
}

/// Forwards to `inner`, timing and counting each pricing call. `scale` lets
/// the self-test perturb one call's price.
struct Pricing {
  int64_t calls = 0;
  double scale = 1.0;

  sim::StepCostFn wrap(sim::StepCostFn inner) {
    return [this, inner = std::move(inner)](const sim::StepShape& s) {
      ACTCOMP_PROFILE("bench.parallel.step_cost");
      ++calls;
      return inner(s) * scale;
    };
  }
};

void digest_serving(Digest& d, const sim::ServingReport& r) {
  d.pod(r.completed);
  d.pod(r.generated_tokens);
  d.pod(r.makespan_ms);
  d.pod(r.busy_ms);
  d.pod(r.mean_concurrency);
  for (const auto* p : {&r.ttft, &r.tpot, &r.e2e}) {
    d.pod(p->p50_ms);
    d.pod(p->p95_ms);
    d.pod(p->p99_ms);
  }
  for (const sim::RequestTiming& q : r.requests) {
    d.pod(q.admit_ms);
    d.pod(q.first_token_ms);
    d.pod(q.done_ms);
    d.pod(q.generated);
  }
  for (const sim::StepTiming& s : r.steps) {
    d.pod(s.start_ms);
    d.pod(s.end_ms);
    d.pod(s.seqs);
    d.pod(s.new_tokens);
    d.pod(s.replica);
  }
}

std::string digest_of(const sim::ServingReport& r) {
  Digest d;
  digest_serving(d, r);
  return d.hex();
}

std::string digest_of(const sim::ResilientServingReport& r) {
  Digest d;
  digest_serving(d, r.serving);
  for (sim::RequestOutcome o : r.outcomes) d.pod(o);
  for (int64_t v : {r.offered, r.shed, r.failed, r.dispatches, r.retries,
                    r.hedges, r.hedge_wins, r.timeouts, r.crashes,
                    r.killed_copies, r.wasted_tokens}) {
    d.pod(v);
  }
  for (int v : {r.escalations, r.deescalations, r.final_level, r.max_level_seen}) {
    d.pod(v);
  }
  return d.hex();
}

std::vector<sim::ServingRequest> segment(double rate, int n, uint64_t seed,
                                         double start_ms) {
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = rate;
  spec.num_requests = n;
  spec.prompt_tokens = kPrompt;
  spec.max_new_tokens = kGenerate;
  spec.seed = seed;
  std::vector<sim::ServingRequest> out = sim::poisson_trace(spec);
  for (auto& r : out) r.arrival_ms += start_ms;
  return out;
}

/// Calm, then a burst above fleet capacity, then calm again.
std::vector<sim::ServingRequest> fleet_trace(uint64_t seed, int scale_div) {
  std::vector<sim::ServingRequest> trace;
  double t = 0.0;
  const struct {
    double rate;
    int n;
  } phases[] = {{kCalmRate, kCalmRequests / scale_div},
                {kBurstRate, kBurstRequests / scale_div},
                {kCalmRate, kCalmRequests / scale_div}};
  uint64_t salt = 0;
  for (const auto& ph : phases) {
    const auto seg = segment(ph.rate, ph.n, mix_seed(seed, 40 + salt++), t);
    trace.insert(trace.end(), seg.begin(), seg.end());
    if (!trace.empty()) t = trace.back().arrival_ms;
  }
  return trace;
}

/// One fleet scenario: kReplicas JSQ replicas with seeded crash/repair
/// processes, retries with a timeout, hedging, the SLO degradation ladder
/// and token-budget admission.
sim::ResilientServingConfig fleet_config(uint64_t seed,
                                         const std::vector<sim::StepCostFn>& ladder) {
  sim::ResilientServingConfig cfg;
  cfg.num_replicas = kReplicas;
  cfg.policy = sim::RoutePolicy::kJoinShortestQueue;
  cfg.max_batch = kMaxBatch;
  cfg.token_budget = kTokenBudget;
  cfg.cost_ladder = ladder;
  for (int k = 0; k < kReplicas; ++k) {
    sim::ReplicaFaultSpec fs;
    fs.mtbf_ms = kMtbfMs;
    fs.repair_ms = kRepairMs;
    fs.seed = mix_seed(seed, 100 + static_cast<uint64_t>(k));
    cfg.replica_faults.push_back(fs);
  }
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_ms = 1.0;
  cfg.retry.timeout_ms = kTimeoutMs;
  cfg.retry.hedge_after_ms = kHedgeAfterMs;
  cfg.admission.max_queued_tokens = 2 * kReplicas * kTokenBudget;
  cfg.slo_e2e_p99_ms = kSloP99Ms;
  cfg.degrade.enabled = true;
  return cfg;
}

/// Runs call(0) .. call(n_calls - 1) once per cycle, each as one timed op.
/// Each call returns its report digest, which must equal the set-up run's.
template <class Call>
void run_cycles(const Options& opt, Recorder& rec, Pricing& pricing,
                const std::vector<std::string>& expected, int64_t n_calls,
                Call&& call) {
  for (int64_t cycle = 0; cycle < 2 || (!opt.tiny && rec.time_left()); ++cycle) {
    for (int64_t i = 0; i < n_calls; ++i) {
      const bool perturb = opt.inject == "perturb-cost" && cycle == 0 && i == 0;
      pricing.scale = perturb ? 1.0 + 1e-9 : 1.0;
      std::string digest;
      rec.op([&] { digest = call(i); });
      pricing.scale = 1.0;
      if (!digest.empty() && digest != expected[static_cast<size_t>(i)]) {
        rec.fail("report digest of call " + std::to_string(i) +
                 " differs from its set-up run");
      }
    }
    rec.end_cycle();
  }
}

}  // namespace

Outcome run_serve_sweep(const Options& opt) {
  Outcome out;
  out.work_name = "sim_requests_per_s";
  core::set_num_threads(1);  // the simulators are single-threaded
  const std::vector<compress::Setting>& settings = compress::main_settings();
  const int n_req = opt.tiny ? 40 : kSweepRequests;
  out.work_per_op = n_req;

  Pricing pricing;
  std::vector<sim::ServingConfig> configs;
  std::vector<sim::ServingRequest> trace;
  std::vector<std::string> expected;
  std::vector<std::array<double, 3>> rows;  // steps, e2e p99, tok/s
  for (int r = 0; r < opt.setups; ++r) {
    const Clock::time_point t0 = Clock::now();
    const parallel::ModelParallelSimulator pricer = make_pricer();
    configs.clear();
    for (compress::Setting s : settings) {
      sim::ServingConfig cfg;
      cfg.max_batch = kMaxBatch;
      cfg.token_budget = kTokenBudget;
      cfg.step_cost = pricing.wrap(parallel::make_serving_cost(
          pricer, core::CompressionPlan::paper_default(
                      s, nn::BertConfig::bert_large().num_layers)));
      configs.push_back(std::move(cfg));
    }
    trace = segment(kSweepRate, n_req, mix_seed(opt.seed, 30), 0.0);
    expected.clear();
    rows.clear();
    for (const auto& cfg : configs) {
      const sim::ServingReport rep = sim::simulate_serving(trace, cfg);
      expected.push_back(digest_of(rep));
      rows.push_back({static_cast<double>(rep.steps.size()), rep.e2e.p99_ms,
                      rep.throughput_tok_s()});
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::printf("%-8s %8s %12s %12s\n", "setting", "steps", "e2e p99 ms",
              "tok/s");
  for (size_t i = 0; i < settings.size(); ++i) {
    out.digests.emplace_back("report." + compress::setting_label(settings[i]),
                             expected[i]);
    std::printf("%-8s %8.0f %12.2f %12.1f\n",
                compress::setting_label(settings[i]).c_str(), rows[i][0],
                rows[i][1], rows[i][2]);
  }

  Recorder rec(opt, out);
  double traced_calls = 0.0, traced_steps = 0.0;
  int64_t traced_pricing = 0;
  run_cycles(opt, rec, pricing, expected,
             static_cast<int64_t>(configs.size()), [&](int64_t i) {
               ACTCOMP_PROFILE("bench.serve.call");
               const int64_t calls0 = pricing.calls;
               const sim::ServingReport rep =
                   sim::simulate_serving(trace, configs[static_cast<size_t>(i)]);
               if (rep.completed != static_cast<int64_t>(trace.size())) {
                 rec.fail("completed " + std::to_string(rep.completed) +
                          " != offered " + std::to_string(trace.size()));
               }
               if (obs::profiler_enabled()) {
                 traced_calls += 1.0;
                 traced_steps += static_cast<double>(rep.steps.size());
                 traced_pricing += pricing.calls - calls0;
               }
               return digest_of(rep);
             });

  if (opt.trace && traced_calls > 0.0) {
    const ZoneTable z;
    const double call_ms = z.total({"bench.serve.call"});
    const double price_ms = z.total({"bench.parallel.step_cost"});
    out.layers["parallel.step_cost_ms"] = price_ms / traced_calls;
    out.layers["parallel.step_cost_calls"] =
        static_cast<double>(traced_pricing) / traced_calls;
    out.layers["sim.serving_ms"] = (call_ms - price_ms) / traced_calls;
    out.layers["sim.steps"] = traced_steps / traced_calls;
    out.traced_wall_ms = call_ms;
    out.attributed_ms = call_ms;
    z.print_self_times("bench.serve.call", call_ms);
  }
  return out;
}

Outcome run_serve_fleet(const Options& opt) {
  Outcome out;
  out.work_name = "sim_requests_per_s";
  core::set_num_threads(1);  // the simulators are single-threaded

  Pricing pricing;
  std::vector<sim::ResilientServingConfig> configs;
  std::vector<std::vector<sim::ServingRequest>> traces;
  std::vector<std::string> expected;
  std::vector<sim::ResilientServingReport> reports;
  for (int r = 0; r < opt.setups; ++r) {
    configs.clear();
    traces.clear();
    reports.clear();
    const Clock::time_point t0 = Clock::now();
    const parallel::ModelParallelSimulator pricer = make_pricer();
    std::vector<sim::StepCostFn> ladder;
    for (auto& rung : parallel::make_serving_cost_ladder(
             pricer, nn::BertConfig::bert_large().num_layers)) {
      ladder.push_back(pricing.wrap(std::move(rung)));
    }
    for (int k = 0; k < kFleetScenarios; ++k) {
      const uint64_t seed = mix_seed(opt.seed, 200 + static_cast<uint64_t>(k));
      configs.push_back(fleet_config(seed, ladder));
      traces.push_back(fleet_trace(seed, opt.tiny ? 8 : 1));
    }
    expected.clear();
    for (int k = 0; k < kFleetScenarios; ++k) {
      reports.push_back(sim::simulate_serving_resilient(traces[k], configs[k]));
      expected.push_back(digest_of(reports.back()));
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  out.work_per_op = static_cast<double>(traces[0].size());
  for (int k = 0; k < kFleetScenarios; ++k) {
    const sim::ResilientServingReport& f = reports[static_cast<size_t>(k)];
    out.digests.emplace_back("report.fleet" + std::to_string(k),
                             expected[static_cast<size_t>(k)]);
    std::printf(
        "fleet %d: offered %lld completed %lld shed %lld failed %lld | "
        "dispatches %lld retries %lld hedges %lld (won %lld) crashes %lld | "
        "ladder max level %d | e2e p99 %.2f ms\n",
        k, static_cast<long long>(f.offered),
        static_cast<long long>(f.serving.completed),
        static_cast<long long>(f.shed), static_cast<long long>(f.failed),
        static_cast<long long>(f.dispatches), static_cast<long long>(f.retries),
        static_cast<long long>(f.hedges), static_cast<long long>(f.hedge_wins),
        static_cast<long long>(f.crashes), f.max_level_seen,
        f.serving.e2e.p99_ms);
  }

  Recorder rec(opt, out);
  double traced_calls = 0.0;
  int64_t traced_pricing = 0;
  run_cycles(opt, rec, pricing, expected, kFleetScenarios, [&](int64_t k) {
    ACTCOMP_PROFILE("bench.fleet.call");
    const auto& trace = traces[static_cast<size_t>(k)];
    const int64_t calls0 = pricing.calls;
    const sim::ResilientServingReport rep =
        sim::simulate_serving_resilient(trace, configs[static_cast<size_t>(k)]);
    if (rep.offered != static_cast<int64_t>(trace.size()) ||
        rep.serving.completed + rep.shed + rep.failed != rep.offered) {
      rec.fail("completed + shed + failed != offered");
    }
    if (obs::profiler_enabled()) {
      traced_calls += 1.0;
      traced_pricing += pricing.calls - calls0;
    }
    return digest_of(rep);
  });

  if (opt.trace && traced_calls > 0.0) {
    const ZoneTable z;
    const double call_ms = z.total({"bench.fleet.call"});
    const double price_ms = z.total({"bench.parallel.step_cost"});
    out.layers["parallel.step_cost_ms"] = price_ms / traced_calls;
    out.layers["parallel.step_cost_calls"] =
        static_cast<double>(traced_pricing) / traced_calls;
    out.layers["sim.fleet_ms"] = (call_ms - price_ms) / traced_calls;
    double generated = 0.0, wasted = 0.0;
    for (const sim::ResilientServingReport& f : reports) {
      const double n = kFleetScenarios;
      out.layers["fleet.dispatches"] += static_cast<double>(f.dispatches) / n;
      out.layers["fleet.retries"] += static_cast<double>(f.retries) / n;
      out.layers["fleet.hedges"] += static_cast<double>(f.hedges) / n;
      out.layers["fleet.shed"] += static_cast<double>(f.shed) / n;
      out.layers["fleet.failed"] += static_cast<double>(f.failed) / n;
      generated += static_cast<double>(f.serving.generated_tokens);
      wasted += static_cast<double>(f.wasted_tokens);
    }
    out.layers["fleet.goodput_ratio"] =
        generated + wasted > 0.0 ? generated / (generated + wasted) : 0.0;
    out.traced_wall_ms = call_ms;
    out.attributed_ms = call_ms;
    z.print_self_times("bench.fleet.call", call_ms);
  }
  return out;
}

}  // namespace actcomp::perfbench
