// Engine micro-benchmark: events/sec of the discrete-event core on
// million-op DAGs, and the speedup of the refactored Engine::run() over the
// preserved pre-refactor dispatch loop (Engine::run_reference()).
//
// Two graph families, both shaped like the engine's real workloads:
//   * pipeline3d — a DP x PP x micro-batch grid (per-stage capacity-1
//     compute resources, capacity-0 ready-order links, per-stage gradient
//     all-reduce tails), the graph sim/pipeline.cpp builds at datacenter
//     scale;
//   * random — the property-test generator's arbitrary DAGs (mixed
//     policies, finite lane pools, ~3 deps/op), the adversarial case for
//     the ready heaps.
//
// Plus one serving-plane record, serving_sweep: simulated requests/sec of
// sim::simulate_serving run once per compress::main_settings() entry on one
// seeded Poisson trace (BERT-Large, TP=4 on one NVLink node, every step
// priced by parallel::make_serving_cost), and the share of that time spent
// pricing steps (the same step shapes priced again on their own).
//
//   $ ./engine_bench [--quick] [out.json]
//
// Emits BENCH_engine.json-style records through the RunReport schema; the
// committed baseline lives at bench/baselines/BENCH_engine.json and
// tools/check_engine_perf.py gates ci.sh bench on it (>30% events/sec or
// requests/sec regression fails). --quick shrinks the DAGs ~5x for the CI
// gate; the serving trace is the same in both modes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "compress/settings.h"
#include "core/compression_plan.h"
#include "nn/bert.h"
#include "obs/json.h"
#include "obs/report.h"
#include "parallel/mp_simulator.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "sim/serving.h"

namespace {

using actcomp::sim::Engine;
using actcomp::sim::ExecPolicy;

/// DP x PP x micro grid: per replica, p stages run m forwards + m backwards
/// in 1F1B-ish program order, transfers cross capacity-0 links, and a
/// per-stage gradient all-reduce op depends on the stage's last backward in
/// every replica (the 3D graph of sim/pipeline.cpp, reduced to its shape).
Engine build_pipeline3d(int dp, int p, int m, bool overlap) {
  Engine e;
  e.reserve(static_cast<size_t>(dp) * static_cast<size_t>(m) *
                    static_cast<size_t>(4 * p) +
                static_cast<size_t>(dp) * static_cast<size_t>(p),
            static_cast<size_t>(dp) * static_cast<size_t>(m) *
                static_cast<size_t>(6 * p));
  const ExecPolicy stage_policy =
      overlap ? ExecPolicy::kReadyOrder : ExecPolicy::kProgramOrder;
  std::vector<int> last_bwd(static_cast<size_t>(dp) * static_cast<size_t>(p));
  std::vector<int> grad_links(static_cast<size_t>(p));
  for (int s = 0; s < p; ++s) {
    grad_links[static_cast<size_t>(s)] = e.add_resource(1, stage_policy);
  }
  for (int r = 0; r < dp; ++r) {
    std::vector<int> compute(static_cast<size_t>(p));
    std::vector<int> link(static_cast<size_t>(p));
    for (int s = 0; s < p; ++s) {
      compute[static_cast<size_t>(s)] = e.add_resource(1, stage_policy);
      link[static_cast<size_t>(s)] = e.add_resource(0, ExecPolicy::kReadyOrder);
    }
    std::vector<int> fwd(static_cast<size_t>(p) * static_cast<size_t>(m));
    std::vector<int> bwd = fwd;
    auto at = [&](int s, int j) {
      return static_cast<size_t>(s) * static_cast<size_t>(m) +
             static_cast<size_t>(j);
    };
    for (int s = 0; s < p; ++s) {
      for (int j = 0; j < m; ++j) {
        fwd[at(s, j)] = e.add_op(compute[static_cast<size_t>(s)],
                                 1.0 + 0.1 * (s % 3));
      }
      for (int j = 0; j < m; ++j) {
        bwd[at(s, j)] = e.add_op(compute[static_cast<size_t>(s)],
                                 2.0 + 0.1 * (j % 5));
      }
    }
    for (int s = 0; s < p; ++s) {
      for (int j = 0; j < m; ++j) {
        if (s > 0) {
          const int t = e.add_op(link[static_cast<size_t>(s - 1)], 0.4);
          e.add_dep(t, fwd[at(s - 1, j)]);
          e.add_dep(fwd[at(s, j)], t);
        }
        if (s < p - 1) {
          const int t = e.add_op(link[static_cast<size_t>(s)], 0.4);
          e.add_dep(t, bwd[at(s + 1, j)]);
          e.add_dep(bwd[at(s, j)], t);
        } else {
          e.add_dep(bwd[at(s, j)], fwd[at(s, j)]);
        }
      }
      last_bwd[static_cast<size_t>(r) * static_cast<size_t>(p) +
               static_cast<size_t>(s)] = bwd[at(s, m - 1)];
    }
  }
  // Gradient all-reduce tails: one op per stage on a shared DP link,
  // depending on that stage's last backward in every replica.
  for (int s = 0; s < p; ++s) {
    const int ar = e.add_op(grad_links[static_cast<size_t>(s)], 5.0);
    for (int r = 0; r < dp; ++r) {
      e.add_dep(ar, last_bwd[static_cast<size_t>(r) * static_cast<size_t>(p) +
                             static_cast<size_t>(s)]);
    }
  }
  return e;
}

/// The property suite's randomized-DAG generator, scaled up: mixed policies,
/// finite lane pools, deps always pointing at lower ids.
Engine build_random(uint64_t seed, int num_ops) {
  std::mt19937_64 rng(seed);
  auto uni = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  Engine e;
  e.reserve(static_cast<size_t>(num_ops), static_cast<size_t>(num_ops) * 2);
  const int num_resources = uni(64, 256);
  for (int r = 0; r < num_resources; ++r) {
    e.add_resource(uni(1, 3), rng() % 2 ? ExecPolicy::kReadyOrder
                                        : ExecPolicy::kProgramOrder);
  }
  for (int i = 0; i < num_ops; ++i) {
    const int id = e.add_op(uni(0, num_resources - 1),
                            0.5 + static_cast<double>(rng() % 1000) / 100.0);
    if (i > 0) {
      const int want = uni(0, 3);
      for (int k = 0; k < want; ++k) e.add_dep(id, uni(0, i - 1));
    }
  }
  return e;
}

double once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Row {
  std::string graph;
  int64_t ops;
  int64_t deps;
  double events_per_sec;
  double ref_events_per_sec;
};

Row bench_graph(const char* name, const Engine& e, int reps) {
  // Checksum both runs and pin their agreement: the speedup claim is only
  // meaningful if the fast path realizes the identical schedule. Fast and
  // reference reps are interleaved so a load spike on this shared box skews
  // both timings, not the ratio; min-of-reps drops the spikes entirely.
  double sum_fast = 0.0, sum_ref = 0.0;
  double fast_s = 1e30, ref_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    fast_s = std::min(fast_s, once([&] {
               sum_fast = 0.0;
               for (const auto& t : e.run()) sum_fast += t.end_ms;
             }));
    ref_s = std::min(ref_s, once([&] {
              sum_ref = 0.0;
              for (const auto& t : e.run_reference()) sum_ref += t.end_ms;
            }));
  }
  if (sum_fast != sum_ref) {
    std::fprintf(stderr, "FATAL: %s: run() != run_reference() (%.17g vs %.17g)\n",
                 name, sum_fast, sum_ref);
    std::exit(1);
  }
  Row row;
  row.graph = name;
  row.ops = e.num_ops();
  row.deps = e.num_deps();
  row.events_per_sec = static_cast<double>(e.num_ops()) / fast_s;
  row.ref_events_per_sec = static_cast<double>(e.num_ops()) / ref_s;
  std::printf("%-12s %9lld ops %9lld deps  %10.0f ev/s  (ref %10.0f ev/s)  %5.1fx\n",
              name, static_cast<long long>(row.ops),
              static_cast<long long>(row.deps), row.events_per_sec,
              row.ref_events_per_sec,
              row.events_per_sec / row.ref_events_per_sec);
  return row;
}

struct ServingSweep {
  int settings = 0;
  int requests = 0;
  int64_t steps = 0;
  double requests_per_sec = 0.0;
  double pricing_share = 0.0;
};

/// simulate_serving over every main setting on one fixed trace, timed as a
/// whole (best of `reps`), then every step shape it priced is priced again
/// alone to split the time between the step pricing and the scheduler.
ServingSweep bench_serving_sweep(int reps) {
  using namespace actcomp;
  const nn::BertConfig model = nn::BertConfig::bert_large();
  const parallel::ModelParallelSimulator pricer(
      sim::ClusterSpec::aws_p3(1), model, parallel::ParallelConfig{4, 1, 1},
      parallel::TrainJob{});
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 14.0;
  spec.num_requests = 1000;
  spec.prompt_tokens = 128;
  spec.max_new_tokens = 32;
  spec.seed = 1;
  const std::vector<sim::ServingRequest> trace = sim::poisson_trace(spec);

  std::vector<sim::ServingConfig> configs;
  std::vector<std::vector<sim::StepShape>> shapes;
  ServingSweep out;
  for (const compress::Setting s : compress::main_settings()) {
    sim::ServingConfig cfg;
    cfg.max_batch = 8;
    cfg.token_budget = 2048;
    cfg.step_cost = parallel::make_serving_cost(
        pricer, core::CompressionPlan::paper_default(s, model.num_layers));
    // Untimed pass recording the shapes the scheduler asks to price.
    sim::ServingConfig recording = cfg;
    std::vector<sim::StepShape>& seen = shapes.emplace_back();
    recording.step_cost = [&seen, inner = cfg.step_cost](
                              const sim::StepShape& shape) {
      seen.push_back(shape);
      return inner(shape);
    };
    out.steps += static_cast<int64_t>(
        sim::simulate_serving(trace, recording).steps.size());
    configs.push_back(std::move(cfg));
  }

  double sweep_s = 1e30, pricing_s = 1e30, sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    sweep_s = std::min(sweep_s, once([&] {
                for (const auto& cfg : configs) {
                  sink += sim::simulate_serving(trace, cfg).makespan_ms;
                }
              }));
    pricing_s = std::min(pricing_s, once([&] {
                  for (size_t i = 0; i < configs.size(); ++i) {
                    for (const auto& shape : shapes[i]) {
                      sink += configs[i].step_cost(shape);
                    }
                  }
                }));
  }
  if (!(sink > 0.0)) {
    std::fprintf(stderr, "FATAL: serving_sweep priced nothing\n");
    std::exit(1);
  }
  out.settings = static_cast<int>(configs.size());
  out.requests = spec.num_requests;
  out.requests_per_sec =
      static_cast<double>(out.settings) * out.requests / sweep_s;
  out.pricing_share = pricing_s / sweep_s;
  std::printf("%-12s %9d req x %2d settings %9lld steps  %10.0f req/s  "
              "(pricing %.0f%%)\n",
              "serving", out.requests, out.settings,
              static_cast<long long>(out.steps), out.requests_per_sec,
              100.0 * out.pricing_share);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace actcomp;
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else {
      out_path = a;
    }
  }
  obs::RunReport report("engine_bench");
  report.set_config("quick", quick);
  const int reps = quick ? 3 : 5;

  std::printf("engine_bench — discrete-event core, events/sec (%s)\n\n",
              quick ? "quick" : "full");
  std::vector<Row> rows;
  // ~1M-op 3D pipeline grid (quick: ~200k).
  rows.push_back(bench_graph(
      "pipeline3d",
      build_pipeline3d(quick ? 8 : 16, 16, quick ? 400 : 1000, true), reps));
  rows.push_back(bench_graph(
      "pipeline3d-po",
      build_pipeline3d(quick ? 8 : 16, 16, quick ? 400 : 1000, false), reps));
  rows.push_back(bench_graph(
      "random", build_random(7, quick ? 200000 : 1000000), reps));

  double best_speedup = 0.0, worst_speedup = 1e30;
  for (const Row& r : rows) {
    const double s = r.events_per_sec / r.ref_events_per_sec;
    best_speedup = std::max(best_speedup, s);
    worst_speedup = std::min(worst_speedup, s);
    obs::json::Value rec = obs::json::Value::object();
    rec.set("op", "engine_run");
    rec.set("graph", r.graph);
    rec.set("ops", r.ops);
    rec.set("deps", r.deps);
    rec.set("events_per_sec", r.events_per_sec);
    rec.set("ref_events_per_sec", r.ref_events_per_sec);
    rec.set("speedup_vs_reference", r.events_per_sec / r.ref_events_per_sec);
    report.add_record(std::move(rec));
  }
  std::printf(
      "\nspeedup vs pre-refactor loop: %.1fx on the heap-free relaxed path\n"
      "(pipeline3d-po: what every overlap-off golden run executes), %.1fx\n"
      "floor on the event-heap path (overlap / finite-lane graphs).\n",
      best_speedup, worst_speedup);

  std::printf("\n");
  // A sweep takes tens of ms, so take the best of more repetitions.
  const ServingSweep sw = bench_serving_sweep(quick ? 10 : 20);
  obs::json::Value rec = obs::json::Value::object();
  rec.set("op", "serving_sweep");
  rec.set("settings", sw.settings);
  rec.set("requests", sw.requests);
  rec.set("steps", sw.steps);
  rec.set("requests_per_sec", sw.requests_per_sec);
  rec.set("pricing_share", sw.pricing_share);
  report.add_record(std::move(rec));

  if (!out_path.empty()) {
    setenv("ACTCOMP_REPORT_DIR", ".", 0);
    // Write a copy at the requested path for the CI gate.
    obs::json::Value doc = report.to_json();
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f) {
      const std::string text = doc.dump(2);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  return 0;
}
