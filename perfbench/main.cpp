// actcomp_perfbench: the repository benchmark (see README.md here).
//
//   actcomp_perfbench --workload finetune|serve-sweep|serve-fleet|wire
//                     --seed N --seconds S --trace 0|1
//                     [--tiny] [--inject FAULT] [--out-dir DIR] [--git-rev REV]
//
// Prints a human-readable report, writes it as JSON to
// <out-dir>/<workload>-<seed>-trace<0|1>.json (and, traced, the
// Chrome trace beside it), and ends stdout with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/simd.h"
#include "core/threadpool.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/profiler.h"

namespace pb = actcomp::perfbench;
namespace json = actcomp::obs::json;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The names, units and order of BENCHMARK.json.
const Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"op_ms_p50", "ms"},
    {"op_ms_p95", "ms"},    {"ops_per_s", "1/s"},
};

const Metric kPerLayer[] = {
    {"autograd.backward_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"compress.apply_ms", "ms"},
    {"compress.apply_calls", "count"},
    {"train.optimizer_ms", "ms"},
    {"data.batch_ms", "ms"},
    {"tensor.gemm_ms", "ms"},
    {"core.parallel_for_ms", "ms"},
    {"core.pool.jobs", "count"},
    {"parallel.step_cost_ms", "ms"},
    {"parallel.step_cost_calls", "count"},
    {"sim.serving_ms", "ms"},
    {"sim.steps", "count"},
    {"sim.fleet_ms", "ms"},
    {"fleet.dispatches", "count"},
    {"fleet.retries", "count"},
    {"fleet.hedges", "count"},
    {"fleet.shed", "count"},
    {"fleet.failed", "count"},
    {"fleet.goodput_ratio", "ratio"},
    {"compress.encode_ms.topk", "ms"},
    {"compress.encode_ms.quant", "ms"},
    {"compress.encode_ms.ae", "ms"},
    {"compress.encode_ms.randk", "ms"},
    {"compress.decode_ms.topk", "ms"},
    {"compress.decode_ms.quant", "ms"},
    {"compress.decode_ms.ae", "ms"},
    {"compress.decode_ms.randk", "ms"},
    {"lossless.encode_ms", "ms"},
    {"lossless.decode_ms", "ms"},
    {"wire.ratio.t3", "ratio"},
    {"wire.ratio.q2", "ratio"},
    {"wire.ratio.a2", "ratio"},
    {"wire.ratio.r3", "ratio"},
    {"wire.ratio.t3_lossless", "ratio"},
    {"wire.ratio.q2_lossless", "ratio"},
    {"wire.ratio.a2_lossless", "ratio"},
    {"wire.ratio.r3_lossless", "ratio"},
    {"wire.ratio.lossless", "ratio"},
    {"unattributed_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "actcomp_perfbench: %s\nusage: actcomp_perfbench --workload "
               "finetune|serve-sweep|serve-fleet|wire --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inject FAULT] [--out-dir DIR] "
               "[--git-rev REV]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

json::Value metric(double v, const char* unit) {
  json::Value m = json::Value::object();
  m.set("value", v);
  m.set("unit", std::string(unit));
  return m;
}

double ops_per_s(const std::vector<double>& ms) {
  double total = 0.0;
  for (double v : ms) total += v;
  return total > 0.0 ? static_cast<double>(ms.size()) / (total / 1e3) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool more = i + 1 < argc;
    if (a == "--workload" && more) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && more) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && more) {
      opt.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (a == "--trace" && more) {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--inject" && more) {
      opt.inject = argv[++i];
    } else if (a == "--out-dir" && more) {
      opt.out_dir = argv[++i];
    } else if (a == "--git-rev" && more) {
      opt.git_rev = argv[++i];
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.seconds <= 0.0) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }
  if (opt.tiny) opt.setups = 1;

  pb::Outcome (*run)(const pb::Options&) = nullptr;
  if (opt.workload == "finetune") run = pb::run_finetune;
  if (opt.workload == "serve-sweep") run = pb::run_serve_sweep;
  if (opt.workload == "serve-fleet") run = pb::run_serve_fleet;
  if (opt.workload == "wire") run = pb::run_wire;
  if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  // The recorder switches the profiler on for traced ops only.
  actcomp::obs::set_profiler_enabled(false);
  const pb::Outcome out = run(opt);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const char* simd = actcomp::core::simd_isa_name(actcomp::core::simd_isa());
  std::printf("workload %s | seed %llu | trace %d | git %s | nproc %ld | pool %d "
              "| simd %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.git_rev.c_str(), nproc,
              actcomp::core::num_threads(), simd);
  for (const auto& [key, value] : out.digests) {
    std::printf("digest %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());

  json::Value metrics = json::Value::object();
  json::Value info = json::Value::object();
  if (!opt.trace) {
    const std::vector<double> best = pb::best_per_kind(out);
    const double p50 = pb::percentile(best, 0.50);
    const double p95 = pb::percentile(best, 0.95);
    const double ops = ops_per_s(best);
    const double values[] = {pb::median(out.setup_s), peak_rss_mb(), p50, p95, ops};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.set(kEndToEnd[i].name, metric(values[i], kEndToEnd[i].unit));
      std::printf("%-22s %14.6f %s\n", kEndToEnd[i].name, values[i],
                  kEndToEnd[i].unit);
    }
    const double work = ops * out.work_per_op;
    const double failure_ratio =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 0.0;
    std::printf("%-22s %14.6f\n%-22s %14.6f (failed / attempted)\n",
                out.work_name.c_str(), work, "op_failure_ratio", failure_ratio);
    std::printf("samples: %zu op kinds, each the best of %zu cycles (%zu ops); "
                "%zu set-ups; all-ops op_ms_p50 %.6f, op_ms_p95 %.6f\n",
                best.size(), out.cycle_ends.size(), out.op_ms.size(),
                out.setup_s.size(), pb::percentile(out.op_ms, 0.50),
                pb::percentile(out.op_ms, 0.95));
    info.set(out.work_name, work);
    info.set("op_failure_ratio", failure_ratio);
    info.set("all_ops_ms_p50", pb::percentile(out.op_ms, 0.50));
    info.set("all_ops_ms_p95", pb::percentile(out.op_ms, 0.95));
  } else {
    const double share =
        out.traced_wall_ms > 0.0
            ? 1.0 - out.attributed_ms / out.traced_wall_ms
            : 0.0;
    for (const Metric& m : kPerLayer) {
      const auto it = out.layers.find(m.name);
      double v = it == out.layers.end() ? 0.0 : it->second;
      if (std::strcmp(m.name, "unattributed_share") == 0) v = share;
      metrics.set(m.name, metric(v, m.unit));
      if (it != out.layers.end() || v != 0.0) {
        std::printf("%-28s %14.6f %s\n", m.name, v, m.unit);
      }
    }
    // Tracing overhead: traced versus untraced ops of the same run.
    const double p50_off = pb::median(out.op_ms);
    const double p50_on = pb::median(out.traced_op_ms);
    const double ops_off = ops_per_s(out.op_ms);
    const double ops_on = ops_per_s(out.traced_op_ms);
    std::printf(
        "tracing overhead: op_ms_p50 %.3f -> %.3f ms (%+.2f%%), ops_per_s "
        "%.3f -> %.3f (%+.2f%%); %zu untraced / %zu traced ops; unattributed "
        "%.2f%% of traced op time\n",
        p50_off, p50_on, p50_off > 0 ? 100.0 * (p50_on / p50_off - 1.0) : 0.0,
        ops_off, ops_on, ops_off > 0 ? 100.0 * (ops_on / ops_off - 1.0) : 0.0,
        out.op_ms.size(), out.traced_op_ms.size(), 100.0 * share);
    info.set("overhead_op_ms_p50", p50_off > 0 ? p50_on / p50_off - 1.0 : 0.0);
    info.set("overhead_ops_per_s", ops_off > 0 ? ops_on / ops_off - 1.0 : 0.0);
    info.set("unattributed_share", share);
  }

  // The full record, with what it ran on.
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  json::Value env = json::Value::object();
  env.set("workload", opt.workload);
  env.set("seed", static_cast<int64_t>(opt.seed));
  env.set("seconds", opt.seconds);
  env.set("git_rev", opt.git_rev);
  env.set("nproc", static_cast<int64_t>(nproc));
  env.set("pool_threads", static_cast<int64_t>(actcomp::core::num_threads()));
  env.set("simd_isa", std::string(simd));
  json::Value digests = json::Value::object();
  for (const auto& [key, value] : out.digests) digests.set(key, value);
  json::Value record = json::Value::object();
  record.set("env", std::move(env));
  record.set("metrics", metrics);
  record.set("derived", std::move(info));
  record.set("digests", std::move(digests));
  // Raw untraced op times, one array per cycle (same op order every cycle).
  json::Value cycles = json::Value::array();
  size_t begin = 0;
  for (size_t end : out.cycle_ends) {
    json::Value c = json::Value::array();
    for (size_t i = begin; i < end; ++i) c.push_back(out.op_ms[i]);
    cycles.push_back(std::move(c));
    begin = end;
  }
  record.set("cycle_op_ms", std::move(cycles));
  if (opt.trace) {
    std::ofstream trace_file(stem + ".chrome_trace.json");
    actcomp::obs::to_chrome_trace(trace_file);
    std::printf("chrome trace: %s.chrome_trace.json (%lld events dropped)\n",
                stem.c_str(),
                static_cast<long long>(actcomp::obs::dropped_zone_events()));
  }
  std::ofstream(stem + ".json") << record.dump(2) << "\n";

  json::Value result = json::Value::object();
  result.set("correct", out.failed == 0);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
