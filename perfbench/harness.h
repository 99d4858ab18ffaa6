// Shared plumbing for the repository benchmark's workloads: options, the
// timed-op recorder, percentiles, and reading per-layer times out of the
// profiler's zone tree.
//
// Every workload follows one shape: set up (several times, the last set-up
// is kept), then run whole cycles of timed ops until --seconds have passed.
// An op is one training step, one simulator call, or one wire message. In a
// traced run (--trace 1) the recorder turns the profiler on for every other
// op only, so the same run measures the per-layer split (from the traced
// ops) and the tracing overhead (traced versus untraced ops).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.h"

namespace actcomp::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         ///< self-test sizes: seconds, not minutes
  std::string inject;        ///< self-test fault to inject ("" = none)
  std::string out_dir = ".bench_out";
  std::string git_rev = "unknown";
  int setups = 5;            ///< set-up repetitions; setup_s is their median
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

struct Outcome;
/// Each op kind's best time: the minimum, over the run's cycles, of the
/// untraced time of the op at that position in the cycle. Every cycle
/// repeats identical work on identical inputs, so repetitions of one op
/// differ only by what the machine did to them: on a shared host another
/// tenant can slow branchy code by up to 1.8x for seconds to minutes while
/// a pure arithmetic loop keeps its speed. The best repetition is the
/// program's own cost; the spread across op kinds is the program's latency
/// distribution.
std::vector<double> best_per_kind(const Outcome& out);

/// What a workload measured. Per-layer values are keyed by the metric names
/// of BENCHMARK.json; a layer the workload does not exercise stays absent
/// and is reported as 0.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< ops run with the profiler off
  /// End index (into op_ms) of each completed cycle.
  std::vector<size_t> cycle_ends;
  std::vector<double> traced_op_ms;  ///< trace mode: ops run with it on
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> layers;
  /// Traced op wall time and the part of it the per-layer self times cover.
  double traced_wall_ms = 0.0;
  double attributed_ms = 0.0;
  /// The workload's own throughput unit, printed beside ops_per_s
  /// (e.g. train_samples_per_s = 16 samples per op).
  std::string work_name;
  double work_per_op = 1.0;
  std::vector<std::pair<std::string, std::string>> digests;
};

/// Runs timed ops and counts attempts and failures.
class Recorder {
 public:
  Recorder(const Options& opt, Outcome& out);

  /// True until --seconds of loop time have passed; workloads ask only at
  /// cycle boundaries so every run measures whole cycles.
  bool time_left() const;

  /// Times `fn` as one op. In trace mode every odd op runs with the
  /// profiler on. An exception fails the op. Returns false if it failed.
  template <class Fn>
  bool op(Fn&& fn) {
    begin_op();
    const Clock::time_point t0 = Clock::now();
    bool threw = false;
    try {
      fn();
    } catch (const std::exception& e) {
      threw = true;
      fail(std::string("exception: ") + e.what());
    }
    end_op(ms_between(t0, Clock::now()));
    return !threw;
  }

  /// Closes a cycle: every cycle of a run repeats the same ops on the same
  /// inputs.
  void end_cycle() { out_.cycle_ends.push_back(out_.op_ms.size()); }

  /// Marks the op just timed as failed (at most once per op).
  void fail(const std::string& why);

  bool last_traced() const { return traced_; }

 private:
  void begin_op();
  void end_op(double ms);

  const Options& opt_;
  Outcome& out_;
  Clock::time_point start_;
  int64_t ops_ = 0;
  bool traced_ = false;
  bool op_failed_ = false;
};

/// The aggregated zone tree of the traced ops, queried by zone name.
class ZoneTable {
 public:
  ZoneTable();  ///< snapshots the profiler now

  /// Total ms of zones named any of `names` that have no such zone above
  /// them (so nested calls of one kind are counted once).
  double total(std::initializer_list<std::string_view> names) const;
  int64_t count(std::string_view name) const;
  /// Total ms of zones whose path ends with `suffix` ("a/b/c").
  double total_suffix(std::string_view suffix) const;

  /// Writes a self-time table of the zones under the op zone `root`.
  void print_self_times(std::string_view root, double wall_ms) const;

 private:
  std::vector<obs::ZoneStats> zones_;
};

/// Registry counter value (0 if never registered).
int64_t counter_value(std::string_view name);

/// Derives seed-dependent sub-seeds (splitmix64).
uint64_t mix_seed(uint64_t seed, uint64_t salt);

/// FNV-1a (over 8-byte words) of raw bytes, for report, loss and tensor
/// digests.
class Digest {
 public:
  void bytes(const void* p, size_t n);
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::string hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Workloads (one translation unit each).
Outcome run_finetune(const Options& opt);
Outcome run_serve_sweep(const Options& opt);
Outcome run_serve_fleet(const Options& opt);
Outcome run_wire(const Options& opt);

}  // namespace actcomp::perfbench
