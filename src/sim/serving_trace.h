// Serving arrival-trace files: a deterministic JSON round-trip for
// std::vector<ServingRequest> via obs/json.
//
// Why: fault/routing/degradation sweeps are only comparable when every
// config replays the SAME workload. poisson_trace is already seeded, but a
// file pins the workload across binaries, machines and future PRs — the
// `throughput_explorer --serve --trace-out/--trace-in` pair writes a trace
// once and replays it under any fleet config. obs/json prints doubles with
// the shortest round-tripping representation and keeps key order, so
// save(load(x)) == x byte-for-byte and arrival times survive exactly (the
// scheduler's determinism contract depends on bit-exact arrivals).
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/serving.h"

namespace actcomp::sim {

/// Schema tag embedded in every trace file; load rejects anything else.
inline constexpr const char* kServingTraceSchema = "actcomp.serving_trace.v1";

/// Build the JSON document: {"schema": ..., "requests": [{"arrival_ms",
/// "prompt_tokens", "max_new_tokens"}, ...]}.
obs::json::Value serving_trace_to_json(
    const std::vector<ServingRequest>& requests);

/// Inverse of serving_trace_to_json. Throws std::invalid_argument with a
/// precise message on a wrong schema tag, missing/mistyped fields (token
/// counts must be integer literals), a non-finite arrival, or a non-object
/// request entry. Does NOT re-validate scheduling feasibility —
/// pass the result through validate_serving_inputs with the target config.
std::vector<ServingRequest> serving_trace_from_json(
    const obs::json::Value& doc);

/// Write the trace as pretty-printed JSON (trailing newline). Throws
/// std::runtime_error when the file cannot be opened.
void save_serving_trace(const std::string& path,
                        const std::vector<ServingRequest>& requests);

/// Read a trace file back. Throws std::runtime_error on IO failure and
/// std::invalid_argument on malformed content.
std::vector<ServingRequest> load_serving_trace(const std::string& path);

}  // namespace actcomp::sim
