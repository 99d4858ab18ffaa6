// Reference single-replica serving scheduler, kept as a differential oracle.
//
// sim::simulate_serving is a one-replica call into the fleet scheduler
// (sim/serving_resilience.h). This is the stand-alone admission/decode loop
// it replaced, preserved verbatim: FIFO admission waves under max_batch and
// the token budget (stopping at the first head that does not fit), one
// PREFILL step per wave, otherwise one DECODE step over the running batch.
// It also keeps its shadow sim::Engine graph — every arrival a pure-delay op
// on a ready-order resource, every step an op on the replica's program-order
// lane with edges from the admitted arrivals — and asserts that the engine
// realizes exactly the loop's own clock.
//
// Two independent implementations of the same schedule: the serving and
// fleet tests compare them field by field, bit for bit.
#pragma once

#include <vector>

#include "sim/serving.h"

namespace actcomp::oracle {

/// Same contract and report as sim::simulate_serving.
sim::ServingReport reference_simulate_serving(
    const std::vector<sim::ServingRequest>& requests,
    const sim::ServingConfig& cfg);

}  // namespace actcomp::oracle
