// Differential tests for the inference step pricing
// (parallel::ModelParallelSimulator::inference_step_cost).
//
// The simulator prices each kind of collective point once per step and then
// replays the per-point accumulation. The reference below is the per-layer
// loop that fast path replaced: it re-prices every TP point and every
// pipeline boundary afresh, through its own copies of the simulator's
// link-placement rules and wire-size formula. Both must produce the same
// six InferenceStepCost fields bit for bit (memcmp, not a tolerance) over:
//
//   - all 14 settings, tp in {1, 2, 4, 8} (8 spills off a 4-GPU node),
//     pp in {1, 2, 4} on NVLink nodes and on PCIe nodes whose pipeline
//     boundaries cross nodes;
//   - plans: none, the paper default, every layer, a window that misses
//     every pipeline boundary, a non-baseline setting with count = 0, and a
//     baseline setting with a non-empty window;
//   - host-side and device-side Random-K sampling;
//   - prefill waves and decode steps at growing context;
//   - run_inference totals, the serving cost bridge, and whole serving
//     reports priced by either path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compress/settings.h"
#include "core/compression_plan.h"
#include "parallel/mp_simulator.h"
#include "sim/collectives.h"
#include "sim/hardware.h"
#include "sim/overhead.h"
#include "sim/serving.h"

namespace {

using namespace actcomp;
namespace cp = actcomp::compress;
namespace sm = actcomp::sim;

// A new InferenceStepCost field must join the comparison below.
static_assert(sizeof(parallel::InferenceStepCost) == 6 * sizeof(double),
              "BitIdentical compares every InferenceStepCost field");

// ---- Reference: the per-layer pricing loop, every point priced afresh. ----

namespace reference {

struct Rig {
  sm::ClusterSpec cluster;
  nn::BertConfig model;
  parallel::ParallelConfig parallel;
  sm::OverheadModel overhead;
};

const sm::LinkSpec& tp_link(const Rig& r) {
  return r.parallel.tp <= r.cluster.gpus_per_node ? r.cluster.intra_node
                                                  : r.cluster.inter_node;
}

bool boundary_cross_node(const Rig& r, int boundary) {
  const int gpu_a = boundary * r.parallel.tp;
  const int gpu_b = (boundary + 1) * r.parallel.tp;
  return gpu_a / r.cluster.gpus_per_node != gpu_b / r.cluster.gpus_per_node;
}

const sm::LinkSpec& boundary_link(const Rig& r, int boundary) {
  return boundary_cross_node(r, boundary) ? r.cluster.inter_node
                                          : r.cluster.intra_node;
}

double boundary_parallelism(const Rig& r, int boundary) {
  if (boundary_cross_node(r, boundary)) return 1.0;
  if (!r.cluster.has_nvlink) return 1.0;
  return static_cast<double>(r.parallel.tp);
}

int64_t wire_bytes(cp::Setting s, int64_t numel, int64_t hidden) {
  switch (s) {
    case cp::Setting::kBaseline:
      return numel * 2;
    case cp::Setting::kA1:
    case cp::Setting::kA2:
      return numel / hidden * cp::ae_code_size(s, hidden) * 2;
    case cp::Setting::kT1:
    case cp::Setting::kT2:
    case cp::Setting::kT3:
    case cp::Setting::kT4:
    case cp::Setting::kR1:
    case cp::Setting::kR2:
    case cp::Setting::kR3:
    case cp::Setting::kR4:
      return cp::kept_elements(s, numel) *
             cp::kSparseBytesPerElement;
    case cp::Setting::kQ1:
    case cp::Setting::kQ2:
    case cp::Setting::kQ3: {
      const int bits = cp::quant_bits(s);
      const int64_t rows = numel / hidden;
      return (numel * bits + 7) / 8 + rows * 4;
    }
  }
  ADD_FAILURE() << "unreachable setting";
  return 0;
}

parallel::InferenceStepCost step_cost(const Rig& r,
                                      const core::CompressionPlan& plan,
                                      const parallel::InferenceBatch& batch) {
  const int tp = r.parallel.tp;
  const int pp = r.parallel.pp;
  const int64_t h = r.model.hidden;
  const int64_t layers_per_stage = r.model.num_layers / pp;
  const int64_t msg_numel = batch.new_tokens * h;
  const double gemm_flops = 32.0 * static_cast<double>(batch.new_tokens) *
                            static_cast<double>(h) * static_cast<double>(h);
  const double attn_flops =
      16.0 / 3.0 * static_cast<double>(batch.context_tokens) *
      static_cast<double>(h);
  const sm::LinkSpec& tpl = tp_link(r);
  const cp::Setting setting = plan.setting;
  const sm::OverheadModel& ov = r.overhead;

  parallel::InferenceStepCost out;
  for (int64_t l = 0; l < r.model.num_layers; ++l) {
    out.compute_ms += r.cluster.gpu.compute_ms((gemm_flops + attn_flops) / tp);
    if (tp > 1) {
      const bool comp = plan.compresses(l);
      for (int point = 0; point < 2; ++point) {
        if (!comp) {
          out.tp_comm_ms += sm::allreduce_ms(msg_numel * 2, tp, tpl);
        } else if (cp::is_ae(setting)) {
          out.dispatch_ms += ov.dispatch_ms;
          out.enc_ms += ov.encode_ms(setting, msg_numel, h);
          out.tp_comm_ms +=
              sm::allreduce_ms(reference::wire_bytes(setting, msg_numel, h), tp, tpl);
          out.dec_ms += ov.decode_ms(setting, msg_numel, h);
        } else {
          out.dispatch_ms += ov.dispatch_ms;
          out.enc_ms += ov.encode_ms(setting, msg_numel, h);
          out.tp_comm_ms +=
              sm::allgather_ms(reference::wire_bytes(setting, msg_numel, h), tp, tpl);
          out.dec_ms += ov.decode_ms(setting, msg_numel, h, tp);
        }
      }
    }
  }
  for (int bd = 0; bd + 1 < pp; ++bd) {
    const int64_t consumer_layer =
        static_cast<int64_t>(bd + 1) * layers_per_stage;
    const bool comp = plan.compresses(consumer_layer);
    const int64_t bytes =
        comp ? reference::wire_bytes(setting, msg_numel, h) : msg_numel * 2;
    const double par = boundary_parallelism(r, bd);
    out.p2p_ms +=
        sm::p2p_ms(static_cast<int64_t>(static_cast<double>(bytes) / par),
                   boundary_link(r, bd));
    if (comp) {
      out.dispatch_ms += ov.dispatch_ms;
      out.enc_ms += ov.encode_ms(setting, msg_numel, h);
      out.dec_ms += ov.decode_ms(setting, msg_numel, h);
    }
  }
  return out;
}

parallel::InferenceBreakdown run_inference(const Rig& r,
                                           const core::CompressionPlan& plan,
                                           int64_t prompt_tokens,
                                           int64_t new_tokens, int64_t batch) {
  parallel::InferenceBreakdown out;
  const parallel::InferenceBatch pre{
      batch, batch * prompt_tokens,
      batch * prompt_tokens * (prompt_tokens + 1) / 2};
  out.prefill = step_cost(r, plan, pre);
  out.ttft_ms = out.prefill.total_ms();
  out.total_ms = out.ttft_ms;
  double decode_sum = 0.0;
  for (int64_t g = 1; g < new_tokens; ++g) {
    const parallel::InferenceBatch dec{batch, batch,
                                       batch * (prompt_tokens + g)};
    const parallel::InferenceStepCost c = step_cost(r, plan, dec);
    if (g == 1) out.first_decode = c;
    decode_sum += c.total_ms();
  }
  if (new_tokens >= 2) {
    out.per_token_ms = decode_sum / static_cast<double>(new_tokens - 1);
    out.total_ms += decode_sum;
  }
  return out;
}

}  // namespace reference

// ---- Harness. ----

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult BitIdentical(const parallel::InferenceStepCost& fast,
                                        const parallel::InferenceStepCost& ref) {
  const struct {
    const char* name;
    double fast, ref;
  } fields[] = {{"compute_ms", fast.compute_ms, ref.compute_ms},
                {"tp_comm_ms", fast.tp_comm_ms, ref.tp_comm_ms},
                {"enc_ms", fast.enc_ms, ref.enc_ms},
                {"dec_ms", fast.dec_ms, ref.dec_ms},
                {"p2p_ms", fast.p2p_ms, ref.p2p_ms},
                {"dispatch_ms", fast.dispatch_ms, ref.dispatch_ms}};
  for (const auto& f : fields) {
    if (!same_bits(f.fast, f.ref)) {
      return ::testing::AssertionFailure()
             << f.name << ": fast " << std::hexfloat << f.fast
             << " != reference " << f.ref;
    }
  }
  return ::testing::AssertionSuccess();
}

enum class Fabric { kNvlink, kPcie };

/// 4-GPU nodes, enough of them for one tp x pp grid; dp fills the rest.
reference::Rig make_rig(Fabric fabric, int tp, int pp) {
  const int nodes = std::max(1, tp * pp / 4);
  reference::Rig r;
  if (fabric == Fabric::kNvlink) {
    r.cluster = sm::ClusterSpec::aws_p3(nodes);
  } else {
    r.cluster = sm::ClusterSpec::local_pcie();
    r.cluster.num_nodes = nodes;
    r.cluster.validate();
  }
  r.model = nn::BertConfig::bert_large();
  r.parallel = {tp, pp, r.cluster.total_gpus() / (tp * pp)};
  return r;
}

parallel::ModelParallelSimulator make_sim(const reference::Rig& r) {
  return parallel::ModelParallelSimulator(r.cluster, r.model, r.parallel,
                                          parallel::TrainJob{});
}

std::vector<core::CompressionPlan> plans_for(cp::Setting s, int64_t layers) {
  return {core::CompressionPlan::none(),
          core::CompressionPlan::paper_default(s, layers),
          core::CompressionPlan::last_n(s, layers, layers),  // every layer
          core::CompressionPlan::window(s, 1, 2),  // misses every boundary
          core::CompressionPlan::window(s, 0, 0),  // count = 0
          core::CompressionPlan{cp::Setting::kBaseline, 0, layers}};
}

/// Prefill waves (sum of prompt lengths, triangular attention) and decode
/// steps (one token per sequence) at growing context.
std::vector<parallel::InferenceBatch> step_shapes() {
  std::vector<parallel::InferenceBatch> out;
  for (const int64_t seqs : {1, 3, 8}) {
    for (const int64_t prompt : {1, 128}) {
      out.push_back({seqs, seqs * prompt, seqs * prompt * (prompt + 1) / 2});
    }
  }
  for (const int64_t seqs : {1, 8}) {
    for (const int64_t g : {1, 2, 17, 31}) {
      out.push_back({seqs, seqs, seqs * (128 + g)});
    }
  }
  return out;
}

std::string describe(Fabric fabric, const reference::Rig& r,
                     const core::CompressionPlan& plan,
                     const parallel::InferenceBatch& b) {
  return std::string(fabric == Fabric::kNvlink ? "nvlink" : "pcie") +
         " tp=" + std::to_string(r.parallel.tp) +
         " pp=" + std::to_string(r.parallel.pp) + " setting=" +
         cp::setting_label(plan.setting) + " window=[" +
         std::to_string(plan.first_layer) + ", +" + std::to_string(plan.count) +
         ") device_randk=" + std::to_string(r.overhead.device_side_randomk) +
         " seqs=" + std::to_string(b.seqs) +
         " new=" + std::to_string(b.new_tokens) +
         " ctx=" + std::to_string(b.context_tokens);
}

void sweep_step_costs(Fabric fabric) {
  const std::vector<parallel::InferenceBatch> shapes = step_shapes();
  int64_t checked = 0;
  for (const int tp : {1, 2, 4, 8}) {
    for (const int pp : {1, 2, 4}) {
      reference::Rig r = make_rig(fabric, tp, pp);
      parallel::ModelParallelSimulator sim = make_sim(r);
      for (const bool device_randk : {false, true}) {
        sim.overhead_model().device_side_randomk = device_randk;
        r.overhead = sim.overhead_model();
        for (const cp::Setting s : cp::all_settings()) {
          for (const auto& plan : plans_for(s, r.model.num_layers)) {
            for (const auto& b : shapes) {
              ASSERT_TRUE(BitIdentical(sim.inference_step_cost(plan, b),
                                       reference::step_cost(r, plan, b)))
                  << describe(fabric, r, plan, b);
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 3 * 2 * 14 * 6 * static_cast<int64_t>(shapes.size()));
}

TEST(InferencePricingDiff, StepCostMatchesPerLayerReferenceOnNvlink) {
  sweep_step_costs(Fabric::kNvlink);
}

TEST(InferencePricingDiff, StepCostMatchesPerLayerReferenceOnPcieCrossNode) {
  // The PCIe fabric shares one bridge per node, so every boundary prices at
  // parallelism 1; tp=2/pp=4 and tp=8 put boundaries across nodes.
  const reference::Rig r = make_rig(Fabric::kPcie, 2, 4);
  ASSERT_FALSE(reference::boundary_cross_node(r, 0));
  ASSERT_TRUE(reference::boundary_cross_node(r, 1));
  sweep_step_costs(Fabric::kPcie);
}

TEST(InferencePricingDiff, RunInferenceTotalsMatchReference) {
  for (const Fabric fabric : {Fabric::kNvlink, Fabric::kPcie}) {
    for (const auto& [tp, pp] :
         std::vector<std::pair<int, int>>{{4, 1}, {8, 1}, {2, 2}, {2, 4}}) {
      reference::Rig r = make_rig(fabric, tp, pp);
      parallel::ModelParallelSimulator sim = make_sim(r);
      for (const bool device_randk : {false, true}) {
        sim.overhead_model().device_side_randomk = device_randk;
        r.overhead = sim.overhead_model();
        for (const cp::Setting s : cp::all_settings()) {
          const auto plan =
              core::CompressionPlan::paper_default(s, r.model.num_layers);
          // (prompt, generate, batch), including generations of 0 and 1.
          for (const auto& [prompt, gen, batch] :
               std::vector<std::tuple<int64_t, int64_t, int64_t>>{
                   {128, 32, 1}, {64, 1, 4}, {16, 0, 2}, {1, 9, 8}}) {
            const auto fast = sim.run_inference(plan, prompt, gen, batch);
            const auto ref =
                reference::run_inference(r, plan, prompt, gen, batch);
            const std::string ctx =
                describe(fabric, r, plan, {batch, batch * prompt, 0}) +
                " gen=" + std::to_string(gen);
            ASSERT_TRUE(same_bits(fast.ttft_ms, ref.ttft_ms)) << ctx;
            ASSERT_TRUE(same_bits(fast.per_token_ms, ref.per_token_ms)) << ctx;
            ASSERT_TRUE(same_bits(fast.total_ms, ref.total_ms)) << ctx;
            ASSERT_TRUE(BitIdentical(fast.prefill, ref.prefill)) << ctx;
            ASSERT_TRUE(BitIdentical(fast.first_decode, ref.first_decode))
                << ctx;
          }
        }
      }
    }
  }
}

TEST(InferencePricingDiff, ServingCostLadderMatchesReference) {
  const reference::Rig r = make_rig(Fabric::kNvlink, 4, 1);
  const parallel::ModelParallelSimulator sim = make_sim(r);
  const auto ladder =
      parallel::make_serving_cost_ladder(sim, r.model.num_layers);
  const auto settings = parallel::serving_ladder_settings();
  ASSERT_EQ(ladder.size(), settings.size());
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    const auto plan =
        core::CompressionPlan::paper_default(settings[rung], r.model.num_layers);
    for (const auto& b : step_shapes()) {
      const sm::StepShape shape{b.new_tokens > b.seqs, b.seqs, b.new_tokens,
                                b.context_tokens};
      ASSERT_TRUE(same_bits(ladder[rung](shape),
                            reference::step_cost(r, plan, b).total_ms()))
          << describe(Fabric::kNvlink, r, plan, b);
    }
  }
}

TEST(InferencePricingDiff, ServingReportsMatchReferencePricing) {
  // Whole serving runs priced by either path: same steps, same timings, same
  // percentiles, bit for bit.
  const reference::Rig r = make_rig(Fabric::kNvlink, 4, 1);
  const parallel::ModelParallelSimulator sim = make_sim(r);
  sm::PoissonTraceSpec spec;
  spec.rate_per_s = 14.0;
  spec.num_requests = 60;
  spec.prompt_tokens = 128;
  spec.max_new_tokens = 32;
  spec.seed = 5;
  const auto trace = sm::poisson_trace(spec);
  for (const cp::Setting s : cp::main_settings()) {
    const auto plan =
        core::CompressionPlan::paper_default(s, r.model.num_layers);
    sm::ServingConfig fast_cfg;
    fast_cfg.max_batch = 8;
    fast_cfg.token_budget = 2048;
    fast_cfg.step_cost = parallel::make_serving_cost(sim, plan);
    sm::ServingConfig ref_cfg = fast_cfg;
    ref_cfg.step_cost = [&r, plan](const sm::StepShape& shape) {
      return reference::step_cost(
                 r, plan, {shape.seqs, shape.new_tokens, shape.context_tokens})
          .total_ms();
    };
    const sm::ServingReport fast = sm::simulate_serving(trace, fast_cfg);
    const sm::ServingReport ref = sm::simulate_serving(trace, ref_cfg);
    const std::string label = cp::setting_label(s);
    ASSERT_EQ(fast.steps.size(), ref.steps.size()) << label;
    for (size_t i = 0; i < fast.steps.size(); ++i) {
      ASSERT_TRUE(same_bits(fast.steps[i].start_ms, ref.steps[i].start_ms) &&
                  same_bits(fast.steps[i].end_ms, ref.steps[i].end_ms))
          << label << " step " << i;
    }
    for (size_t i = 0; i < fast.requests.size(); ++i) {
      ASSERT_TRUE(same_bits(fast.requests[i].done_ms, ref.requests[i].done_ms))
          << label << " request " << i;
    }
    using Pct = const sm::LatencyPercentiles*;
    for (const auto& [a, b] : std::vector<std::pair<Pct, Pct>>{
             {&fast.ttft, &ref.ttft}, {&fast.tpot, &ref.tpot},
             {&fast.e2e, &ref.e2e}}) {
      EXPECT_TRUE(same_bits(a->p50_ms, b->p50_ms) &&
                  same_bits(a->p95_ms, b->p95_ms) &&
                  same_bits(a->p99_ms, b->p99_ms))
          << label;
    }
    EXPECT_TRUE(same_bits(fast.makespan_ms, ref.makespan_ms)) << label;
    EXPECT_TRUE(same_bits(fast.busy_ms, ref.busy_ms)) << label;
  }
}

}  // namespace
