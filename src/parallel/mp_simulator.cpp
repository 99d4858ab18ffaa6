#include "parallel/mp_simulator.h"

#include <algorithm>
#include <string>

#include "compress/compressor.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "sim/collectives.h"
#include "tensor/check.h"

namespace actcomp::parallel {

namespace cp = actcomp::compress;
namespace sm = actcomp::sim;

namespace {

/// Bytes of the backward (gradient) message crossing a compressed pipeline
/// boundary. Sparse and AE gradients shrink with the forward message; the
/// quantized path does NOT (paper §3.3: the backward engine only supports
/// float gradients, so the gradient stays activation-sized).
int64_t backward_wire_bytes(cp::Setting s, int64_t numel, int64_t hidden) {
  if (s == cp::Setting::kBaseline || cp::is_quant(s)) return numel * 2;
  return cp::wire_bytes(s, numel, hidden);
}

}  // namespace

obs::PhaseBreakdown IterationBreakdown::phase_breakdown(
    obs::Accounting accounting) const {
  const bool ft = accounting == obs::Accounting::kFinetune;
  obs::PhaseBreakdown b;
  b.forward_ms = ft ? fwd_critical_ms : fwd_busy_max_ms;
  b.backward_ms = ft ? bwd_critical_ms : bwd_busy_max_ms;
  b.optimizer_ms = optimizer_ms;
  b.waiting_ms = ft ? waiting_finetune_ms() : waiting_pretrain_ms();
  b.total_ms = total_ms();
  b.encode_ms = enc_ms;
  b.decode_ms = dec_ms;
  b.tensor_comm_ms = tensor_comm_ms;
  return b;
}

ModelParallelSimulator::ModelParallelSimulator(sim::ClusterSpec cluster,
                                               nn::BertConfig model,
                                               ParallelConfig parallel,
                                               TrainJob job,
                                               sim::ScheduleKind schedule)
    : ModelParallelSimulator(std::move(cluster), model, parallel, job,
                             SimOptions{schedule, 1, false, false}) {}

ModelParallelSimulator::ModelParallelSimulator(sim::ClusterSpec cluster,
                                               nn::BertConfig model,
                                               ParallelConfig parallel,
                                               TrainJob job, SimOptions options)
    : cluster_(std::move(cluster)),
      model_(model),
      parallel_(parallel),
      job_(job),
      options_(options) {
  cluster_.validate();
  ACTCOMP_CHECK(parallel_.tp >= 1 && parallel_.pp >= 1 && parallel_.dp >= 1,
                "bad parallel degrees");
  ACTCOMP_CHECK(parallel_.tp * parallel_.pp * parallel_.dp == cluster_.total_gpus(),
                "tp*pp*dp = " << parallel_.tp * parallel_.pp * parallel_.dp
                              << " != cluster GPUs " << cluster_.total_gpus());
  ACTCOMP_CHECK(model_.num_layers % parallel_.pp == 0,
                "layers " << model_.num_layers << " not divisible by pp "
                          << parallel_.pp);
  ACTCOMP_CHECK(job_.micro_batch > 0 && job_.num_micro > 0 && job_.seq > 0,
                "bad train job");
  const int v = options_.virtual_stages;
  if (options_.schedule == sim::ScheduleKind::kInterleaved1F1B) {
    ACTCOMP_CHECK(v >= 2, "interleaved 1F1B needs virtual_stages >= 2");
    ACTCOMP_CHECK(
        model_.num_layers % (parallel_.pp * static_cast<int64_t>(v)) == 0,
        "layers " << model_.num_layers << " not divisible by pp*v = "
                  << parallel_.pp * v);
    ACTCOMP_CHECK(job_.num_micro % parallel_.pp == 0,
                  "interleaved 1F1B needs num_micro divisible by pp");
  } else {
    ACTCOMP_CHECK(v == 1,
                  "virtual_stages > 1 requires ScheduleKind::kInterleaved1F1B");
  }
  if (options_.lossless_wire.enabled) {
    ACTCOMP_CHECK(v == 1,
                  "lossless_wire models one message per boundary crossing and "
                  "is only supported with virtual_stages == 1");
    ACTCOMP_CHECK(options_.lossless_wire.ratio > 0.0 &&
                      options_.lossless_wire.ratio <= 1.0,
                  "lossless_wire.ratio must be in (0, 1], got "
                      << options_.lossless_wire.ratio);
    ACTCOMP_CHECK(options_.lossless_wire.chunks >= 1,
                  "lossless_wire.chunks must be >= 1, got "
                      << options_.lossless_wire.chunks);
  }
  overhead_.gpu = cluster_.gpu;
}

const sim::LinkSpec& ModelParallelSimulator::tp_link() const {
  // TP inside the node when it fits; otherwise it spills over the network.
  return parallel_.tp <= cluster_.gpus_per_node ? cluster_.intra_node
                                                : cluster_.inter_node;
}

const sim::LinkSpec& ModelParallelSimulator::boundary_link(int boundary) const {
  // Stage s occupies global GPUs [s*tp, (s+1)*tp); the boundary crosses
  // nodes iff the adjacent stages' lead GPUs live on different nodes.
  return boundary_cross_node(boundary) ? cluster_.inter_node
                                       : cluster_.intra_node;
}

bool ModelParallelSimulator::boundary_cross_node(int boundary) const {
  const int gpu_a = boundary * parallel_.tp;
  const int gpu_b = (boundary + 1) * parallel_.tp;
  return gpu_a / cluster_.gpus_per_node != gpu_b / cluster_.gpus_per_node;
}

double ModelParallelSimulator::boundary_parallelism(int boundary) const {
  if (boundary_cross_node(boundary)) return 1.0;  // slices share one NIC
  if (!cluster_.has_nvlink) return 1.0;  // slices share one PCIe bridge
  return static_cast<double>(parallel_.tp);  // parallel NVLink lanes
}

void ModelParallelSimulator::dp_group_shape(int* intra, int* inter) const {
  const int mp = parallel_.tp * parallel_.pp;
  int in_node = std::min(parallel_.dp, std::max(1, cluster_.gpus_per_node / mp));
  // Keep the two-level split exact; a ragged fit degenerates to all-inter.
  if (parallel_.dp % in_node != 0) in_node = 1;
  *intra = in_node;
  *inter = parallel_.dp / in_node;
}

int64_t ModelParallelSimulator::parameter_count(const nn::BertConfig& cfg) {
  // Per layer: QKV+output projections 4h^2 + MLP 8h^2 + biases/LN ~ 13h.
  const int64_t per_layer = 12 * cfg.hidden * cfg.hidden + 13 * cfg.hidden;
  return cfg.num_layers * per_layer + (cfg.vocab_size + cfg.max_seq) * cfg.hidden;
}

IterationBreakdown ModelParallelSimulator::run(
    const core::CompressionPlan& plan) const {
  ACTCOMP_PROFILE("parallel.mp_sim.run");
  const int tp = parallel_.tp;
  const int pp = parallel_.pp;
  const int64_t h = model_.hidden;
  const int64_t b = job_.micro_batch;
  const int64_t s = job_.seq;
  const int64_t layers_per_stage = model_.num_layers / pp;
  const int64_t msg_numel = b * s * h;  // one all-reduce / boundary tensor

  // Paper §4.7 / Narayanan et al.: FLOPs (fwd+bwd) per layer per micro-batch.
  const double layer_total_flops =
      96.0 * static_cast<double>(b) * static_cast<double>(s) *
          static_cast<double>(h) * static_cast<double>(h) +
      16.0 * static_cast<double>(b) * static_cast<double>(s) *
          static_cast<double>(s) * static_cast<double>(h);
  const double layer_fwd_flops = layer_total_flops / 3.0;
  const double layer_bwd_flops = 2.0 * layer_total_flops / 3.0;

  sm::PipelineCosts costs;
  costs.micro_batches = static_cast<int>(job_.num_micro);
  costs.fwd_ms.assign(static_cast<size_t>(pp), 0.0);
  costs.bwd_ms.assign(static_cast<size_t>(pp), 0.0);
  costs.p2p_fwd_ms.assign(static_cast<size_t>(pp - 1), 0.0);
  costs.p2p_bwd_ms.assign(static_cast<size_t>(pp - 1), 0.0);

  std::vector<double> stage_enc(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_dec(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_tp_comm(static_cast<size_t>(pp), 0.0);
  // Per-micro-batch bytes crossing each pipeline boundary (summed over
  // chunks under interleaving); flushed into per-link counters at the end.
  std::vector<int64_t> link_fwd_bytes(static_cast<size_t>(pp > 0 ? pp - 1 : 0), 0);
  std::vector<int64_t> link_bwd_bytes(link_fwd_bytes.size(), 0);

  const sim::LinkSpec& tpl = tp_link();
  const cp::Setting setting = plan.setting;

  // Lossless wire stage (ZipCCL-style link shim, DESIGN.md §16): the
  // collective keeps its algorithm, its payload shrinks by the measured
  // ratio, and each endpoint pays one encode + one decode at the measured
  // GB/s — chunk-pipelined against the transfer. The codec time is INSIDE
  // the returned span (it serializes into comm / p2p durations); the
  // stage_ll_* accumulators only report it. Disabled takes none of these
  // branches, so the pre-existing arithmetic is reproduced bit for bit.
  const sm::LosslessWireSpec& lw = options_.lossless_wire;
  std::vector<double> stage_ll_enc(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_ll_dec(static_cast<size_t>(pp), 0.0);
  auto ll_bytes = [&](int64_t raw) { return sm::lossless_wire_bytes(raw, lw); };
  auto ll_collective = [&](double coll_ms, int64_t raw_bytes, double* e_acc,
                           double* d_acc) {
    const double e = sm::codec_ms(raw_bytes, lw.encode_gb_s);
    const double d = sm::codec_ms(raw_bytes, lw.decode_gb_s);
    *e_acc += e;
    *d_acc += d;
    return sm::chunk_pipelined_ms(e, coll_ms, d, lw.chunks);
  };

  for (int stage = 0; stage < pp; ++stage) {
    double fwd = 0.0, bwd = 0.0, enc = 0.0, dec = 0.0, comm = 0.0;
    double ll_e = 0.0, ll_d = 0.0;
    for (int64_t l = stage * layers_per_stage; l < (stage + 1) * layers_per_stage;
         ++l) {
      fwd += cluster_.gpu.compute_ms(layer_fwd_flops / tp);
      bwd += cluster_.gpu.compute_ms(layer_bwd_flops / tp);
      if (tp > 1) {
        // Two forward all-reduces (attention out, MLP out) — the compressible
        // points — and two backward all-reduces (input grads), never
        // compressed.
        const bool comp = plan.compresses(l);
        for (int point = 0; point < 2; ++point) {
          if (!comp) {
            if (!lw.enabled) {
              comm += sm::allreduce_ms(msg_numel * 2, tp, tpl);
            } else {
              comm += ll_collective(
                  sm::allreduce_ms(ll_bytes(msg_numel * 2), tp, tpl),
                  msg_numel * 2, &ll_e, &ll_d);
            }
          } else if (cp::is_ae(setting)) {
            fwd += overhead_.dispatch_ms;  // outside the enc/dec timers
            enc += overhead_.encode_ms(setting, msg_numel, h);
            const int64_t w = cp::wire_bytes(setting, msg_numel, h);
            if (!lw.enabled) {
              comm += sm::allreduce_ms(w, tp, tpl);
            } else {
              comm += ll_collective(sm::allreduce_ms(ll_bytes(w), tp, tpl), w,
                                    &ll_e, &ll_d);
            }
            dec += overhead_.decode_ms(setting, msg_numel, h);
          } else {
            // Multi-tensor wire formats cannot ride all-reduce (§3.2):
            // all-gather, then every rank decodes all tp messages.
            fwd += overhead_.dispatch_ms;
            enc += overhead_.encode_ms(setting, msg_numel, h);
            const int64_t w = cp::wire_bytes(setting, msg_numel, h);
            if (!lw.enabled) {
              comm += sm::allgather_ms(w, tp, tpl);
            } else {
              comm += ll_collective(sm::allgather_ms(ll_bytes(w), tp, tpl), w,
                                    &ll_e, &ll_d);
            }
            dec += overhead_.decode_ms(setting, msg_numel, h, tp);
          }
        }
        if (!lw.enabled) {
          comm += 2.0 * sm::allreduce_ms(msg_numel * 2, tp, tpl);  // backward
        } else {
          // Two identical backward all-reduces. Summing the pair before the
          // += keeps the neutral spec (ratio 1, free codecs, chunks 1)
          // bit-identical to the `2.0 *` form above: a + a == 2.0 * a in
          // IEEE, whereas (comm += a) twice rounds differently.
          const double ar = sm::allreduce_ms(ll_bytes(msg_numel * 2), tp, tpl);
          comm += ll_collective(ar, msg_numel * 2, &ll_e, &ll_d) +
                  ll_collective(ar, msg_numel * 2, &ll_e, &ll_d);
        }
        if (comp) bwd += 2.0 * overhead_.backward_extra_ms(setting, msg_numel, h);
      }
    }
    // TP comm and codec work happen inside the forward/backward steps.
    const double fwd_comm_share = tp > 1 ? comm / 2.0 : 0.0;  // fwd all-reduces
    costs.fwd_ms[static_cast<size_t>(stage)] = fwd + fwd_comm_share + enc + dec;
    costs.bwd_ms[static_cast<size_t>(stage)] = bwd + (comm - fwd_comm_share);
    stage_enc[static_cast<size_t>(stage)] = enc;
    stage_dec[static_cast<size_t>(stage)] = dec;
    stage_tp_comm[static_cast<size_t>(stage)] = comm;
    stage_ll_enc[static_cast<size_t>(stage)] += ll_e;
    stage_ll_dec[static_cast<size_t>(stage)] += ll_d;
  }

  // Pipeline boundaries. The activation leaving stage `st` feeds the first
  // layer of stage st+1; it is compressed iff that consumer layer is in the
  // plan window (matches the paper's Table 9, where with the last 12 of 24
  // layers compressed and pp=4, boundaries 1<->2 and 2<->3 shrink but 0<->1
  // does not).
  const int v = options_.virtual_stages;
  if (options_.link_contention) {
    // Engine-level contention: the boundary tensor moves as tp
    // scatter-gather slices over the link's lanes (tp parallel NVLink
    // lanes, or a single shared NIC / PCIe lane), so slice launch latency
    // and cross-micro-batch queuing are simulated instead of approximated.
    costs.boundary_shape.resize(static_cast<size_t>(pp - 1));
    for (int bd = 0; bd + 1 < pp; ++bd) {
      auto& shape = costs.boundary_shape[static_cast<size_t>(bd)];
      shape.slices = tp;
      shape.lanes =
          (boundary_cross_node(bd) || !cluster_.has_nvlink) ? 1 : tp;
    }
  }
  // p2p duration of one transfer (or one slice, under contention).
  auto p2p_cost = [&](int64_t bytes, int bd) {
    const sim::LinkSpec& link = boundary_link(bd);
    if (options_.link_contention) return sm::p2p_ms(bytes / tp, link);
    const double par = boundary_parallelism(bd);
    return sm::p2p_ms(static_cast<int64_t>(static_cast<double>(bytes) / par),
                      link);
  };
  if (v == 1) {
    for (int bd = 0; bd + 1 < pp; ++bd) {
      const int64_t consumer_layer =
          static_cast<int64_t>(bd + 1) * layers_per_stage;
      const bool comp = plan.compresses(consumer_layer);
      const int64_t fwd_bytes =
          comp ? cp::wire_bytes(setting, msg_numel, h) : msg_numel * 2;
      const int64_t bwd_bytes =
          comp ? backward_wire_bytes(setting, msg_numel, h) : msg_numel * 2;
      if (!lw.enabled) {
        costs.p2p_fwd_ms[static_cast<size_t>(bd)] = p2p_cost(fwd_bytes, bd);
        costs.p2p_bwd_ms[static_cast<size_t>(bd)] = p2p_cost(bwd_bytes, bd);
      } else {
        // Sender encodes, link carries the coded bytes, receiver decodes;
        // chunks overlap the three. The whole span rides in the boundary's
        // p2p duration (the engine's transfer op), like the lossy path's
        // closed-form p2p cost.
        const double fe = sm::codec_ms(fwd_bytes, lw.encode_gb_s);
        const double fd = sm::codec_ms(fwd_bytes, lw.decode_gb_s);
        const double be = sm::codec_ms(bwd_bytes, lw.encode_gb_s);
        const double bdd = sm::codec_ms(bwd_bytes, lw.decode_gb_s);
        costs.p2p_fwd_ms[static_cast<size_t>(bd)] = sm::chunk_pipelined_ms(
            fe, p2p_cost(ll_bytes(fwd_bytes), bd), fd, lw.chunks);
        costs.p2p_bwd_ms[static_cast<size_t>(bd)] = sm::chunk_pipelined_ms(
            be, p2p_cost(ll_bytes(bwd_bytes), bd), bdd, lw.chunks);
        stage_ll_enc[static_cast<size_t>(bd)] += fe;
        stage_ll_dec[static_cast<size_t>(bd + 1)] += fd;
        stage_ll_enc[static_cast<size_t>(bd + 1)] += be;
        stage_ll_dec[static_cast<size_t>(bd)] += bdd;
      }
      link_fwd_bytes[static_cast<size_t>(bd)] = ll_bytes(fwd_bytes);
      link_bwd_bytes[static_cast<size_t>(bd)] = ll_bytes(bwd_bytes);

      if (comp) {
        // Sender encodes at the end of its forward; receiver decodes at the
        // start of its forward.
        const double e = overhead_.encode_ms(setting, msg_numel, h);
        const double d = overhead_.decode_ms(setting, msg_numel, h);
        costs.fwd_ms[static_cast<size_t>(bd)] += e + overhead_.dispatch_ms / 2;
        costs.fwd_ms[static_cast<size_t>(bd + 1)] += d + overhead_.dispatch_ms / 2;
        stage_enc[static_cast<size_t>(bd)] += e;
        stage_dec[static_cast<size_t>(bd + 1)] += d;
      }
    }
  } else {
    // Interleaved: each boundary is crossed once per model chunk (and the
    // wrap link between consecutive chunks). The engine charges one p2p
    // duration per boundary, so we average the per-chunk wire sizes — the
    // total traffic is preserved exactly; per-crossing variation within one
    // boundary is smoothed.
    const int64_t layers_per_chunk = model_.num_layers / (pp * v);
    auto transition_bytes = [&](int64_t consumer_layer, bool backward) {
      const bool comp = plan.compresses(consumer_layer);
      if (!comp) return msg_numel * 2;
      return backward ? backward_wire_bytes(setting, msg_numel, h)
                      : cp::wire_bytes(setting, msg_numel, h);
    };
    for (int bd = 0; bd + 1 < pp; ++bd) {
      double fwd_sum = 0.0, bwd_sum = 0.0;
      for (int c = 0; c < v; ++c) {
        const int64_t consumer_layer =
            (static_cast<int64_t>(c) * pp + bd + 1) * layers_per_chunk;
        fwd_sum += static_cast<double>(transition_bytes(consumer_layer, false));
        bwd_sum += static_cast<double>(transition_bytes(consumer_layer, true));
        if (plan.compresses(consumer_layer)) {
          const double e = overhead_.encode_ms(setting, msg_numel, h);
          const double d = overhead_.decode_ms(setting, msg_numel, h);
          costs.fwd_ms[static_cast<size_t>(bd)] +=
              e + overhead_.dispatch_ms / 2;
          costs.fwd_ms[static_cast<size_t>(bd + 1)] +=
              d + overhead_.dispatch_ms / 2;
          stage_enc[static_cast<size_t>(bd)] += e;
          stage_dec[static_cast<size_t>(bd + 1)] += d;
        }
      }
      costs.p2p_fwd_ms[static_cast<size_t>(bd)] =
          p2p_cost(static_cast<int64_t>(fwd_sum / v), bd);
      costs.p2p_bwd_ms[static_cast<size_t>(bd)] =
          p2p_cost(static_cast<int64_t>(bwd_sum / v), bd);
      link_fwd_bytes[static_cast<size_t>(bd)] = static_cast<int64_t>(fwd_sum);
      link_bwd_bytes[static_cast<size_t>(bd)] = static_cast<int64_t>(bwd_sum);
    }
    // Wrap link (stage pp-1 -> stage 0), crossed between chunks c and c+1.
    const bool wrap_cross =
        ((pp - 1) * tp) / cluster_.gpus_per_node != 0;
    const sim::LinkSpec& wrap_link =
        wrap_cross ? cluster_.inter_node : cluster_.intra_node;
    const double wrap_par =
        (wrap_cross || !cluster_.has_nvlink) ? 1.0 : static_cast<double>(tp);
    if (v > 1 && pp > 1) {
      double fwd_sum = 0.0, bwd_sum = 0.0;
      for (int c = 0; c + 1 < v; ++c) {
        const int64_t consumer_layer =
            (static_cast<int64_t>(c) * pp + pp) * layers_per_chunk;
        fwd_sum += static_cast<double>(transition_bytes(consumer_layer, false));
        bwd_sum += static_cast<double>(transition_bytes(consumer_layer, true));
        if (plan.compresses(consumer_layer)) {
          const double e = overhead_.encode_ms(setting, msg_numel, h);
          const double d = overhead_.decode_ms(setting, msg_numel, h);
          costs.fwd_ms[static_cast<size_t>(pp - 1)] +=
              e + overhead_.dispatch_ms / 2;
          costs.fwd_ms[0] += d + overhead_.dispatch_ms / 2;
          stage_enc[static_cast<size_t>(pp - 1)] += e;
          stage_dec[0] += d;
        }
      }
      costs.p2p_wrap_fwd_ms = sm::p2p_ms(
          static_cast<int64_t>(fwd_sum / (v - 1) / wrap_par), wrap_link);
      costs.p2p_wrap_bwd_ms = sm::p2p_ms(
          static_cast<int64_t>(bwd_sum / (v - 1) / wrap_par), wrap_link);
    }
  }

  // Data-parallel axis: dp replicas of the tp*pp grid, coupled by a
  // per-stage gradient all-reduce over the DP group. The group is
  // hierarchical on the cluster — peers inside a node reduce over NVLink,
  // one leader per node rings over the spine-adjusted cross-node link.
  // Gradients may be compressed (dp_grad_setting); codec time is serialized
  // with the collective on the DP link, and the wire-size model is the same
  // one activations use (the gradient shard is priced as a numel-element
  // tensor of hidden-sized rows).
  if (parallel_.dp > 1) {
    costs.dp.replicas = parallel_.dp;
    costs.dp.overlap_grads = options_.dp_overlap_grads;
    const cp::Setting gset = options_.dp_grad_setting;
    const int64_t grad_elems = parameter_count(model_) / (tp * pp);
    int64_t grad_wire = grad_elems * 2;
    double g_enc = 0.0, g_dec = 0.0;
    if (gset != cp::Setting::kBaseline) {
      grad_wire = cp::wire_bytes(gset, grad_elems, h);
      g_enc = overhead_.encode_ms(gset, grad_elems, h);
      g_dec = overhead_.decode_ms(gset, grad_elems, h);
    }
    int dp_intra = 1, dp_inter = 1;
    dp_group_shape(&dp_intra, &dp_inter);
    const sim::LinkSpec cross =
        cluster_.topology.cross_node(cluster_.inter_node, dp_inter);
    const double ar_ms =
        sm::hierarchical_allreduce_ms(grad_wire, dp_intra, dp_inter,
                                      cluster_.intra_node, cross) +
        g_enc + g_dec;
    costs.dp.grad_allreduce_ms.assign(static_cast<size_t>(pp), ar_ms);
  }

  const sm::PipelineResult pres = sm::simulate_pipeline(
      costs, sm::PipelineOptions{options_.schedule, options_.virtual_stages,
                                 options_.overlap, options_.faults});

  IterationBreakdown out;
  out.makespan_ms = pres.makespan_ms;
  out.fault_retries = pres.fault_retries;
  out.fault_retry_ms = pres.fault_retry_ms + pres.fault_backoff_ms;
  out.dp_replicas = pres.dp_replicas;
  out.dp_comm_ms = pres.dp_comm_ms;
  const int64_t params_per_rank = parameter_count(model_) / (tp * pp);
  // Fused Adam on V100: ~0.04 ns/param plus a fixed launch cost (fitted to
  // the paper's 5-8 ms optimizer rows).
  out.optimizer_ms = 3.0 + static_cast<double>(params_per_rank) * 0.04e-6;

  const double m = static_cast<double>(job_.num_micro);
  for (int stage = 0; stage < pp; ++stage) {
    out.fwd_critical_ms += costs.fwd_ms[static_cast<size_t>(stage)];
    out.bwd_critical_ms += costs.bwd_ms[static_cast<size_t>(stage)];
    out.fwd_busy_max_ms =
        std::max(out.fwd_busy_max_ms, m * costs.fwd_ms[static_cast<size_t>(stage)]);
    out.bwd_busy_max_ms =
        std::max(out.bwd_busy_max_ms, m * costs.bwd_ms[static_cast<size_t>(stage)]);
  }
  // The paper profiles the last pipeline stage's rank (where the compressed
  // layers live under the default last-half plan); report that stage's
  // per-iteration totals.
  out.enc_ms = m * stage_enc[static_cast<size_t>(pp - 1)];
  out.dec_ms = m * stage_dec[static_cast<size_t>(pp - 1)];
  out.tensor_comm_ms = m * stage_tp_comm[static_cast<size_t>(pp - 1)];
  out.lossless_enc_ms = m * stage_ll_enc[static_cast<size_t>(pp - 1)];
  out.lossless_dec_ms = m * stage_ll_dec[static_cast<size_t>(pp - 1)];
  for (int bd = 0; bd + 1 < pp; ++bd) {
    out.boundary_fwd_ms.push_back(m * costs.p2p_fwd_ms[static_cast<size_t>(bd)]);
    out.boundary_bwd_ms.push_back(m * costs.p2p_bwd_ms[static_cast<size_t>(bd)]);
  }
  // Bytes-on-wire per link, per iteration simulated. Cumulative across run()
  // calls, so a sweep's report shows the traffic of the whole sweep.
  obs::Registry& reg = obs::Registry::instance();
  for (size_t bd = 0; bd < link_fwd_bytes.size(); ++bd) {
    const std::string base = "parallel.link.b" + std::to_string(bd);
    reg.counter(base + ".fwd_bytes").add(job_.num_micro * link_fwd_bytes[bd]);
    reg.counter(base + ".bwd_bytes").add(job_.num_micro * link_bwd_bytes[bd]);
  }
  return out;
}

InferenceStepCost ModelParallelSimulator::inference_step_cost(
    const core::CompressionPlan& plan, const InferenceBatch& batch) const {
  ACTCOMP_CHECK(batch.seqs >= 1,
                "inference batch needs seqs >= 1, got " << batch.seqs);
  ACTCOMP_CHECK(batch.new_tokens >= 1,
                "inference batch needs new_tokens >= 1, got " << batch.new_tokens);
  ACTCOMP_CHECK(batch.context_tokens >= batch.new_tokens,
                "context_tokens = " << batch.context_tokens << " < new_tokens = "
                                    << batch.new_tokens
                                    << " — every new token attends at least "
                                       "itself");
  const int tp = parallel_.tp;
  const int pp = parallel_.pp;
  const int64_t h = model_.hidden;
  const int64_t layers_per_stage = model_.num_layers / pp;
  // One TP collective moves the new tokens' activations only — the KV cache
  // stays resident on its ranks. This is why decode steps are latency-bound:
  // msg_numel collapses to seqs*h per step.
  const int64_t msg_numel = batch.new_tokens * h;
  // Forward-only FLOPs, the training model's fwd third specialized to
  // incremental attention: GEMMs scale with new tokens, attention with the
  // attended (query, key) pairs.
  const double gemm_flops = 32.0 * static_cast<double>(batch.new_tokens) *
                            static_cast<double>(h) * static_cast<double>(h);
  const double attn_flops =
      16.0 / 3.0 * static_cast<double>(batch.context_tokens) *
      static_cast<double>(h);
  const sim::LinkSpec& tpl = tp_link();
  const cp::Setting setting = plan.setting;

  // Every point of one kind costs the same within a step: each term is a
  // pure function of the step shape, so it is priced once here and the loops
  // below only replay the per-point `+=` sequence. Same operands in the same
  // order, so every field is bit-identical to pricing point by point. A term
  // is priced only if some point uses it, so no cost model sees a query (or
  // can throw on one) that per-point pricing would not have made.
  const auto consumer_layer = [&](int bd) {
    return static_cast<int64_t>(bd + 1) * layers_per_stage;
  };
  bool tp_plain = false, tp_comp = false, bd_comp = false;
  for (int64_t l = 0; tp > 1 && l < model_.num_layers; ++l) {
    (plan.compresses(l) ? tp_comp : tp_plain) = true;
  }
  for (int bd = 0; bd + 1 < pp; ++bd) {
    bd_comp = bd_comp || plan.compresses(consumer_layer(bd));
  }
  const double layer_compute_ms =
      cluster_.gpu.compute_ms((gemm_flops + attn_flops) / tp);
  const double plain_ms =
      tp_plain ? sm::allreduce_ms(msg_numel * 2, tp, tpl) : 0.0;
  double enc_ms = 0.0, coll_ms = 0.0, tp_dec_ms = 0.0, bd_dec_ms = 0.0;
  int64_t wire = 0;
  if (tp_comp || bd_comp) {
    enc_ms = overhead_.encode_ms(setting, msg_numel, h);
    wire = cp::wire_bytes(setting, msg_numel, h);
  }
  if (tp_comp) {
    // AE codes ride the all-reduce; multi-tensor wire formats cannot (§3.2):
    // all-gather, then every rank decodes all tp messages.
    const bool ae = cp::is_ae(setting);
    coll_ms = ae ? sm::allreduce_ms(wire, tp, tpl)
                 : sm::allgather_ms(wire, tp, tpl);
    tp_dec_ms = overhead_.decode_ms(setting, msg_numel, h, ae ? 1 : tp);
  }
  if (bd_comp) bd_dec_ms = overhead_.decode_ms(setting, msg_numel, h);

  InferenceStepCost out;
  for (int64_t l = 0; l < model_.num_layers; ++l) {
    out.compute_ms += layer_compute_ms;
    if (tp > 1) {
      // The same two compressible forward collectives per layer as training
      // (attention out, MLP out); no backward all-reduces exist here.
      const bool comp = plan.compresses(l);
      for (int point = 0; point < 2; ++point) {
        if (!comp) {
          out.tp_comm_ms += plain_ms;
        } else {
          out.dispatch_ms += overhead_.dispatch_ms;
          out.enc_ms += enc_ms;
          out.tp_comm_ms += coll_ms;
          out.dec_ms += tp_dec_ms;
        }
      }
    }
  }
  for (int bd = 0; bd + 1 < pp; ++bd) {
    const bool comp = plan.compresses(consumer_layer(bd));
    const int64_t bytes = comp ? wire : msg_numel * 2;
    const double par = boundary_parallelism(bd);
    out.p2p_ms +=
        sm::p2p_ms(static_cast<int64_t>(static_cast<double>(bytes) / par),
                   boundary_link(bd));
    if (comp) {
      out.dispatch_ms += overhead_.dispatch_ms;
      out.enc_ms += enc_ms;
      out.dec_ms += bd_dec_ms;
    }
  }
  return out;
}

InferenceBreakdown ModelParallelSimulator::run_inference(
    const core::CompressionPlan& plan, int64_t prompt_tokens,
    int64_t new_tokens, int64_t batch) const {
  ACTCOMP_CHECK(prompt_tokens >= 1,
                "run_inference needs prompt_tokens >= 1, got " << prompt_tokens);
  ACTCOMP_CHECK(new_tokens >= 0,
                "run_inference needs new_tokens >= 0, got " << new_tokens);
  ACTCOMP_CHECK(batch >= 1, "run_inference needs batch >= 1, got " << batch);

  InferenceBreakdown out;
  const InferenceBatch pre{batch, batch * prompt_tokens,
                           batch * prompt_tokens * (prompt_tokens + 1) / 2};
  out.prefill = inference_step_cost(plan, pre);
  out.ttft_ms = out.prefill.total_ms();
  out.total_ms = out.ttft_ms;
  // Token g of the generation (g >= 1; token 0 falls out of the prefill) is
  // decoded at context prompt + g. Summed exactly, not at a mean context.
  double decode_sum = 0.0;
  for (int64_t g = 1; g < new_tokens; ++g) {
    const InferenceBatch dec{batch, batch, batch * (prompt_tokens + g)};
    const InferenceStepCost c = inference_step_cost(plan, dec);
    if (g == 1) out.first_decode = c;
    decode_sum += c.total_ms();
  }
  if (new_tokens >= 2) {
    out.per_token_ms = decode_sum / static_cast<double>(new_tokens - 1);
    out.total_ms += decode_sum;
  }
  return out;
}

sim::StepCostFn make_serving_cost(const ModelParallelSimulator& sim,
                                  const core::CompressionPlan& plan) {
  return [sim, plan](const sim::StepShape& shape) {
    const InferenceBatch batch{shape.seqs, shape.new_tokens,
                               shape.context_tokens};
    return sim.inference_step_cost(plan, batch).total_ms();
  };
}

std::vector<compress::Setting> serving_ladder_settings() {
  return {compress::Setting::kBaseline, compress::Setting::kQ3,
          compress::Setting::kQ2, compress::Setting::kT3};
}

std::vector<sim::StepCostFn> make_serving_cost_ladder(
    const ModelParallelSimulator& sim, int64_t num_layers) {
  std::vector<sim::StepCostFn> ladder;
  for (const compress::Setting s : serving_ladder_settings()) {
    ladder.push_back(make_serving_cost(
        sim, core::CompressionPlan::paper_default(s, num_layers)));
  }
  return ladder;
}

}  // namespace actcomp::parallel
