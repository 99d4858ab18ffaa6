// Workload `finetune`: the Table-5 fine-tune loop, driven step by step.
//
// Shape: bench::bench_model_config (h=32, 4 layers, seq 24), batch 16, the
// synthetic 3-class MNLI-m task, pool width 2. Each cycle runs one segment
// of kSegmentSteps steps per setting (w/o, A2, T3, Q2), each under
// CompressionPlan::paper_default with pp_degree 2 on a freshly built model.
// A step is forward -> head -> softmax_cross_entropy -> backward ->
// clip_grad_norm + Adam::step; the compressors sit behind a forwarding
// wrapper that times apply() from outside.
//
// Checks: every loss is finite; on each segment's first step the wrapped
// path equals a CompressionBinder-built twin bit for bit (loss and every
// updated parameter); each setting's final loss repeats exactly from cycle
// to cycle, and its digest is printed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "autograd/functions.h"
#include "bench/lab.h"
#include "compress/settings.h"
#include "core/binder.h"
#include "core/threadpool.h"
#include "data/dataset.h"
#include "harness.h"
#include "nn/bert.h"
#include "train/optimizer.h"

namespace actcomp::perfbench {
namespace {

namespace ag = actcomp::autograd;
namespace cp = actcomp::compress;
namespace ts = actcomp::tensor;

constexpr int64_t kBatch = 16;
constexpr int64_t kSeq = 24;
constexpr int64_t kPpDegree = 2;
constexpr float kLr = 5e-4f;
constexpr float kClipNorm = 1.0f;
const cp::Setting kSettings[] = {cp::Setting::kBaseline, cp::Setting::kA2,
                                 cp::Setting::kT3, cp::Setting::kQ2};

/// Forwards every call to the codec it owns and times apply(), the only
/// entry point the training forward uses.
class TimedCompressor final : public cp::Compressor {
 public:
  TimedCompressor(cp::CompressorPtr inner, int64_t& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  std::string name() const override { return inner_->name(); }
  ts::Tensor round_trip(const ts::Tensor& x) override {
    return inner_->round_trip(x);
  }
  ag::Variable apply(const ag::Variable& x) override {
    ACTCOMP_PROFILE("bench.compress.apply");
    ++calls_;
    return inner_->apply(x);
  }
  cp::WireFormat wire_size(const ts::Shape& shape) const override {
    return inner_->wire_size(shape);
  }
  bool allreduce_compatible() const override {
    return inner_->allreduce_compatible();
  }
  std::vector<ag::Variable> parameters() override { return inner_->parameters(); }

 protected:
  cp::CompressedMessage do_encode(const ts::Tensor& x) override {
    return inner_->encode(x);
  }
  ts::Tensor do_decode(const cp::CompressedMessage& msg) const override {
    return inner_->decode(msg);
  }

 private:
  cp::CompressorPtr inner_;
  int64_t& calls_;
};

/// One model under training. Exactly one of `binder` (reference path) or
/// `codecs` (wrapped path) is populated; both draw the codecs from the same
/// generator in the same order, so the two paths start bit-identical.
struct Trainee {
  std::unique_ptr<nn::BertModel> model;
  std::unique_ptr<core::CompressionBinder> binder;
  std::vector<cp::CompressorPtr> codecs;
  std::unique_ptr<nn::ClassificationHead> head;
  std::unique_ptr<train::Adam> opt;
  std::vector<ag::Variable> params;
};

Trainee build(cp::Setting s, uint64_t seed, int64_t* calls) {
  Trainee t;
  ts::Generator gen(seed);
  const nn::BertConfig cfg = bench::bench_model_config(kSeq);
  t.model = std::make_unique<nn::BertModel>(cfg, gen);
  const auto plan = core::CompressionPlan::paper_default(s, cfg.num_layers);
  std::vector<ag::Variable> codec_params;
  if (calls == nullptr) {
    t.binder = std::make_unique<core::CompressionBinder>(*t.model, plan,
                                                         kPpDegree, gen);
    codec_params = t.binder->codec_parameters();
  } else if (s != cp::Setting::kBaseline) {
    auto wrapped = [&] {
      t.codecs.push_back(std::make_unique<TimedCompressor>(
          cp::make_compressor(s, cfg.hidden, gen), *calls));
      return t.codecs.back().get();
    };
    for (int64_t i = plan.first_layer; i < plan.first_layer + plan.count; ++i) {
      cp::Compressor* attn = wrapped();
      t.model->set_layer_compression(i, attn, wrapped());
    }
    for (int64_t b : core::pipeline_boundaries(cfg.num_layers, kPpDegree)) {
      if (plan.compresses(b)) t.model->set_boundary_compression(b, wrapped());
    }
    for (auto& c : t.codecs) {
      for (auto& p : c->parameters()) codec_params.push_back(p);
    }
  }
  t.head = std::make_unique<nn::ClassificationHead>(cfg.hidden, 3, gen);
  t.opt = std::make_unique<train::Adam>(t.model->parameters(), kLr, 0.9f,
                                        0.999f, 1e-8f, 0.01f);
  t.opt->add_parameters(t.head->parameters());
  t.opt->add_parameters(codec_params);
  t.params = t.model->parameters();
  for (auto& p : t.head->parameters()) t.params.push_back(p);
  return t;
}

/// The step body, split into the layer calls the traced run attributes.
float train_step(Trainee& t, const data::TaskDataset& ds, int64_t step,
                 ts::Generator& gen) {
  ACTCOMP_PROFILE("bench.finetune.step");
  const int64_t nb = ds.size() / kBatch;
  data::LabeledBatch batch;
  {
    ACTCOMP_PROFILE("bench.data.batch");
    const int64_t b = (step % nb) * kBatch;
    batch = ds.batch(b, b + kBatch);
  }
  ag::Variable loss;
  {
    ACTCOMP_PROFILE("bench.nn.forward");
    ag::Variable seq = t.model->forward(batch.input, gen, /*training=*/true);
    loss = ag::softmax_cross_entropy(t.head->forward(seq), batch.class_labels);
  }
  const float value = loss.value().item();
  {
    ACTCOMP_PROFILE("bench.autograd.backward");
    loss.backward();
  }
  {
    ACTCOMP_PROFILE("bench.train.optimizer");
    t.opt->clip_grad_norm(kClipNorm);
    t.opt->step();
    t.opt->zero_grad();
  }
  return value;
}

bool same_bits(const Trainee& a, const Trainee& b) {
  if (a.params.size() != b.params.size()) return false;
  for (size_t i = 0; i < a.params.size(); ++i) {
    const auto x = a.params[i].value().data();
    const auto y = b.params[i].value().data();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint32_t bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

}  // namespace

Outcome run_finetune(const Options& opt) {
  Outcome out;
  out.work_name = "train_samples_per_s";
  out.work_per_op = static_cast<double>(kBatch);
  core::set_num_threads(2);
  const int64_t segment_steps = opt.tiny ? 2 : 16;
  const int64_t examples = opt.tiny ? 64 : 512;
  int64_t apply_calls = 0;

  // Set-up: the synthetic task, then one warm-up step per setting on a
  // freshly built model (first-touch allocations, pool start).
  std::unique_ptr<data::TaskDataset> ds;
  for (int r = 0; r < opt.setups; ++r) {
    ds.reset();  // release the previous set-up's state first
    const Clock::time_point t0 = Clock::now();
    ts::Generator dgen(mix_seed(opt.seed, 1));
    ds = std::make_unique<data::TaskDataset>(
        data::make_task_dataset(data::TaskId::kMnliM, examples, kSeq, dgen));
    for (size_t k = 0; k < std::size(kSettings); ++k) {
      Trainee t = build(kSettings[k], mix_seed(opt.seed, 10 + k), &apply_calls);
      ts::Generator fgen(mix_seed(opt.seed, 20 + k));
      (void)train_step(t, *ds, 0, fgen);
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  Recorder rec(opt, out);
  std::vector<float> final_loss(std::size(kSettings), 0.0f);
  double steps_traced = 0.0;
  int64_t jobs_traced = 0;
  int64_t calls_traced = 0;
  for (int64_t cycle = 0; cycle < 2 || (!opt.tiny && rec.time_left()); ++cycle) {
    for (size_t k = 0; k < std::size(kSettings); ++k) {
      const uint64_t model_seed = mix_seed(opt.seed, 10 + k);
      Trainee t = build(kSettings[k], model_seed, &apply_calls);
      if (opt.inject == "nan-param" && cycle == 0 && k == 0) {
        auto w = t.head->parameters().back().value().data();
        const_cast<float*>(w.data())[0] = std::nanf("");
      }
      ts::Generator fgen(mix_seed(opt.seed, 20 + k));
      float loss = 0.0f;
      for (int64_t step = 0; step < segment_steps; ++step) {
        const int64_t jobs0 = counter_value("core.pool.jobs");
        const int64_t calls0 = apply_calls;
        rec.op([&] { loss = train_step(t, *ds, step, fgen); });
        if (rec.last_traced()) {
          steps_traced += 1.0;
          jobs_traced += counter_value("core.pool.jobs") - jobs0;
          calls_traced += apply_calls - calls0;
        }
        if (!std::isfinite(loss)) {
          rec.fail("non-finite loss at setting " +
                   cp::setting_label(kSettings[k]) + " step " +
                   std::to_string(step));
        }
        if (step == 0) {
          Trainee ref = build(kSettings[k], model_seed, nullptr);
          ts::Generator rgen(mix_seed(opt.seed, 20 + k));
          const float ref_loss = train_step(ref, *ds, 0, rgen);
          if (bits(ref_loss) != bits(loss) || !same_bits(ref, t)) {
            rec.fail("wrapped path differs from CompressionBinder path at " +
                     cp::setting_label(kSettings[k]));
          }
        }
      }
      if (cycle > 0 && bits(loss) != bits(final_loss[k])) {
        rec.fail("final loss of " + cp::setting_label(kSettings[k]) +
                 " changed between cycles");
      }
      final_loss[k] = loss;
    }
    rec.end_cycle();
  }
  for (size_t k = 0; k < std::size(kSettings); ++k) {
    Digest d;
    d.pod(bits(final_loss[k]));
    char value[32];
    std::snprintf(value, sizeof(value), "%.9g", final_loss[k]);
    out.digests.emplace_back("final_loss." + cp::setting_label(kSettings[k]),
                             std::string(value) + " #" + d.hex());
  }

  if (opt.trace && steps_traced > 0.0) {
    const ZoneTable z;
    const double n = steps_traced;
    const double step_ms = z.total({"bench.finetune.step"});
    const double apply = z.total({"bench.compress.apply"});
    const double fwd = z.total({"bench.nn.forward"}) - apply;
    const double bwd = z.total({"bench.autograd.backward"});
    const double optim = z.total({"bench.train.optimizer"});
    const double data = z.total({"bench.data.batch"});
    out.layers["autograd.backward_ms"] = bwd / n;
    out.layers["nn.forward_ms"] = fwd / n;
    out.layers["compress.apply_ms"] = apply / n;
    out.layers["compress.apply_calls"] = static_cast<double>(calls_traced) / n;
    out.layers["train.optimizer_ms"] = optim / n;
    out.layers["data.batch_ms"] = data / n;
    out.layers["tensor.gemm_ms"] =
        z.total({"tensor.matmul2d", "tensor.matmul_batched"}) / n;
    out.layers["core.parallel_for_ms"] = z.total({"core.parallel_for"}) / n;
    out.layers["core.pool.jobs"] = static_cast<double>(jobs_traced) / n;
    out.traced_wall_ms = step_ms;
    out.attributed_ms = fwd + apply + bwd + optim + data;
    z.print_self_times("bench.finetune.step", step_ms);
  }
  return out;
}

}  // namespace actcomp::perfbench
