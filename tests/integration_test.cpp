// Cross-module integration tests: the two execution planes must agree on
// what each compressor transmits, checkpoints must flow between training
// stages, and the simulator's wire accounting must match the real encoders.
#include <gtest/gtest.h>

#include <sstream>

#include "compress/settings.h"
#include "compress/topk.h"
#include "core/binder.h"
#include "data/dataset.h"
#include "data/pretrain.h"
#include "data/vocab.h"
#include "nn/bert.h"
#include "parallel/mp_simulator.h"
#include "sim/overhead.h"
#include "tensor/io.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace ts = actcomp::tensor;
namespace nn = actcomp::nn;
namespace cp = actcomp::compress;
namespace core = actcomp::core;
namespace tr = actcomp::train;
namespace dt = actcomp::data;
namespace pl = actcomp::parallel;
namespace sm = actcomp::sim;

namespace {
nn::BertConfig micro_config() {
  nn::BertConfig cfg;
  cfg.vocab_size = dt::Vocab::kSize;
  cfg.hidden = 32;
  cfg.num_layers = 4;
  cfg.num_heads = 2;
  cfg.intermediate = 64;
  cfg.max_seq = 16;
  cfg.dropout = 0.0f;
  return cfg;
}
}  // namespace

// The simulator's closed-form wire size (compress::wire_bytes, which every
// model-parallel pricing path calls) must match the byte counts the real
// encoders produce, for every setting, at a small and at the paper's hidden
// size. This is the contract that makes simulated throughput and real
// accuracy experiments describe the same system.
class WireAgreement : public ::testing::TestWithParam<cp::Setting> {};

TEST_P(WireAgreement, SimulatorMatchesRealEncoder) {
  const cp::Setting s = GetParam();
  for (const int64_t h : {int64_t{64}, cp::kRefHidden}) {
    ts::Generator gen(3);
    auto compressor = cp::make_compressor(s, h, gen);
    for (const int64_t b : {1, 4, 8}) {
      const ts::Shape shape{b, 8, h};  // b x s x h
      const ts::Tensor x = gen.normal(shape, 0.0f, 2.0f);
      const int64_t real_bytes = compressor->encode(x).body_bytes();
      const int64_t simulated = cp::wire_bytes(s, shape.numel(), h);
      EXPECT_EQ(compressor->wire_size(shape).total_bytes(), real_bytes)
          << cp::setting_label(s) << " h=" << h << " b=" << b;
      EXPECT_EQ(simulated, real_bytes)
          << cp::setting_label(s) << " h=" << h << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSettings, WireAgreement,
                         ::testing::ValuesIn(cp::all_settings()),
                         [](const auto& info) {
                           std::string l = cp::setting_label(info.param);
                           return l == "w/o" ? std::string("baseline") : l;
                         });

TEST(Integration, FullPipelinePretrainCheckpointFinetune) {
  // pretrain (compressed) -> checkpoint via stream -> finetune (compressed,
  // fresh codecs) -> evaluate. Exercises data, nn, compress, core, train,
  // tensor::io together.
  ts::Generator gen(11);
  const nn::BertConfig cfg = micro_config();
  std::stringstream ckpt_stream;
  {
    nn::BertModel model(cfg, gen);
    nn::MlmHead head(cfg.hidden, dt::Vocab::kSize, gen);
    core::CompressionBinder binder(
        model, core::CompressionPlan::paper_default(cp::Setting::kA2, 4), 2, gen);
    dt::PretrainCorpus corpus(8, 128, gen);
    tr::PretrainConfig pc;
    pc.batch_size = 8;
    pc.steps = 10;
    pc.seq = 16;
    ASSERT_NO_THROW(tr::pretrain_mlm(model, head, corpus, pc, &binder));
    ts::write_tensor_map(ckpt_stream, model.state_dict());
  }
  {
    ts::Generator gen2(22);
    nn::BertModel model(cfg, gen2);
    ASSERT_GT(model.load_state_dict(ts::read_tensor_map(ckpt_stream)), 0);
    core::CompressionBinder binder(
        model, core::CompressionPlan::paper_default(cp::Setting::kQ2, 4), 2, gen2);
    dt::TaskDataset train = dt::make_task_dataset(dt::TaskId::kSst2, 64, 16, gen2);
    dt::TaskDataset dev = dt::make_task_dataset(dt::TaskId::kSst2, 32, 16, gen2);
    tr::FinetuneConfig fc;
    fc.batch_size = 16;
    fc.epochs = 1;
    const auto res = tr::finetune(model, train, dev, fc, &binder);
    EXPECT_GE(res.dev_metric, 0.0);
    EXPECT_LE(res.dev_metric, 100.0);
  }
}

TEST(Integration, SimulatorSweepIsFiniteAndOrdered) {
  // Every (cluster, parallel, setting) combination must produce a finite,
  // positive iteration time, and compression must never change the baseline
  // row (plan = none).
  for (bool nvlink : {true, false}) {
    const auto cluster =
        nvlink ? sm::ClusterSpec::aws_p3(1) : sm::ClusterSpec::local_pcie();
    for (const auto par : {pl::ParallelConfig{1, 4}, pl::ParallelConfig{2, 2},
                           pl::ParallelConfig{4, 1}}) {
      pl::ModelParallelSimulator sim(cluster, nn::BertConfig::bert_large(), par,
                                     {32, 1, 512});
      const double base = sim.run_baseline().total_ms();
      EXPECT_GT(base, 0.0);
      for (cp::Setting s : cp::main_settings()) {
        const auto plan = core::CompressionPlan::paper_default(s, 24);
        const double t = sim.run(plan).total_ms();
        EXPECT_TRUE(std::isfinite(t)) << cp::setting_label(s);
        EXPECT_GT(t, 0.0) << cp::setting_label(s);
      }
      // Running a none-plan must equal the baseline exactly.
      EXPECT_DOUBLE_EQ(sim.run(core::CompressionPlan::none()).total_ms(), base);
    }
  }
}

TEST(Integration, CompressingMoreLayersCostsMoreOverhead) {
  // Monotonicity across the plan axis for an overhead-dominated setting.
  pl::ModelParallelSimulator sim(sm::ClusterSpec::aws_p3(1),
                                 nn::BertConfig::bert_large(), {2, 2},
                                 {32, 1, 512});
  double prev = sim.run_baseline().total_ms();
  for (int64_t n : {4, 8, 12, 16, 20, 24}) {
    const double t =
        sim.run(core::CompressionPlan::last_n(cp::Setting::kT3, 24, n)).total_ms();
    EXPECT_GT(t, prev) << n;
    prev = t;
  }
}

TEST(Integration, TrainingPlaneAndSimPlaneShareTheSameSparsity) {
  // The kept-element count the simulator budgets for must equal what the
  // real Top-K compressor keeps.
  const int64_t numel = 4 * 8 * 64;
  for (cp::Setting s : {cp::Setting::kT1, cp::Setting::kT2, cp::Setting::kT3,
                        cp::Setting::kT4}) {
    cp::TopKCompressor real(cp::sparse_fraction(s));
    EXPECT_EQ(cp::kept_elements(s, numel), real.k_for(numel))
        << cp::setting_label(s);
  }
}

TEST(Integration, ErrorFeedbackTrainsEndToEnd) {
  ts::Generator gen(9);
  nn::BertModel model(micro_config(), gen);
  core::CompressionBinder binder(
      model, core::CompressionPlan::paper_default(cp::Setting::kT3, 4), 2, gen,
      /*error_feedback=*/true);
  dt::TaskDataset train = dt::make_task_dataset(dt::TaskId::kSst2, 64, 16, gen);
  dt::TaskDataset dev = dt::make_task_dataset(dt::TaskId::kSst2, 32, 16, gen);
  tr::FinetuneConfig fc;
  fc.batch_size = 16;
  fc.epochs = 1;
  EXPECT_NO_THROW(tr::finetune(model, train, dev, fc, &binder));
}
