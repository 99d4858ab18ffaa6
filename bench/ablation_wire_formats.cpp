// Ablation (DESIGN.md §5.1, §16): what does the wire format itself cost?
//
// Panel 1 — how much of Top-K's communication cost is the index encoding?
// The paper's implementation sends (fp16 value, int32 index) pairs — 6 bytes
// per kept element, which is why the "same compression ratio" settings T3/T4
// transmit 3x more than the AE they are calibrated against. We sweep
// alternative index encodings at the simulator level and report the Table 2
// TP=4/PP=1 cell under each.
//
//   int32 index (paper) : 6 B per kept element
//   int16 block-local   : 4 B  (indices relative to 64Ki-element blocks)
//   bitmap              : numel/8 B + 2 B per kept element
//
// Panel 2 — the column the source paper doesn't have (ZipCCL, PAPERS.md):
// lossless wire coding, alone and stacked over the lossy formats. The
// compression ratios are MEASURED by running the real compress/lossless.h
// codec (rle+huffman) over a seeded proxy activation — deterministic, so the
// table is golden-pinned byte for byte. The codec throughputs fed to the
// cost model are fixed reference constants for a GPU-class codec (ZipCCL
// reports order-100 GB/s on-accelerator); this box's measured scalar-CPU
// GB/s lives in BENCH_kernels.json and is gated separately — pinning the
// link model to constants keeps the golden machine-independent.
//
// Panel 3 — chunk-pipelined collectives: the same lossless config swept over
// the container chunk count. chunks=1 serializes encode → transfer → decode
// (exactly their sum, by the engine's left-to-right realization); chunks>1
// overlaps the three stages on the link, shrinking TP comm monotonically
// toward the bottleneck stage.
#include <cstdio>

#include "bench/simbench.h"
#include "compress/lossless.h"
#include "compress/quantize.h"
#include "compress/settings.h"
#include "compress/wire.h"
#include "sim/collectives.h"
#include "tensor/random.h"

namespace {

using namespace actcomp;

/// Reference GPU-class codec throughputs for the link cost model (see file
/// header). Fixed constants, NOT this box's measurement.
constexpr double kEncodeGbS = 50.0;
constexpr double kDecodeGbS = 100.0;
/// Container chunks for the breakdown panel (the chunk sweep varies it).
constexpr int kChunks = 8;

/// Iteration time with Top-K's per-element metadata cost overridden. We
/// model alternative formats by scaling the all-gather bytes; encode/decode
/// costs are unchanged (format packing is bandwidth-trivial next to the
/// top-k scan itself).
double t3_cell_with_bytes_per_kept(double bytes_per_kept, int64_t extra_fixed) {
  const auto cluster = sim::ClusterSpec::local_pcie();
  parallel::ModelParallelSimulator simulator(
      cluster, nn::BertConfig::bert_large(), {4, 1}, {32, 1, 512});
  // Reconstruct the T3 total by hand: run baseline and A-style deltas via
  // the public simulator, then adjust the comm term analytically.
  const auto plan = core::CompressionPlan::paper_default(compress::Setting::kT3, 24);
  const auto r = simulator.run(plan);
  // Wire bytes actually used by the simulator (6 B per kept element):
  const int64_t numel = 32LL * 512 * 1024;
  const int64_t k = compress::kept_elements(compress::Setting::kT3, numel);
  const double old_bytes = 6.0 * static_cast<double>(k);
  const double new_bytes =
      bytes_per_kept * static_cast<double>(k) + static_cast<double>(extra_fixed);
  // 24 compressed all-gathers per iteration over the PCIe link at TP=4.
  const double per_gather_delta =
      sim::allgather_ms(static_cast<int64_t>(new_bytes), 4, cluster.intra_node) -
      sim::allgather_ms(static_cast<int64_t>(old_bytes), 4, cluster.intra_node);
  return r.total_ms() + 24.0 * per_gather_delta;
}

/// One measured wire ratio: encoded bytes / inner wire bytes, from real
/// codec runs on a seeded proxy activation (256 x hidden, unit normal — the
/// distribution the TP links carry). Deterministic by construction.
struct MeasuredRatio {
  std::string label;
  int64_t inner_bytes = 0;
  int64_t coded_bytes = 0;
  double ratio() const {
    return static_cast<double>(coded_bytes) / static_cast<double>(inner_bytes);
  }
};

MeasuredRatio measure_fp16_ratio(const tensor::Tensor& x) {
  std::vector<std::byte> raw;
  compress::wire::append_fp16(raw, x);
  const compress::LosslessCodec codec{compress::LosslessAlgo::kRleHuffman,
                                      compress::PlaneSplit::kStride2, 0};
  const auto enc = codec.encode(raw);
  return {"w/o + lossless", static_cast<int64_t>(raw.size()),
          static_cast<int64_t>(enc.size())};
}

MeasuredRatio measure_stacked_ratio(const std::string& label,
                                    compress::CompressorPtr inner,
                                    compress::SegmentLayoutFn layout,
                                    const tensor::Tensor& x) {
  const auto inner_msg = inner->encode(x);
  compress::StackedCompressor stacked(
      std::move(inner),
      compress::LosslessCodec{compress::LosslessAlgo::kRleHuffman,
                              compress::PlaneSplit::kStride2, 0},
      std::move(layout));
  const auto stacked_msg = stacked.encode(x);
  return {label, inner_msg.body_bytes(), stacked_msg.body_bytes()};
}

}  // namespace

int main() {
  using namespace actcomp;
  obs::RunReport report("ablation_wire_formats");
  std::printf(
      "Ablation — Top-K wire formats (T3, fine-tune, PCIe, TP=4/PP=1)\n\n");
  const int64_t numel = 32LL * 512 * 1024;
  std::vector<std::string> header{"Format", "bytes/kept", "iter ms"};
  std::vector<std::vector<std::string>> body;
  body.push_back({"fp16 + int32 (paper)", "6",
                  bench::fmt(t3_cell_with_bytes_per_kept(6.0, 0))});
  body.push_back({"fp16 + int16 block-local", "4",
                  bench::fmt(t3_cell_with_bytes_per_kept(4.0, 0))});
  body.push_back({"fp16 + bitmap", "2 + n/8k",
                  bench::fmt(t3_cell_with_bytes_per_kept(2.0, numel / 8))});
  const auto cluster = sim::ClusterSpec::local_pcie();
  parallel::ModelParallelSimulator simulator(
      cluster, nn::BertConfig::bert_large(), {4, 1}, {32, 1, 512});
  body.push_back({"w/o (baseline)", "-",
                  bench::fmt(simulator.run_baseline().total_ms())});
  body.push_back(
      {"A1 (reference)", "-",
       bench::fmt(simulator
                      .run(core::CompressionPlan::paper_default(
                          compress::Setting::kA1, 24))
                      .total_ms())});
  bench::print_table(header, body, 26);
  std::printf(
      "\nTakeaway: tighter index encodings shave the sparse formats' comm\n"
      "cost but cannot fix Top-K's encoding overhead, and none matches AE —\n"
      "the format is a second-order effect next to the algorithm choice.\n");

  // -------------------------------------------------------------------------
  // Panel 2: lossless / lossy / stacked (WIRE_FORMATS.md §4-§5).
  // -------------------------------------------------------------------------
  const nn::BertConfig model = nn::BertConfig::bert_large();
  const int64_t h = model.hidden;
  tensor::Generator gen(17);
  const tensor::Tensor proxy = gen.normal(tensor::Shape{256, h});

  const MeasuredRatio r_fp16 = measure_fp16_ratio(proxy);
  tensor::Generator cgen(17);
  const MeasuredRatio r_q2 = measure_stacked_ratio(
      "Q2 + lossless",
      compress::make_compressor(compress::Setting::kQ2, h, cgen),
      compress::segments_quantize(), proxy);
  const MeasuredRatio r_t3 = measure_stacked_ratio(
      "T3 + lossless",
      compress::make_compressor(compress::Setting::kT3, h, cgen),
      compress::segments_topk(), proxy);

  std::printf(
      "\n\nMeasured rle+huffman wire ratios (256x%lld unit-normal proxy)\n\n",
      static_cast<long long>(h));
  bench::print_table(
      {"Stack", "inner B", "coded B", "ratio"},
      {{r_fp16.label, std::to_string(r_fp16.inner_bytes),
        std::to_string(r_fp16.coded_bytes), bench::fmt(r_fp16.ratio())},
       {r_q2.label, std::to_string(r_q2.inner_bytes),
        std::to_string(r_q2.coded_bytes), bench::fmt(r_q2.ratio())},
       {r_t3.label, std::to_string(r_t3.inner_bytes),
        std::to_string(r_t3.coded_bytes), bench::fmt(r_t3.ratio())}},
      18);

  const parallel::ParallelConfig par{2, 2};
  const parallel::TrainJob job{32, 1, 512};
  auto run_cell = [&](compress::Setting setting, double ratio, int chunks) {
    parallel::SimOptions opt;
    if (ratio > 0.0) {
      opt.lossless_wire.enabled = true;
      opt.lossless_wire.ratio = ratio;
      opt.lossless_wire.encode_gb_s = kEncodeGbS;
      opt.lossless_wire.decode_gb_s = kDecodeGbS;
      opt.lossless_wire.chunks = chunks;
    }
    parallel::ModelParallelSimulator s(cluster, model, par, job, opt);
    return s.run(setting == compress::Setting::kBaseline
                     ? core::CompressionPlan::none()
                     : core::CompressionPlan::paper_default(
                           setting, model.num_layers));
  };

  std::printf(
      "\n\nLossless / lossy / stacked breakdown (Table 4 accounting, PCIe, "
      "TP=2/PP=2,\ncodec %g/%g GB/s enc/dec, %d chunks)\n\n",
      kEncodeGbS, kDecodeGbS, kChunks);
  std::vector<std::vector<std::string>> rows;
  rows.push_back(bench::breakdown_row(
      "w/o", run_cell(compress::Setting::kBaseline, -1.0, 1),
      obs::Accounting::kFinetune));
  rows.push_back(bench::breakdown_row(
      "w/o + lossless",
      run_cell(compress::Setting::kBaseline, r_fp16.ratio(), kChunks),
      obs::Accounting::kFinetune));
  rows.push_back(bench::breakdown_row(
      "Q2", run_cell(compress::Setting::kQ2, -1.0, 1),
      obs::Accounting::kFinetune));
  rows.push_back(bench::breakdown_row(
      "Q2 + lossless", run_cell(compress::Setting::kQ2, r_q2.ratio(), kChunks),
      obs::Accounting::kFinetune));
  rows.push_back(bench::breakdown_row(
      "T3", run_cell(compress::Setting::kT3, -1.0, 1),
      obs::Accounting::kFinetune));
  rows.push_back(bench::breakdown_row(
      "T3 + lossless", run_cell(compress::Setting::kT3, r_t3.ratio(), kChunks),
      obs::Accounting::kFinetune));
  bench::print_table({"Setting", "Fwd", "Bwd", "Optim", "Wait", "Total", "Enc",
                      "Dec", "TP comm"},
                     rows, 15);

  // -------------------------------------------------------------------------
  // Panel 3: chunk-pipelining sweep (w/o + lossless config).
  // -------------------------------------------------------------------------
  std::printf(
      "\nChunk-pipelined collectives (w/o + lossless): chunks=1 is the\n"
      "serialized encode + transfer + decode sum; more chunks overlap the\n"
      "stages on the link.\n\n");
  std::vector<std::vector<std::string>> crows;
  for (int chunks : {1, 2, 4, 8, 16, 32}) {
    const auto r =
        run_cell(compress::Setting::kBaseline, r_fp16.ratio(), chunks);
    crows.push_back({std::to_string(chunks), bench::fmt(r.tensor_comm_ms),
                     bench::fmt(r.lossless_enc_ms),
                     bench::fmt(r.lossless_dec_ms),
                     bench::fmt(r.total_ms())});
  }
  bench::print_table({"Chunks", "TP comm ms", "ll enc ms", "ll dec ms",
                      "Total ms"},
                     crows, 12);
  std::printf(
      "\nTakeaway: lossless coding is a strict win once the codec outruns the\n"
      "link — ~15%% off every fp16 payload with zero accuracy risk — and\n"
      "stacking it over the lossy formats compresses their metadata planes\n"
      "(Top-K indices, quantize row params) the lossy pass leaves behind.\n"
      "Chunking hides most of the codec time behind the transfer itself.\n");
  return 0;
}
