// The paper's Table 1: the named compression settings every experiment sweeps.
//
//   A1/A2   autoencoder, encoder output dim 50 / 100 (at h = 1024)
//   T1/T2   Top-K with the same *communication cost* as A1 / A2
//   T3/T4   Top-K with the same *compression ratio* as A1 / A2
//   R1..R4  Random-K, same four calibrations
//   Q1/Q2/Q3  quantization to 2 / 4 / 8 bits
//
// All calibrations are expressed as ratios of the hidden size so the same
// setting applies to the paper's h=1024 model (simulator plane) and to the
// small h models of the training plane:
//   AE code size          c = round(h · e_ref / 1024)
//   same-ratio fraction   f = e_ref / 1024                  (T3/T4, R3/R4)
//   same-comm fraction    f = e_ref / (3 · 1024)            (T1/T2, R1/R2)
// The factor 3 is the Top-K wire overhead: each kept element costs
// 2 B (fp16 value) + 4 B (int32 index) = 6 B vs the AE's 2 B.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "tensor/random.h"

namespace actcomp::compress {

enum class Setting {
  kBaseline,  // "w/o"
  kA1,
  kA2,
  kT1,
  kT2,
  kT3,
  kT4,
  kR1,
  kR2,
  kR3,
  kR4,
  kQ1,
  kQ2,
  kQ3,
};

/// Paper notation: "w/o", "A1", … , "Q3".
std::string setting_label(Setting s);
/// Inverse of setting_label; empty optional for unknown labels.
std::optional<Setting> parse_setting(const std::string& label);

/// All settings in the paper's table order (Baseline first).
const std::vector<Setting>& all_settings();
/// The subset that appears in the main throughput tables (no Q3).
const std::vector<Setting>& main_settings();

/// Reference encoder dims at h = 1024 (the calibration anchor).
inline constexpr int64_t kRefHidden = 1024;
inline constexpr int64_t kRefCodeA1 = 50;
inline constexpr int64_t kRefCodeA2 = 100;
/// Bytes per kept Top-K/Random-K element (fp16 value + int32 index).
inline constexpr int64_t kSparseBytesPerElement = 6;

/// Setting families: autoencoder, Top-K, Random-K, quantization.
inline bool is_ae(Setting s) { return s == Setting::kA1 || s == Setting::kA2; }
inline bool is_topk(Setting s) {
  return s == Setting::kT1 || s == Setting::kT2 || s == Setting::kT3 ||
         s == Setting::kT4;
}
inline bool is_randk(Setting s) {
  return s == Setting::kR1 || s == Setting::kR2 || s == Setting::kR3 ||
         s == Setting::kR4;
}
inline bool is_quant(Setting s) {
  return s == Setting::kQ1 || s == Setting::kQ2 || s == Setting::kQ3;
}

/// Kept-element fraction for sparsification settings; throws for others.
double sparse_fraction(Setting s);
/// AE code size at the given hidden size; throws for non-AE settings.
int64_t ae_code_size(Setting s, int64_t hidden);
/// Quantization bit width; throws for non-quant settings.
int quant_bits(Setting s);

/// Elements a Top-K/Random-K setting keeps of a `numel`-element message:
/// round(f · numel), at least one. Throws for non-sparse settings.
int64_t kept_elements(Setting s, int64_t numel);

/// Body bytes of one `numel`-element activation message with feature size
/// `hidden` under `s`: the closed form of
/// make_compressor(s, hidden)->wire_size(shape).total_bytes(), which the
/// model-parallel simulator prices without building a compressor. The
/// AE and quantization terms count rows as numel / hidden.
int64_t wire_bytes(Setting s, int64_t numel, int64_t hidden);

/// Instantiate the compressor for `setting` on activations of feature size
/// `hidden`. `gen` seeds AE weights and Random-K sampling.
CompressorPtr make_compressor(Setting setting, int64_t hidden,
                              tensor::Generator& gen);

}  // namespace actcomp::compress
