#include "sim/overhead.h"

#include <cmath>

#include "tensor/check.h"

namespace actcomp::sim {

namespace {

namespace cp = actcomp::compress;

// Calibration constants — see the header table for the Table 4 anchors.
constexpr double kTopkScanNsPerElem = 0.17;
constexpr double kTopkSelectNsPerKept = 0.15;
constexpr double kSparseFillNsPerElem = 0.015;
constexpr double kSparseScatterNsPerKept = 1.2;
constexpr double kRandkHostCoeff = 0.048;   // ns · k^1.7 scale
constexpr double kRandkHostExponent = 1.7;
constexpr double kRandkDeviceNsPerElem = 0.02;  // RNG mask generation
constexpr double kRandkDeviceNsPerKept = 0.3;   // compaction
constexpr double kQuantEncNsPerElem = 0.05;
constexpr double kQuantDecNsPerElem = 0.08;
constexpr double kAeEncMfu = 0.20;
constexpr double kAeDecMfu = 0.15;
// Fixed dispatch cost per encode/decode invocation (kernel launches plus
// framework-level bookkeeping). This floor is why no compressor pays off at
// tiny batch/sequence sizes (Takeaway 8 / Tables 12 & 14).
constexpr double kLaunchMs = 0.03;

double ns_to_ms(double ns) { return ns * 1e-6; }

}  // namespace

double OverheadModel::encode_ms(cp::Setting setting, int64_t numel,
                                int64_t hidden) const {
  ACTCOMP_CHECK(numel >= 0 && hidden > 0, "bad overhead query");
  if (setting == cp::Setting::kBaseline || numel == 0) return 0.0;
  if (cp::is_ae(setting)) {
    const int64_t c = cp::ae_code_size(setting, hidden);
    const double flops = 2.0 * static_cast<double>(numel) * static_cast<double>(c);
    GpuSpec g = gpu;
    g.mfu = kAeEncMfu;
    return kLaunchMs + g.compute_ms(flops);
  }
  if (cp::is_topk(setting)) {
    const int64_t k = cp::kept_elements(setting, numel);
    return kLaunchMs + ns_to_ms(kTopkScanNsPerElem * static_cast<double>(numel) +
                                kTopkSelectNsPerKept * static_cast<double>(k));
  }
  if (cp::is_randk(setting)) {
    const int64_t k = cp::kept_elements(setting, numel);
    if (device_side_randomk) {
      return kLaunchMs +
             ns_to_ms(kRandkDeviceNsPerElem * static_cast<double>(numel) +
                      kRandkDeviceNsPerKept * static_cast<double>(k));
    }
    return kLaunchMs + ns_to_ms(kRandkHostCoeff *
                                std::pow(static_cast<double>(k),
                                         kRandkHostExponent));
  }
  if (cp::is_quant(setting)) {
    return kLaunchMs + ns_to_ms(kQuantEncNsPerElem * static_cast<double>(numel));
  }
  ACTCOMP_ASSERT(false, "unhandled setting in encode_ms");
}

double OverheadModel::decode_ms(cp::Setting setting, int64_t numel,
                                int64_t hidden, int copies) const {
  ACTCOMP_CHECK(copies >= 1, "decode copies must be >= 1");
  if (setting == cp::Setting::kBaseline || numel == 0) return 0.0;
  if (cp::is_ae(setting)) {
    // AE rides all-reduce: exactly one decode GEMM regardless of TP degree.
    const int64_t c = cp::ae_code_size(setting, hidden);
    const double flops = 2.0 * static_cast<double>(numel) * static_cast<double>(c);
    GpuSpec g = gpu;
    g.mfu = kAeDecMfu;
    return kLaunchMs + g.compute_ms(flops);
  }
  if (cp::is_topk(setting) || cp::is_randk(setting)) {
    const int64_t k = cp::kept_elements(setting, numel) * copies;
    return kLaunchMs +
           ns_to_ms(kSparseFillNsPerElem * static_cast<double>(numel) +
                    kSparseScatterNsPerKept * static_cast<double>(k));
  }
  if (cp::is_quant(setting)) {
    return kLaunchMs + ns_to_ms(kQuantDecNsPerElem * static_cast<double>(numel) *
                                static_cast<double>(copies));
  }
  ACTCOMP_ASSERT(false, "unhandled setting in decode_ms");
}

double OverheadModel::backward_extra_ms(cp::Setting setting, int64_t numel,
                                        int64_t hidden) const {
  if (setting == cp::Setting::kBaseline || numel == 0) return 0.0;
  if (cp::is_ae(setting)) {
    // Four gradient GEMMs (dX and dW for encoder and decoder), each the size
    // of the forward codec GEMM. Anchor: A1 adds ≈ 8.5 ms of backward time
    // in Table 4.
    const int64_t c = cp::ae_code_size(setting, hidden);
    const double flops = 8.0 * static_cast<double>(numel) * static_cast<double>(c);
    GpuSpec g = gpu;
    g.mfu = kAeDecMfu;
    return g.compute_ms(flops);
  }
  // Straight-through / masked backward: one elementwise pass.
  return ns_to_ms(0.01 * static_cast<double>(numel));
}

}  // namespace actcomp::sim
