#include "compress/settings.h"

#include <algorithm>
#include <cmath>

#include "compress/autoencoder.h"
#include "compress/identity.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "tensor/check.h"

namespace actcomp::compress {

std::string setting_label(Setting s) {
  switch (s) {
    case Setting::kBaseline: return "w/o";
    case Setting::kA1: return "A1";
    case Setting::kA2: return "A2";
    case Setting::kT1: return "T1";
    case Setting::kT2: return "T2";
    case Setting::kT3: return "T3";
    case Setting::kT4: return "T4";
    case Setting::kR1: return "R1";
    case Setting::kR2: return "R2";
    case Setting::kR3: return "R3";
    case Setting::kR4: return "R4";
    case Setting::kQ1: return "Q1";
    case Setting::kQ2: return "Q2";
    case Setting::kQ3: return "Q3";
  }
  ACTCOMP_ASSERT(false, "unreachable setting enum");
}

std::optional<Setting> parse_setting(const std::string& label) {
  for (Setting s : all_settings()) {
    if (setting_label(s) == label) return s;
  }
  return std::nullopt;
}

const std::vector<Setting>& all_settings() {
  static const std::vector<Setting> kAll = {
      Setting::kBaseline, Setting::kA1, Setting::kA2, Setting::kT1,
      Setting::kT2,       Setting::kT3, Setting::kT4, Setting::kR1,
      Setting::kR2,       Setting::kR3, Setting::kR4, Setting::kQ1,
      Setting::kQ2,       Setting::kQ3};
  return kAll;
}

const std::vector<Setting>& main_settings() {
  static const std::vector<Setting> kMain = {
      Setting::kBaseline, Setting::kA1, Setting::kA2, Setting::kT1,
      Setting::kT2,       Setting::kT3, Setting::kT4, Setting::kR1,
      Setting::kR2,       Setting::kR3, Setting::kR4, Setting::kQ1,
      Setting::kQ2};
  return kMain;
}

namespace {
int64_t ref_code(Setting s) {
  switch (s) {
    case Setting::kA1:
    case Setting::kT1:
    case Setting::kT3:
    case Setting::kR1:
    case Setting::kR3:
      return kRefCodeA1;
    case Setting::kA2:
    case Setting::kT2:
    case Setting::kT4:
    case Setting::kR2:
    case Setting::kR4:
      return kRefCodeA2;
    default:
      ACTCOMP_CHECK(false, "setting " << setting_label(s)
                                      << " has no AE reference dim");
  }
}

bool is_same_comm(Setting s) {
  return s == Setting::kT1 || s == Setting::kT2 || s == Setting::kR1 ||
         s == Setting::kR2;
}
}  // namespace

double sparse_fraction(Setting s) {
  switch (s) {
    case Setting::kT1:
    case Setting::kT2:
    case Setting::kR1:
    case Setting::kR2:
    case Setting::kT3:
    case Setting::kT4:
    case Setting::kR3:
    case Setting::kR4: {
      const double ratio =
          static_cast<double>(ref_code(s)) / static_cast<double>(kRefHidden);
      return is_same_comm(s)
                 ? ratio * 2.0 / static_cast<double>(kSparseBytesPerElement)
                 : ratio;
    }
    default:
      ACTCOMP_CHECK(false, "setting " << setting_label(s)
                                      << " is not a sparsification setting");
  }
}

int64_t ae_code_size(Setting s, int64_t hidden) {
  ACTCOMP_CHECK(s == Setting::kA1 || s == Setting::kA2,
                "setting " << setting_label(s) << " is not an AE setting");
  ACTCOMP_CHECK(hidden >= 2, "hidden size too small for AE: " << hidden);
  const double scaled = static_cast<double>(ref_code(s)) *
                        static_cast<double>(hidden) /
                        static_cast<double>(kRefHidden);
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(scaled)), 1,
                             hidden - 1);
}

int quant_bits(Setting s) {
  switch (s) {
    case Setting::kQ1: return 2;
    case Setting::kQ2: return 4;
    case Setting::kQ3: return 8;
    default:
      ACTCOMP_CHECK(false, "setting " << setting_label(s)
                                      << " is not a quantization setting");
  }
}

int64_t kept_elements(Setting s, int64_t numel) {
  const double f = sparse_fraction(s);
  const auto k = static_cast<int64_t>(std::llround(f * static_cast<double>(numel)));
  return std::max<int64_t>(1, k);
}

int64_t wire_bytes(Setting s, int64_t numel, int64_t hidden) {
  if (is_ae(s)) return numel / hidden * ae_code_size(s, hidden) * 2;
  if (is_topk(s) || is_randk(s)) {
    return kept_elements(s, numel) * kSparseBytesPerElement;
  }
  if (is_quant(s)) return (numel * quant_bits(s) + 7) / 8 + numel / hidden * 4;
  return numel * 2;  // w/o: fp16
}

CompressorPtr make_compressor(Setting setting, int64_t hidden,
                              tensor::Generator& gen) {
  switch (setting) {
    case Setting::kBaseline:
      return std::make_unique<IdentityCompressor>();
    case Setting::kA1:
    case Setting::kA2:
      return std::make_unique<AutoencoderCompressor>(
          hidden, ae_code_size(setting, hidden), gen);
    case Setting::kT1:
    case Setting::kT2:
    case Setting::kT3:
    case Setting::kT4:
      return std::make_unique<TopKCompressor>(sparse_fraction(setting));
    case Setting::kR1:
    case Setting::kR2:
    case Setting::kR3:
    case Setting::kR4:
      return std::make_unique<RandomKCompressor>(
          sparse_fraction(setting), static_cast<uint64_t>(gen.randint(1, 1u << 30)));
    case Setting::kQ1:
    case Setting::kQ2:
    case Setting::kQ3:
      return std::make_unique<QuantizeCompressor>(quant_bits(setting));
  }
  ACTCOMP_ASSERT(false, "unreachable setting enum");
}

}  // namespace actcomp::compress
