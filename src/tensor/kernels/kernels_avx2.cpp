// AVX2 kernel tier. Compiled with -mavx2 -mf16c -O3 -ffp-contract=off;
// selected at runtime only when cpuid reports both features (core/simd.cpp),
// so the EVEX-free 256-bit code here never executes on a narrower host.
#include "tensor/kernels/tiers.h"

#if defined(__AVX2__) && defined(__F16C__)

#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/vector_kernels.h"

namespace actcomp::tensor::kernels {

const KernelTable* avx2_kernels() {
  static const KernelTable table = [] {
    KernelTable t = make_table<avx2i::Avx2Policy>("avx2");
    // rows_moments stays the generic double-precision loop: 256-bit lanes
    // buy nothing over its autovectorized form (the AVX-512 tier has a
    // lane-per-row variant).
    t.quant_quantize_row = avx2i::quant_quantize_row;
    t.quant_dequantize_row = avx2i::quant_dequantize_row;
    return t;
  }();
  return &table;
}

}  // namespace actcomp::tensor::kernels

#else  // toolchain/target cannot build this tier

namespace actcomp::tensor::kernels {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace actcomp::tensor::kernels

#endif
