// Lossless wire compression (DESIGN.md §16, WIRE_FORMATS.md §4-§5).
//
// ZipCCL (PAPERS.md) shows that *lossless* codecs on collective payloads
// accelerate LLM training with zero accuracy risk — a column the source
// paper's Table 4/7 sweeps (all lossy) do not have. This module adds that
// stage: a byte-oriented container codec that splits fixed-stride payloads
// (fp16/fp32/int32 streams) into byte planes and runs a real run-length
// coder (PackBits) and/or a canonical order-0 Huffman coder over each plane.
//
// Three surfaces:
//   * LosslessCodec      — bytes in, LosslessContainer bytes out. Exact
//     round-trip for ANY input (NaN payloads, ±0, empty); per-plane raw
//     fallback guarantees the container never expands beyond
//     max_encoded_bytes(). Optional chunking emits an up-front chunk table
//     so a receiver can decode chunk i as soon as it lands — the wire-level
//     hook for the chunk-pipelined collectives in sim/collectives.h.
//   * LosslessCompressor — the codec as a standalone Compressor: the fp16
//     baseline wire stream (identical precision loss to "w/o") inside a
//     container. The paper-table benches use it for the "lossless" column.
//   * StackedCompressor  — lossless-over-lossy: codes an inner compressor's
//     serialized body, segment by segment (e.g. Top-K's int32 index plane
//     and fp16 value plane get different plane splits). Decoding the
//     lossless layer recovers the inner wire bytes exactly, so accuracy
//     behaviour (round_trip/apply) is the inner algorithm's, byte for byte.
//
// The byte-level container layout is normative in WIRE_FORMATS.md; the
// codec/plane-split registries below are cross-checked against that spec by
// tools/check_docs.py (./ci.sh docs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace actcomp::compress {

/// Entropy stage applied to each byte plane. kRaw stores the plane verbatim;
/// the others may still fall back to raw per plane when coding would expand
/// (WIRE_FORMATS.md §4.3).
enum class LosslessAlgo : uint8_t {
  kRaw = 0,
  kRle = 1,         ///< PackBits run-length coding
  kHuffman = 2,     ///< canonical order-0 Huffman over bytes
  kRleHuffman = 3,  ///< Huffman over the PackBits stream
};

/// How the payload is split into byte planes before coding. kStride2 models
/// fp16 streams (plane 1 = sign/exponent bytes, highly compressible);
/// kStride4 models fp32 or int32 streams (e.g. Top-K's index plane, whose
/// high bytes are near-constant).
enum class PlaneSplit : uint8_t {
  kNone = 0,     ///< one plane, the payload verbatim
  kStride2 = 1,  ///< 2 planes: bytes at offsets ≡ 0, 1 (mod 2)
  kStride4 = 2,  ///< 4 planes: bytes at offsets ≡ 0..3 (mod 4)
};

/// Spec ids ("raw", "rle", "huffman", "rle+huffman") — the names the
/// wire-format spec's format index must list (tools/check_docs.py).
std::string lossless_algo_label(LosslessAlgo algo);
/// Spec ids ("none", "bp2", "bp4").
std::string plane_split_label(PlaneSplit split);
/// Plane count for a split (1, 2 or 4).
int plane_count(PlaneSplit split);

/// A configured lossless coder. Encode/decode are exact inverses for every
/// byte string; decode throws std::invalid_argument on truncated or
/// malformed containers (the container's sizes are fully determined by its
/// header, so any proper prefix — and any trailing garbage — is rejected).
/// Both code the container's (chunk, plane) units in one parallel pass on
/// the global pool; bytes and errors are those of coding the units in wire
/// order, at any pool width (DESIGN.md §16).
struct LosslessCodec {
  LosslessAlgo algo = LosslessAlgo::kRleHuffman;
  PlaneSplit split = PlaneSplit::kStride2;
  /// Raw bytes per chunk; 0 = one chunk for the whole payload. Chunks are
  /// independently decodable (their encoded sizes are in the header's chunk
  /// table), which is what the chunk-pipelined transfer model overlaps.
  int64_t chunk_bytes = 0;

  /// Spec id, e.g. "rle+huffman/bp2".
  std::string name() const;

  std::vector<std::byte> encode(const std::byte* data, int64_t n) const;
  std::vector<std::byte> encode(const std::vector<std::byte>& data) const;
  std::vector<std::byte> decode(const std::vector<std::byte>& buf) const;
  /// Decodes the container in buf[0, n), e.g. one segment of a larger
  /// message, without copying it out first.
  std::vector<std::byte> decode(const std::byte* buf, int64_t n) const;

  /// Chunks encode() will emit for a payload of `raw_bytes`.
  int num_chunks(int64_t raw_bytes) const;
  /// Hard upper bound on encode()'s output size (header + chunk table +
  /// per-plane raw fallback). wire_size() of the wrapping compressors quotes
  /// this bound, since a lossless codec's true size is data-dependent.
  int64_t max_encoded_bytes(int64_t raw_bytes) const;
};

/// The codec tiers benched per-record in bench/kernels_bench and documented
/// in WIRE_FORMATS.md — the codec registry tools/check_docs.py checks.
const std::vector<LosslessCodec>& standard_lossless_codecs();

/// Standalone lossless wire compressor: the baseline fp16 stream (same
/// precision loss as "w/o") inside a LosslessContainer. round_trip() is
/// exactly the fp16 round-trip — the container itself adds zero error.
///
/// wire_size() deviates from the base-class contract in one documented way:
/// a lossless message's size is data-dependent, so it returns the
/// max_encoded_bytes() UPPER BOUND and tests assert encode() <= wire_size()
/// instead of equality.
class LosslessCompressor : public Compressor {
 public:
  explicit LosslessCompressor(LosslessCodec codec = LosslessCodec{});

  std::string name() const override;
  tensor::Tensor round_trip(const tensor::Tensor& x) override;
  WireFormat wire_size(const tensor::Shape& shape) const override;
  bool allreduce_compatible() const override { return false; }
  const LosslessCodec& codec() const { return codec_; }

 protected:
  CompressedMessage do_encode(const tensor::Tensor& x) override;
  tensor::Tensor do_decode(const CompressedMessage& msg) const override;

 private:
  LosslessCodec codec_;
};

/// One contiguous slice of an inner compressor's body and the plane split it
/// should be coded with (WIRE_FORMATS.md §5).
struct BodySegment {
  int64_t offset = 0;
  int64_t bytes = 0;
  PlaneSplit split = PlaneSplit::kNone;
};

/// Maps an inner message (input shape + body size) to its segment layout.
/// Segments must tile [0, body_bytes) in order without gaps.
using SegmentLayoutFn =
    std::function<std::vector<BodySegment>(const tensor::Shape&, int64_t)>;

/// Whole body as one segment with the given split (generic fp16-ish bodies).
SegmentLayoutFn segment_whole(PlaneSplit split);
/// Top-K/Random-K bodies: [0, 4k) int32 index plane (bp4), [4k, 6k) fp16
/// value plane (bp2), with k = body_bytes / 6.
SegmentLayoutFn segments_topk();
/// Quantize bodies: rows*4 bytes of fp16 (lo, scale) pairs (bp2), then the
/// bit-packed codes (no split). rows = numel / last-dim.
SegmentLayoutFn segments_quantize();

/// Lossless-over-lossy: serializes the inner compressor, then codes its body
/// segment-by-segment. Decoding the lossless layer reproduces the inner wire
/// bytes exactly, so decode()/round_trip()/apply() match the inner algorithm
/// bit for bit. wire_size() is the raw-fallback upper bound, like
/// LosslessCompressor's.
class StackedCompressor : public Compressor {
 public:
  /// `layout` defaults to segment_whole(codec.split).
  StackedCompressor(CompressorPtr inner, LosslessCodec codec,
                    SegmentLayoutFn layout = nullptr);

  std::string name() const override;
  tensor::Tensor round_trip(const tensor::Tensor& x) override;
  autograd::Variable apply(const autograd::Variable& x) override;
  WireFormat wire_size(const tensor::Shape& shape) const override;
  bool allreduce_compatible() const override { return false; }
  std::vector<autograd::Variable> parameters() override;

  Compressor& inner() { return *inner_; }

 protected:
  CompressedMessage do_encode(const tensor::Tensor& x) override;
  tensor::Tensor do_decode(const CompressedMessage& msg) const override;

 private:
  std::vector<BodySegment> layout_for(const tensor::Shape& shape,
                                      int64_t body_bytes) const;

  CompressorPtr inner_;
  LosslessCodec codec_;
  SegmentLayoutFn layout_;
};

namespace detail {

// The plane coders of WIRE_FORMATS.md §4.4-§4.5, exposed for the
// differential and fuzz tests and the per-stage records of kernels_bench.

/// Upper bound on rle_encode()'s output for `n` input bytes.
int64_t rle_bound(int64_t n);
/// PackBits-codes p[0, n) into `out` (room for rle_bound(n) bytes); returns
/// the bytes written.
int64_t rle_encode(const std::byte* p, int64_t n, std::byte* out);
/// Decodes exactly `expected` bytes into out[0], out[stride], ... (stride 1,
/// 2 or 4); throws std::invalid_argument on any malformed stream.
void rle_decode(const std::byte* p, int64_t n, int64_t expected, std::byte* out,
                int stride = 1);

/// The Huffman stream for p[0, n), or nullopt when the tree is deeper than
/// 32 bits (the caller then stores the plane raw) or the stream would be
/// longer than `limit` bytes. The size is known before any bit is emitted,
/// so a stream over the limit costs no emission.
std::optional<std::vector<std::byte>> huffman_encode(
    const std::byte* p, int64_t n,
    int64_t limit = std::numeric_limits<int64_t>::max());
/// Same, into `out` (room for `limit` bytes); returns the stream's size, or
/// -1 where huffman_encode() returns nullopt.
int64_t huffman_encode_to(const std::byte* p, int64_t n, int64_t limit,
                          std::byte* out);
/// Decodes exactly `expected` symbols and requires the stream to be exactly
/// consumed; throws std::invalid_argument on any malformed stream.
std::vector<std::byte> huffman_decode(const std::byte* p, int64_t n,
                                      int64_t expected);
/// Same, into out[0], out[stride], ... (stride 1, 2 or 4).
void huffman_decode_to(const std::byte* p, int64_t n, int64_t expected,
                       std::byte* out, int stride = 1);

}  // namespace detail

}  // namespace actcomp::compress
