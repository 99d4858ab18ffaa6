// Workload `wire`: the codec path a real transport would take.
//
// The message is a seeded activation of BERT-Large's shape [8 x 128, 1024].
// Each round sends it through encode() + decode() of T3, Q2, A2 and R3,
// each alone and stacked under rle+huffman/bp2 (StackedCompressor), and
// sends the raw fp16 stream through LosslessCompressor: nine messages. The
// pool width is 2. An op is one message (encode + decode).
//
// Checks per message: decode(encode(x)) is byte-equal to round_trip(x) of a
// twin codec built from the same seed, so the autoencoder's weights match
// (compared by a 64-bit digest of the bytes). For the deterministic codecs
// round_trip(x) is computed once at set-up; Random-K's twin runs round_trip
// every time so its index stream stays in step with the codec under test. A lossy body is exactly wire_size(shape)
// bytes, a lossless or stacked body at most its wire_size() bound. The
// lossless stage's exactness follows from the byte-equality: the stacked
// codecs must return the inner codec's output and the standalone one the
// fp16 stream, bit for bit.
#include <cstdio>
#include <cstring>

#include "compress/lossless.h"
#include "compress/settings.h"
#include "core/threadpool.h"
#include "harness.h"
#include "tensor/random.h"

namespace actcomp::perfbench {
namespace {

namespace cp = actcomp::compress;
namespace ts = actcomp::tensor;

constexpr int64_t kRows = 8 * 128;
constexpr int64_t kHidden = 1024;

/// One message kind of a round. Zone names are literals so the profiler can
/// keep pointers to them.
struct Codec {
  const char* id;          ///< wire.ratio.<id>
  const char* family;      ///< compress.{encode,decode}_ms.<family>; "" = none
  cp::Setting setting;
  enum Kind { kLossy, kStacked, kLossless } kind;
  const char* enc_zone;
  const char* dec_zone;
};

const Codec kCodecs[] = {
    {"t3", "topk", cp::Setting::kT3, Codec::kLossy, "bench.wire.encode.t3",
     "bench.wire.decode.t3"},
    {"q2", "quant", cp::Setting::kQ2, Codec::kLossy, "bench.wire.encode.q2",
     "bench.wire.decode.q2"},
    {"a2", "ae", cp::Setting::kA2, Codec::kLossy, "bench.wire.encode.a2",
     "bench.wire.decode.a2"},
    {"r3", "randk", cp::Setting::kR3, Codec::kLossy, "bench.wire.encode.r3",
     "bench.wire.decode.r3"},
    {"t3_lossless", "topk", cp::Setting::kT3, Codec::kStacked,
     "bench.wire.encode.t3_lossless", "bench.wire.decode.t3_lossless"},
    {"q2_lossless", "quant", cp::Setting::kQ2, Codec::kStacked,
     "bench.wire.encode.q2_lossless", "bench.wire.decode.q2_lossless"},
    {"a2_lossless", "ae", cp::Setting::kA2, Codec::kStacked,
     "bench.wire.encode.a2_lossless", "bench.wire.decode.a2_lossless"},
    {"r3_lossless", "randk", cp::Setting::kR3, Codec::kStacked,
     "bench.wire.encode.r3_lossless", "bench.wire.decode.r3_lossless"},
    {"lossless", "", cp::Setting::kBaseline, Codec::kLossless,
     "bench.wire.encode.lossless", "bench.wire.decode.lossless"},
};

cp::CompressorPtr make_codec(const Codec& c, uint64_t seed) {
  if (c.kind == Codec::kLossless) {
    return std::make_unique<cp::LosslessCompressor>(cp::LosslessCodec{});
  }
  ts::Generator gen(seed);
  cp::CompressorPtr inner = cp::make_compressor(c.setting, kHidden, gen);
  if (c.kind == Codec::kLossy) return inner;
  cp::SegmentLayoutFn layout;
  if (c.setting == cp::Setting::kT3 || c.setting == cp::Setting::kR3) {
    layout = cp::segments_topk();
  } else if (c.setting == cp::Setting::kQ2) {
    layout = cp::segments_quantize();
  }
  return std::make_unique<cp::StackedCompressor>(std::move(inner),
                                                 cp::LosslessCodec{}, layout);
}

/// A codec under test and its twin (same seed), which supplies round_trip.
struct Pair {
  const Codec* codec;
  cp::CompressorPtr wire;
  cp::CompressorPtr twin;
  std::string expected;  ///< digest of twin round_trip(x), from set-up
  double ratio = 0.0;     ///< body bytes over fp16 bytes, from set-up
};

bool random_k(const Codec& c) { return c.setting == cp::Setting::kR3; }

std::string digest_of(const ts::Tensor& t) {
  Digest d;
  for (int64_t dim : t.shape().dims()) d.pod(dim);
  d.bytes(t.data().data(), static_cast<size_t>(t.numel()) * sizeof(float));
  return d.hex();
}

/// Sends `x` through `p` as one timed op and checks the result.
void send(Recorder& rec, Pair& p, const ts::Tensor& x, bool corrupt) {
  cp::CompressedMessage msg;
  ts::Tensor y;
  const bool completed = rec.op([&] {
    ACTCOMP_PROFILE("bench.wire.msg");
    {
      obs::ScopedZone z(p.codec->enc_zone);
      msg = p.wire->encode(x);
    }
    if (corrupt && !msg.body.empty()) {
      msg.body.back() ^= std::byte{0x5a};
    }
    {
      obs::ScopedZone z(p.codec->dec_zone);
      y = p.wire->decode(msg);
    }
  });
  const std::string ref =
      random_k(*p.codec) ? digest_of(p.twin->round_trip(x)) : p.expected;
  if (!completed) return;  // the op threw; already counted
  if (digest_of(y) != ref) {
    rec.fail(std::string(p.codec->id) + ": decode(encode(x)) != round_trip(x)");
  }
  const int64_t bound = p.wire->wire_size(x.shape()).total_bytes();
  const int64_t body = msg.body_bytes();
  if (p.codec->kind == Codec::kLossy ? body != bound : body > bound) {
    rec.fail(std::string(p.codec->id) + ": body " + std::to_string(body) +
             " bytes vs wire_size " + std::to_string(bound));
  }
}

}  // namespace

Outcome run_wire(const Options& opt) {
  Outcome out;
  out.work_name = "wire_gb_s";
  core::set_num_threads(2);
  const int64_t rows = opt.tiny ? 64 : kRows;

  // Set-up: the activation, the codecs and their twins, one warm-up round
  // (which also records each codec's exact wire ratio).
  ts::Tensor x;
  std::vector<Pair> pairs;
  for (int r = 0; r < opt.setups; ++r) {
    x = ts::Tensor();  // release the previous set-up's state first
    pairs.clear();
    const Clock::time_point t0 = Clock::now();
    ts::Generator gen(mix_seed(opt.seed, 50));
    x = gen.normal(ts::Shape{rows, kHidden});
    uint64_t salt = 60;
    for (const Codec& c : kCodecs) {
      const uint64_t s = mix_seed(opt.seed, salt++);
      pairs.push_back({&c, make_codec(c, s), make_codec(c, s), "", 0.0});
    }
    const double fp16 = static_cast<double>(cp::fp16_bytes(x.shape()));
    for (Pair& p : pairs) {
      const cp::CompressedMessage msg = p.wire->encode(x);
      (void)p.wire->decode(msg);
      p.expected = digest_of(p.twin->round_trip(x));
      p.ratio = static_cast<double>(msg.body_bytes()) / fp16;
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  out.work_per_op = static_cast<double>(x.numel() * 4) / 1e9;

  Recorder rec(opt, out);
  for (int64_t round = 0; round < 2 || (!opt.tiny && rec.time_left()); ++round) {
    for (Pair& p : pairs) {
      const bool corrupt = opt.inject == "corrupt-msg" && round == 0 &&
                           std::strcmp(p.codec->id, "q2") == 0;
      send(rec, p, x, corrupt);
    }
    rec.end_cycle();
  }

  for (const Pair& p : pairs) {
    out.layers[std::string("wire.ratio.") + p.codec->id] = p.ratio;
  }
  if (opt.trace) {
    const ZoneTable z;
    double lossless_enc = 0.0, lossless_dec = 0.0, attributed = 0.0;
    for (const Codec& c : kCodecs) {
      const auto n = static_cast<double>(z.count(c.enc_zone));
      if (n == 0.0) continue;
      const double enc = z.total({c.enc_zone});
      const double dec = z.total({c.dec_zone});
      attributed += enc + dec;
      double lossy_enc = enc, lossy_dec = dec;
      if (c.kind == Codec::kStacked) {
        lossy_enc = z.total_suffix(std::string(c.enc_zone) +
                                   "/compress.encode/compress.encode");
        lossy_dec = z.total_suffix(std::string(c.dec_zone) +
                                   "/compress.decode/compress.decode");
      } else if (c.kind == Codec::kLossless) {
        lossy_enc = lossy_dec = 0.0;
      }
      lossless_enc += (enc - lossy_enc) / n;
      lossless_dec += (dec - lossy_dec) / n;
      if (*c.family != '\0') {
        out.layers[std::string("compress.encode_ms.") + c.family] += lossy_enc / n;
        out.layers[std::string("compress.decode_ms.") + c.family] += lossy_dec / n;
      }
    }
    out.layers["lossless.encode_ms"] = lossless_enc;
    out.layers["lossless.decode_ms"] = lossless_dec;
    out.traced_wall_ms = z.total({"bench.wire.msg"});
    out.attributed_ms = attributed;
    z.print_self_times("bench.wire.msg", out.traced_wall_ms);
  }
  return out;
}

}  // namespace actcomp::perfbench
