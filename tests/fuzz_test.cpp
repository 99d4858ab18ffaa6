// Seeded mutation fuzzing of the wire decoders (WIRE_FORMATS.md §3.3, §4,
// §5): LosslessCodec::decode, LosslessCompressor::decode and
// StackedCompressor::decode over T3/Q2/R3 (each at pool widths 1 and 2),
// and the Top-K and Random-K decoders — plus the serving-trace loader
// (obs::json::Value::parse + sim::serving_trace_from_json).
//
// Each target starts from a corpus of valid messages and decodes a fixed
// number of deterministic mutants: bit flips, truncations, inflated u64
// size fields and Huffman length bytes, and splices of two valid messages.
// Contract per mutant:
//   * no crash and no sanitizer finding (the test runs in the ASan/UBSan
//     and TSan slices of ci.sh);
//   * any exception is std::invalid_argument;
//   * no single allocation larger than a bound derived from the input size
//     (tracked by the operator new replacement below);
//   * for the trace loader, an accepted document yields exactly the numbers
//     it holds, and that trace survives its own save/load round trip.
// Every decoder bug the harness found is pinned by a named regression test
// at the end of this file.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "compress/lossless.h"
#include "compress/randomk.h"
#include "compress/settings.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "core/threadpool.h"
#include "obs/json.h"
#include "sim/serving.h"
#include "sim/serving_trace.h"
#include "tensor/random.h"

namespace core = actcomp::core;
namespace cp = actcomp::compress;
namespace json = actcomp::obs::json;
namespace sim = actcomp::sim;
namespace ts = actcomp::tensor;

// ---------------------------------------------------------------------------
// Allocation tracking: the largest single request while armed.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_track{false};
std::atomic<size_t> g_largest{0};

void* tracked_alloc(size_t n) {
  if (g_track.load(std::memory_order_relaxed)) {
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(size_t n) { return tracked_alloc(n); }
void* operator new[](size_t n) { return tracked_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace {

using Bytes = std::vector<std::byte>;

// ---------------------------------------------------------------------------
// Mutator
// ---------------------------------------------------------------------------

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  /// One to three mutations of a random corpus entry.
  Bytes mutate(const std::vector<Bytes>& corpus) {
    Bytes m = corpus[below(corpus.size())];
    const int rounds = 1 + static_cast<int>(below(3));
    for (int r = 0; r < rounds; ++r) {
      switch (below(5)) {
        case 0: flip_bits(m); break;
        case 1: truncate(m); break;
        case 2: inflate_u64(m); break;
        case 3: inflate_length_byte(m); break;
        case 4: splice(m, corpus[below(corpus.size())]); break;
      }
    }
    return m;
  }

 private:
  size_t below(size_t n) { return n == 0 ? 0 : static_cast<size_t>(rng_() % n); }

  void flip_bits(Bytes& m) {
    if (m.empty()) return;
    const int flips = 1 + static_cast<int>(below(4));
    for (int i = 0; i < flips; ++i) {
      m[below(m.size())] ^= static_cast<std::byte>(1u << below(8));
    }
  }

  void truncate(Bytes& m) { m.resize(below(m.size() + 1)); }

  // Overwrites 8 bytes (any offset, so header fields and misaligned
  // windows alike) with a size a decoder must not trust.
  void inflate_u64(Bytes& m) {
    if (m.size() < 8) return;
    const uint64_t choices[] = {~uint64_t{0},
                                uint64_t{1} << 63,
                                uint64_t{1} << 40,
                                uint64_t{1} << 32,
                                uint64_t{0xFFFFFFFF},
                                m.size() * uint64_t{600},
                                m.size() + 1,
                                rng_()};
    const uint64_t v = choices[below(std::size(choices))];
    std::memcpy(m.data() + below(m.size() - 7), &v, 8);
  }

  // Huffman length bytes sit in 256-byte tables; any byte may be one.
  void inflate_length_byte(Bytes& m) {
    if (m.empty()) return;
    const uint8_t choices[] = {0, 1, 11, 12, 31, 32, 33, 255};
    m[below(m.size())] = static_cast<std::byte>(choices[below(std::size(choices))]);
  }

  void splice(Bytes& m, const Bytes& other) {
    const size_t cut_a = below(m.size() + 1);
    const size_t cut_b = below(other.size() + 1);
    m.resize(cut_a);
    m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(cut_b), other.end());
  }

  std::mt19937_64 rng_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Mutants per target. Sized so the whole file runs in about a second in a
/// Release build; sanitizer builds take proportionally longer.
constexpr int kIterations = 5000;

/// Largest single allocation a decode of `input_bytes` may make: the codec's
/// own 512x expansion bound (WIRE_FORMATS.md §4.6) with headroom, plus the
/// output tensor, whose size the (trusted) shape fixes.
size_t allocation_bound(size_t input_bytes, int64_t numel) {
  return 1024 * input_bytes + 8 * static_cast<size_t>(numel) + (size_t{1} << 16);
}

/// Runs `decode` on one input under the contract; returns whether it threw.
bool run_one(const std::function<void()>& decode, size_t input_bytes,
             int64_t numel, const std::string& label) {
  g_largest.store(0);
  g_track.store(true);
  bool threw = false;
  try {
    decode();
  } catch (const std::invalid_argument&) {
    threw = true;
  } catch (const std::exception& e) {
    g_track.store(false);
    ADD_FAILURE() << label << ": non-invalid_argument exception: " << e.what();
    return true;
  }
  g_track.store(false);
  EXPECT_LE(g_largest.load(), allocation_bound(input_bytes, numel))
      << label << ": allocation beyond the input-size bound";
  return threw;
}

/// Decodes every corpus message (all must be accepted), then kIterations
/// mutants; returns how many mutants were rejected.
template <typename DecodeFn>
int fuzz(const std::vector<Bytes>& corpus, uint64_t seed, int64_t numel,
         const DecodeFn& decode_bytes) {
  int rejected = 0;
  for (const Bytes& valid : corpus) {
    EXPECT_FALSE(run_one([&] { decode_bytes(valid); }, valid.size(), numel, "corpus"))
        << "a valid corpus message was rejected";
  }
  Mutator mut(seed);
  for (int it = 0; it < kIterations && !::testing::Test::HasFailure(); ++it) {
    const Bytes m = mut.mutate(corpus);
    const bool threw = run_one([&] { decode_bytes(m); }, m.size(), numel,
                               "iteration " + std::to_string(it));
    rejected += threw ? 1 : 0;
  }
  return rejected;
}

ts::Tensor activation(uint64_t seed, int64_t rows, int64_t cols) {
  ts::Generator gen(seed);
  return gen.normal(ts::Shape{rows, cols});
}

Bytes fp16_bytes_of(const ts::Tensor& x) {
  Bytes b;
  cp::wire::append_fp16(b, x);
  return b;
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// The pool widths the container decoders run at: they decode a container's
/// (chunk, plane) units in one parallel pass, inline at width 1.
constexpr int kPoolWidths[] = {1, 2};

class PoolWidth {
 public:
  explicit PoolWidth(int n) : saved_(core::num_threads()) { core::set_num_threads(n); }
  ~PoolWidth() { core::set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(Fuzz, LosslessCodecDecode) {
  std::vector<cp::LosslessCodec> codecs = cp::standard_lossless_codecs();
  codecs.push_back({cp::LosslessAlgo::kRleHuffman, cp::PlaneSplit::kStride4, 700});
  codecs.push_back({cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kNone, 0});
  codecs.push_back({cp::LosslessAlgo::kRaw, cp::PlaneSplit::kStride2, 0});
  std::vector<Bytes> payloads = {
      fp16_bytes_of(activation(1, 8, 128)), fp16_bytes_of(activation(2, 2, 40)),
      Bytes(600, std::byte{0}), Bytes{}};
  {
    Bytes skew(1500);
    std::mt19937_64 rng(3);
    for (auto& b : skew) b = static_cast<std::byte>(std::countr_zero(rng() | (1ull << 40)));
    payloads.push_back(std::move(skew));
  }
  for (const int width : kPoolWidths) {
    const PoolWidth pool(width);
    for (size_t c = 0; c < codecs.size(); ++c) {
      const cp::LosslessCodec& codec = codecs[c];
      std::vector<Bytes> corpus;
      for (const Bytes& p : payloads) {
        corpus.push_back(codec.encode(p));
        ASSERT_EQ(codec.decode(corpus.back()), p) << codec.name();
      }
      const int rejected = fuzz(corpus, 100 + c, 0, [&](const Bytes& m) { codec.decode(m); });
      if (HasFailure()) return;
      EXPECT_GT(rejected, 0) << codec.name() << " at width " << width;
    }
  }
}

TEST(Fuzz, LosslessCompressorDecode) {
  // The standalone lossless message: the fp16 stream of a tensor in one
  // container, whose decoded size must match the (trusted) shape.
  const std::vector<cp::LosslessCodec> codecs = {
      cp::LosslessCodec{},
      {cp::LosslessAlgo::kRleHuffman, cp::PlaneSplit::kStride2, 300},
      {cp::LosslessAlgo::kHuffman, cp::PlaneSplit::kStride4, 0}};
  const ts::Tensor x = activation(21, 8, 64);
  for (const int width : kPoolWidths) {
    const PoolWidth pool(width);
    for (size_t c = 0; c < codecs.size(); ++c) {
      cp::LosslessCompressor comp(codecs[c]);
      std::vector<Bytes> corpus = {comp.encode(x).body,
                                   comp.encode(activation(22, 8, 64)).body,
                                   comp.encode(ts::Tensor(x.shape())).body};
      const std::vector<int64_t> dims = x.shape().dims();
      const int rejected = fuzz(corpus, 400 + c, x.numel(), [&](const Bytes& m) {
        cp::CompressedMessage msg;
        msg.shape_dims = dims;
        msg.body = m;
        comp.decode(msg);
      });
      if (HasFailure()) return;
      EXPECT_GT(rejected, 0) << comp.name() << " at width " << width;
    }
  }
}

cp::CompressorPtr stacked(cp::Setting s, uint64_t seed) {
  ts::Generator gen(seed);
  cp::SegmentLayoutFn layout = s == cp::Setting::kQ2 ? cp::segments_quantize()
                                                     : cp::segments_topk();
  return std::make_unique<cp::StackedCompressor>(
      cp::make_compressor(s, 64, gen), cp::LosslessCodec{}, std::move(layout));
}

TEST(Fuzz, StackedDecodeOverT3Q2R3) {
  for (const int width : kPoolWidths) {
    const PoolWidth pool(width);
    for (cp::Setting s : {cp::Setting::kT3, cp::Setting::kQ2, cp::Setting::kR3}) {
      cp::CompressorPtr c = stacked(s, 7);
      const ts::Tensor x = activation(5, 16, 64);
      std::vector<Bytes> corpus;
      for (int i = 0; i < 3; ++i) {
        corpus.push_back(c->encode(i == 2 ? activation(6, 16, 64) : x).body);
      }
      const std::vector<int64_t> dims = x.shape().dims();
      const int rejected = fuzz(corpus, 200 + static_cast<uint64_t>(s), x.numel(),
                                [&](const Bytes& m) {
                                  cp::CompressedMessage msg;
                                  msg.shape_dims = dims;
                                  msg.body = m;
                                  c->decode(msg);
                                });
      if (HasFailure()) return;
      EXPECT_GT(rejected, 0) << cp::setting_label(s) << " at width " << width;
    }
  }
}

TEST(Fuzz, SparseDecodersAtOneAndFourThreads) {
  const int saved = core::num_threads();
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    // 20000 elements at f = 0.5 spreads the scatter over two chunks.
    const ts::Tensor x = activation(9, 20, 1000);
    const std::vector<int64_t> dims = x.shape().dims();
    cp::TopKCompressor topk(0.5);
    cp::RandomKCompressor randk(0.5, 4);
    for (cp::Compressor* c : {static_cast<cp::Compressor*>(&topk),
                              static_cast<cp::Compressor*>(&randk)}) {
      std::vector<Bytes> corpus = {c->encode(x).body, c->encode(activation(10, 20, 1000)).body};
      const int rejected = fuzz(corpus, 300 + static_cast<uint64_t>(threads), x.numel(),
                                [&](const Bytes& m) {
                                  cp::CompressedMessage msg;
                                  msg.shape_dims = dims;
                                  msg.body = m;
                                  c->decode(msg);
                                });
      if (HasFailure()) break;
      EXPECT_GT(rejected, 0) << c->name();
    }
  }
  core::set_num_threads(saved);
}

/// Parses `text` and loads it as a serving trace, the way load_serving_trace
/// does after reading a file; a parse error throws std::invalid_argument.
std::vector<sim::ServingRequest> trace_from_text(const std::string& text,
                                                 json::Value* doc_out = nullptr) {
  std::string err;
  json::Value doc = json::Value::parse(text, &err);
  if (!err.empty()) throw std::invalid_argument("parse: " + err);
  std::vector<sim::ServingRequest> trace = sim::serving_trace_from_json(doc);
  if (doc_out != nullptr) *doc_out = std::move(doc);
  return trace;
}

bool same_trace(const std::vector<sim::ServingRequest>& a,
                const std::vector<sim::ServingRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i].arrival_ms) !=
            std::bit_cast<uint64_t>(b[i].arrival_ms) ||
        a[i].prompt_tokens != b[i].prompt_tokens ||
        a[i].max_new_tokens != b[i].max_new_tokens) {
      return false;
    }
  }
  return true;
}

/// True when `v` holds exactly `want`: an integer node equal to it, or a
/// double node with the same value.
bool holds(const json::Value& v, int64_t want) {
  return v.kind() == json::Kind::kInt
             ? v.as_int() == want
             : v.as_double() == static_cast<double>(want);
}

/// Loads a mutant under the trace contract: a rejection is an
/// std::invalid_argument; an accepted document must yield the numbers it
/// holds, and the trace must reproduce itself through save/load.
void load_trace_mutant(const Bytes& m) {
  const std::string text(reinterpret_cast<const char*>(m.data()), m.size());
  json::Value doc;
  const std::vector<sim::ServingRequest> trace = trace_from_text(text, &doc);
  const json::Value& reqs = *doc.find("requests");
  for (size_t i = 0; i < trace.size(); ++i) {
    const json::Value& item = reqs.at(i);
    const bool exact =
        std::bit_cast<uint64_t>(item.find("arrival_ms")->as_double()) ==
            std::bit_cast<uint64_t>(trace[i].arrival_ms) &&
        holds(*item.find("prompt_tokens"), trace[i].prompt_tokens) &&
        holds(*item.find("max_new_tokens"), trace[i].max_new_tokens);
    if (!exact) {
      ADD_FAILURE() << "requests[" << i << "] loaded as {"
                    << trace[i].arrival_ms << ", " << trace[i].prompt_tokens
                    << ", " << trace[i].max_new_tokens << "} from "
                    << item.dump();
      return;
    }
  }
  std::vector<sim::ServingRequest> again;
  try {
    again = trace_from_text(sim::serving_trace_to_json(trace).dump(2));
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "an accepted trace does not reload: " << e.what();
    return;
  }
  EXPECT_TRUE(same_trace(again, trace)) << "an accepted trace does not reload exactly";
}

Bytes bytes_of(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(Fuzz, ServingTraceJson) {
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 40.0;
  spec.num_requests = 12;
  spec.prompt_tokens = 96;
  spec.max_new_tokens = 24;
  const std::vector<std::vector<sim::ServingRequest>> traces = {
      sim::poisson_trace(spec),
      {{0.1 + 0.2, 128, 32}, {123.45678901234567, 1, 0}, {1e-9 + 123.5, 4096, 1024}},
      {}};
  std::vector<Bytes> corpus;
  for (const auto& trace : traces) {
    for (const int indent : {2, -1}) {
      const std::string text = sim::serving_trace_to_json(trace).dump(indent);
      EXPECT_TRUE(same_trace(trace_from_text(text), trace)) << text;
      corpus.push_back(bytes_of(text));
    }
  }
  // The binary mutator almost never leaves a parseable document, so half
  // the mutants are instead a corpus entry with one or two bytes replaced
  // by characters JSON numbers and the document's structure are made of.
  static constexpr char kJsonBytes[] = "0123456789.eE+-\",:[]{} ";
  Mutator mut(400);
  std::mt19937_64 rng(401);
  int rejected = 0;
  for (int it = 0; it < kIterations && !HasFailure(); ++it) {
    Bytes m;
    if ((rng() & 1) != 0) {
      m = mut.mutate(corpus);
    } else {
      m = corpus[rng() % corpus.size()];
      for (uint64_t edits = 1 + rng() % 2; edits > 0 && !m.empty(); --edits) {
        m[rng() % m.size()] =
            static_cast<std::byte>(kJsonBytes[rng() % (sizeof(kJsonBytes) - 1)]);
      }
    }
    rejected += run_one([&] { load_trace_mutant(m); }, m.size(), 0,
                        "iteration " + std::to_string(it))
                    ? 1
                    : 0;
  }
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Regressions: one test per decoder bug the harness found.
// ---------------------------------------------------------------------------

/// Decodes `m` under the contract and requires a rejection.
template <typename DecodeFn>
void expect_rejected(const Bytes& m, int64_t numel, const DecodeFn& decode_bytes) {
  EXPECT_TRUE(run_one([&] { decode_bytes(m); }, m.size(), numel, "regression"))
      << "malformed input was accepted";
}

template <typename T>
void put(Bytes& m, size_t off, T v) {
  std::memcpy(m.data() + off, &v, sizeof(T));
}

// Container header offsets (WIRE_FORMATS.md §4.1).
constexpr size_t kRawBytesAt = 4;
constexpr size_t kNumChunksAt = 12;
constexpr size_t kChunkRawAt = 16;

Bytes small_container() {
  return cp::LosslessCodec{}.encode(fp16_bytes_of(activation(1, 2, 64)));
}

TEST(FuzzRegression, ContainerChunkRawOverflowIsRejected) {
  // chunk_raw * num_chunks overflowed int64: with n = 2^31 chunks of
  // 2^33 + 1 bytes, c·(n-1) wraps negative and c·n wraps to 2^31, so the
  // check c·(n-1) < raw <= c·n passed and sized a 16 GB chunk table.
  Bytes m = small_container();
  put<uint32_t>(m, kNumChunksAt, uint32_t{1} << 31);
  put<uint64_t>(m, kChunkRawAt, (uint64_t{1} << 33) + 1);
  expect_rejected(m, 0, [](const Bytes& b) { cp::LosslessCodec{}.decode(b); });
}

TEST(FuzzRegression, ContainerChunkTableLongerThanTheBufferIsRejected) {
  // A consistent (raw_bytes, num_chunks, chunk_raw) triple whose chunk
  // table cannot fit in the buffer: the table was allocated before a single
  // entry was read, at 8 bytes per claimed chunk.
  Bytes m = small_container();
  const uint64_t raw = 512 * m.size();
  put<uint64_t>(m, kRawBytesAt, raw);
  put<uint32_t>(m, kNumChunksAt, static_cast<uint32_t>(raw));
  put<uint64_t>(m, kChunkRawAt, 1);
  expect_rejected(m, 0, [](const Bytes& b) { cp::LosslessCodec{}.decode(b); });
}

/// A stacked T3 message over a [4, 64] activation and its decoder.
struct StackedCase {
  cp::CompressorPtr codec = stacked(cp::Setting::kT3, 7);
  ts::Tensor x = activation(5, 4, 64);
  Bytes body = codec->encode(x).body;
  void decode(const Bytes& b) const {
    cp::CompressedMessage msg;
    msg.shape_dims = x.shape().dims();
    msg.body = b;
    codec->decode(msg);
  }
};

TEST(FuzzRegression, StackedSegmentCountBeyondTheBodyIsRejected) {
  // The u32 segment count sized the segment-size table before any entry was
  // read: up to 32 GB for a few hundred bytes of input.
  const StackedCase c;
  Bytes m = c.body;
  put<uint32_t>(m, 0, 0xFFFFFFFFu);
  expect_rejected(m, c.x.numel(), [&](const Bytes& b) { c.decode(b); });
}

TEST(FuzzRegression, StackedNegativeSegmentSizeIsRejected) {
  // A u64 segment size of 2^64 - 1 read as -1 wrapped the bounds check and
  // built a segment from an inverted iterator range.
  const StackedCase c;
  Bytes m = c.body;
  put<uint64_t>(m, 4, ~uint64_t{0});
  expect_rejected(m, c.x.numel(), [&](const Bytes& b) { c.decode(b); });
}

/// A one-request trace document with the given arrival and prompt literals.
std::string trace_doc(const std::string& arrival, const std::string& prompt) {
  return std::string("{\"schema\":\"") + sim::kServingTraceSchema +
         "\",\"requests\":[{\"arrival_ms\":" + arrival +
         ",\"prompt_tokens\":" + prompt + ",\"max_new_tokens\":24}]}";
}

TEST(FuzzRegression, TraceArrivalOverflowingToInfinityIsRejected) {
  // 1e999 parses to inf. The loader accepted it, and save wrote it back as
  // null, so the trace no longer reloaded.
  ASSERT_EQ(trace_from_text(trace_doc("1.5", "96")).at(0).arrival_ms, 1.5);
  const Bytes m = bytes_of(trace_doc("1e999", "96"));
  expect_rejected(m, 0, [](const Bytes& b) { load_trace_mutant(b); });
}

TEST(FuzzRegression, TraceTokenCountWrittenAsADoubleIsRejected) {
  // 24. parses to a double node, whose as_int() is 0: the request silently
  // loaded with no prompt instead of 24 tokens.
  ASSERT_EQ(trace_from_text(trace_doc("1.5", "24")).at(0).prompt_tokens, 24);
  for (const char* literal : {"24.", "2.4e1", "24.5"}) {
    const Bytes m = bytes_of(trace_doc("1.5", literal));
    expect_rejected(m, 0, [](const Bytes& b) { load_trace_mutant(b); });
  }
}

TEST(FuzzRegression, JsonNumbersOutsideTheRfc8259GrammarAreRejected) {
  // The number branch ignored strtoll/strtod's end pointer: 12-3 parsed as
  // the integer 12, and e5 or . as 0.0.
  for (const char* bad :
       {"12-3", "e5", ".", "-", "1.", ".5", "01", "1e", "+1", "--1"}) {
    for (const std::string& doc :
         {std::string(bad), "[" + std::string(bad) + "]",
          "{\"x\": " + std::string(bad) + "}"}) {
      std::string err;
      const json::Value v = json::Value::parse(doc, &err);
      EXPECT_FALSE(err.empty()) << doc << " parsed as " << v.dump();
    }
  }
  std::string err;
  EXPECT_EQ(json::Value::parse("[-12, 0, 7]", &err).at(0).as_int(), -12);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(json::Value::parse("-1.5e+2", &err).as_double(), -150.0);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(FuzzRegression, JsonNumbersTheDumperEmitsStillRoundTrip) {
  // dump() writes doubles as the shortest %.*g that reads back exactly
  // (exponents, -0 and subnormals included) and integers with %lld.
  for (double d : {0.0, -0.0, 1.5, -2.25e-7, 1e300, -1e-300, 5e-324, 0.1,
                   123456789012345.0, 1.7976931348623157e308, 3.0, -42.0}) {
    std::string err;
    const json::Value back = json::Value::parse(json::Value(d).dump(), &err);
    EXPECT_TRUE(err.empty()) << d << ": " << err;
    EXPECT_EQ(std::bit_cast<uint64_t>(back.as_double()), std::bit_cast<uint64_t>(d))
        << json::Value(d).dump();
  }
  for (int64_t i : {int64_t{0}, int64_t{-1}, int64_t{96},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    std::string err;
    const json::Value back = json::Value::parse(json::Value(i).dump(), &err);
    EXPECT_TRUE(err.empty()) << i << ": " << err;
    EXPECT_EQ(back.as_int(), i);
  }
}

}  // namespace
