#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/registry.h"

namespace actcomp::perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> best_per_kind(const Outcome& out) {
  std::vector<double> best;
  size_t begin = 0;
  for (size_t end : out.cycle_ends) {
    for (size_t i = begin; i < end; ++i) {
      const size_t kind = i - begin;
      if (kind == best.size()) {
        best.push_back(out.op_ms[i]);
      } else {
        best[kind] = std::min(best[kind], out.op_ms[i]);
      }
    }
    begin = end;
  }
  return best;
}

Recorder::Recorder(const Options& opt, Outcome& out)
    : opt_(opt), out_(out), start_(Clock::now()) {}

bool Recorder::time_left() const {
  return ms_between(start_, Clock::now()) < opt_.seconds * 1e3;
}

void Recorder::begin_op() {
  traced_ = opt_.trace && ops_ % 2 == 1;
  op_failed_ = false;
  obs::set_profiler_enabled(traced_);
}

void Recorder::end_op(double ms) {
  obs::set_profiler_enabled(false);
  (traced_ ? out_.traced_op_ms : out_.op_ms).push_back(ms);
  ++ops_;
  ++out_.attempted;
}

void Recorder::fail(const std::string& why) {
  if (op_failed_) return;
  op_failed_ = true;
  ++out_.failed;
  if (out_.failures.size() < 8) out_.failures.push_back(why);
}

ZoneTable::ZoneTable() : zones_(obs::snapshot_zones()) {}

namespace {

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    const size_t slash = path.find('/', start);
    out.push_back(path.substr(start, slash - start));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return out;
}

bool in(std::string_view s, std::initializer_list<std::string_view> names) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

}  // namespace

double ZoneTable::total(std::initializer_list<std::string_view> names) const {
  double ms = 0.0;
  for (const obs::ZoneStats& z : zones_) {
    if (!in(z.name, names)) continue;
    const std::vector<std::string_view> segs = split_path(z.path);
    const bool nested = std::any_of(segs.begin(), segs.end() - 1,
                                    [&](std::string_view s) { return in(s, names); });
    if (!nested) ms += z.total_ms;
  }
  return ms;
}

int64_t ZoneTable::count(std::string_view name) const {
  int64_t n = 0;
  for (const obs::ZoneStats& z : zones_) {
    if (z.name == name) n += z.count;
  }
  return n;
}

double ZoneTable::total_suffix(std::string_view suffix) const {
  double ms = 0.0;
  for (const obs::ZoneStats& z : zones_) {
    const std::string_view p = z.path;
    if (p.size() >= suffix.size() &&
        p.substr(p.size() - suffix.size()) == suffix &&
        (p.size() == suffix.size() || p[p.size() - suffix.size() - 1] == '/')) {
      ms += z.total_ms;
    }
  }
  return ms;
}

void ZoneTable::print_self_times(std::string_view root, double wall_ms) const {
  std::printf("%-64s %8s %12s %12s %7s\n", "zone (under traced ops)", "count",
              "total ms", "self ms", "self %");
  for (const obs::ZoneStats& z : zones_) {
    const std::string_view p = z.path;
    if (p.substr(0, root.size()) != root) continue;
    if (z.depth > 4) continue;
    std::printf("%-64s %8lld %12.3f %12.3f %6.1f%%\n",
                (std::string(static_cast<size_t>(2 * z.depth), ' ') + z.name).c_str(),
                static_cast<long long>(z.count), z.total_ms, z.self_ms,
                wall_ms > 0.0 ? 100.0 * z.self_ms / wall_ms : 0.0);
  }
}

int64_t counter_value(std::string_view name) {
  return obs::Registry::instance().counter(name).value();
}

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::bytes(const void* p, size_t n) {
  // FNV-1a over 8-byte words, then the tail bytes.
  const auto* b = static_cast<const unsigned char*>(p);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, b + i, sizeof(w));
    h_ = (h_ ^ w) * 1099511628211ull;
  }
  for (; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace actcomp::perfbench
