#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "simd/dispatch.hpp"
#include "simd/kernel_table.hpp"

namespace bench {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = median(values);
  std::sort(values.begin(), values.end());
  s.tail = s.median;
  for (const double p : {99.9, 99.0, 90.0, 75.0}) {
    if (static_cast<double>(s.n) * (100.0 - p) / 100.0 >= 10.0) {
      s.tail = percentile_sorted(values, p);
      s.tail_pct = p;
      break;
    }
  }
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Json& Json::num(const std::string& key, double v) {
  return raw(key, json_number(v));
}
Json& Json::integer(const std::string& key, std::int64_t v) {
  return raw(key, std::to_string(v));
}
Json& Json::boolean(const std::string& key, bool v) {
  return raw(key, v ? "true" : "false");
}
Json& Json::str(const std::string& key, const std::string& v) {
  return raw(key, json_string(v));
}
Json& Json::raw(const std::string& key, std::string encoded) {
  fields_.emplace_back(key, std::move(encoded));
  return *this;
}
Json& Json::summary(const std::string& key, const Summary& s) {
  Json j;
  j.num("median", s.median);
  char pct[16];
  std::snprintf(pct, sizeof pct, "p%g", s.tail_pct);
  j.num(pct, s.tail).integer("n", static_cast<std::int64_t>(s.n));
  return obj(key, j);
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::uint64_t ratings_checksum(const hcc::data::RatingMatrix& m,
                               std::uint64_t seed) {
  std::uint64_t h = seed;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& e : m.entries()) {
    mix(&e.u, sizeof e.u);
    mix(&e.i, sizeof e.i);
    mix(&e.r, sizeof e.r);
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// A fixed dependent floating-point loop (no memory traffic), so its wall
// time measures how much CPU a thread actually gets.
double spin(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

// Runs `threads` copies of the spin at once; returns the wall seconds.
double spin_wall(unsigned threads, std::uint64_t iters) {
  std::vector<std::thread> pool;
  std::vector<double> sink(threads);
  const double t0 = now_s();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, iters] { sink[t] = spin(iters); });
  }
  for (auto& th : pool) th.join();
  const double wall = now_s() - t0;
  volatile double keep = sink[0];
  (void)keep;
  return wall;
}

}  // namespace

Json host_facts() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Effective cores: nproc copies of a fixed spin run concurrently, against
  // one copy alone; the throughput ratio is how many cores the host really
  // delivered to this process (best of three, about 0.1 s each).
  const std::uint64_t iters = 20'000'000;
  double one = 1e30;
  double all = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, spin_wall(1, iters));
    all = std::min(all, spin_wall(nproc, iters));
  }
  Json j;
  j.integer("nproc", nproc)
      .num("effective_cores", all > 0.0 ? nproc * one / all : 0.0)
      .str("simd_isa", hcc::simd::isa_name(hcc::simd::active_isa()))
      .str("build_type", BENCH_E2E_BUILD_TYPE)
#ifdef NDEBUG
      .boolean("assertions", false);
#else
      .boolean("assertions", true);
#endif
  return j;
}

}  // namespace bench
