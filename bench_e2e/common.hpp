// Shared plumbing of the end-to-end benchmark: wall-clock timing, the
// percentile rule every timing is reported with, a minimal JSON writer and
// the host facts stamped into each report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/rating_matrix.hpp"

namespace hcc::core {}
namespace hcc::mf {}
namespace hcc::serve {}

namespace bench {

namespace core = hcc::core;
namespace data = hcc::data;
namespace mf = hcc::mf;
namespace serve = hcc::serve;

/// Host wall-clock seconds on a monotonic clock.  Every number the
/// benchmark reports is measured with it; nothing reads the simulator's
/// virtual clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A timing distribution: the median plus the highest percentile from
/// {p99.9, p99, p90, p75} that still has at least ten samples beyond it
/// (p50 when fewer than twenty samples exist), with the sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;  ///< which percentile `tail` is
  std::size_t n = 0;
};

/// Nearest-rank percentile of an already sorted sample (p in [0, 100]).
double percentile_sorted(const std::vector<double>& sorted, double p);
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);

/// An ordered JSON object built from already-encoded values.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& raw(const std::string& key, std::string encoded);
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.dump());
  }
  Json& summary(const std::string& key, const Summary& s);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

/// FNV-1a over every (u, i, r) triple, in storage order.
std::uint64_t ratings_checksum(const hcc::data::RatingMatrix& m,
                               std::uint64_t seed = 1469598103934665603ULL);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Host facts: nproc, a measured effective-core probe, SIMD ISA, build type.
Json host_facts();

}  // namespace bench
