// Serving side of the benchmark: an open-loop top-N query stream at a few
// fixed rates against a SnapshotRegistry, optionally beside a writer thread
// that re-encodes and republishes snapshots on a fixed period.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "mf/model.hpp"
#include "mf/recommend.hpp"
#include "serve/foldin.hpp"
#include "serve/snapshot.hpp"
#include "workloads.hpp"

namespace bench {

/// One query in this many is a cold start: fold_in, then top_k_row.
inline constexpr std::size_t kFoldInEvery = 20;

struct ServeInputs {
  std::shared_ptr<serve::SnapshotRegistry> registry;  ///< already published
  const mf::SeenIndex* seen = nullptr;   ///< training ratings per user
  std::uint32_t users = 0;
  /// Cold-start profiles: each is one held-out user's ratings.
  std::vector<std::vector<serve::FoldInRating>> cold_profiles;
  /// The factor sets served: a snapshot with epoch e holds the int8
  /// encoding of models[e % models.size()].  The writer alternates them.
  std::vector<const mf::FactorModel*> models;
};

struct RatePhase {
  double rate_qps = 0.0;
  std::size_t attempted = 0;  ///< queries due in the phase
  std::size_t errors = 0;     ///< threw, or returned a short list
  std::size_t refused = 0;    ///< not started: already 2 s past due
  std::size_t late = 0;       ///< completed above the latency limit
  Summary latency_ms;         ///< due time to completion
  /// p99 of latency_ms: the lower quartile (third-lowest) of the
  /// nearest-rank p99s of ten equal due-time windows, so host stalls in most
  /// windows cannot move it.
  double p99_ms = 0.0;
  double p99_all_ms = 0.0;    ///< nearest-rank p99 over the whole phase
  std::vector<double> window_p99_ms;  ///< ascending
  double achieved_qps = 0.0;  ///< completed / (last completion - start)
  double drain_ms = 0.0;      ///< last completion after the phase's end
  bool ok = false;  ///< p99 within limit, none refused or failed, no backlog
};

struct ServeResult {
  std::vector<RatePhase> phases;
  std::size_t middle = 0;     ///< index of the middle rate
  double ok_rate_qps = 0.0;   ///< achieved rate at the highest ok rate
  std::size_t attempted = 0;
  std::size_t errors = 0;
  std::size_t writer_publishes = 0;
  // Outside-timed per-call samples (traced runs only, except the writer's).
  std::vector<double> queue_ms, gen_lag_ms, topk_ms, foldin_ms;
  std::vector<double> encode_ms, swap_us, publish_ms;
  // Engine top-N against a brute-force top-N over the same decoded store.
  std::size_t exact_checked = 0;
  std::size_t exact_mismatches = 0;
};

/// Runs every rate of `plan` back to back.  `traced` adds the per-call
/// timestamps behind the serve.* layer metrics.
ServeResult run_serve(const ServePlan& plan, const ServeInputs& in,
                      std::uint64_t seed, bool traced);

/// Recall of the top-10 lists served from `store` against the exact top-10
/// from `exact`, over `samples` seeded users (seen items excluded).
double recall_at_10(const serve::ModelSnapshot& store,
                    const serve::ModelSnapshot& exact,
                    const mf::SeenIndex& seen, std::size_t samples,
                    std::uint64_t seed);

/// Outside timings of one full-catalog scan, in milliseconds, all taken on
/// one idle thread: the whole TopKEngine::top_k_row call, and its
/// FactorStore::decode_q_rows and simd score_block parts over every item.
struct ScanParts {
  double topk_ms = 0.0;
  double decode_ms = 0.0;
  double score_ms = 0.0;
};
ScanParts time_scan_parts(const serve::ModelSnapshot& snapshot);

}  // namespace bench
