// The parameter server (Section 3.1 / 3.5).
//
// Owns the global feature matrices and the synchronization step: every
// worker push is merged into the global Q with one multiply-add per feature
// against the snapshot that worker pulled — this resolves the write-after-
// write races between workers that share Q columns (the reason the paper's
// design keeps a synchronizing server at all).
//
// Under the concurrent epoch executor (core/epoch_executor.hpp) several
// workers push at once, so Q is partitioned into row-range *stripes* with
// one mutex each: two workers merging into different stripes proceed in
// parallel instead of serializing the whole T_sync term, and a sparse
// worker locks only the stripes containing its touched rows.  The serial
// executor runs with 1 stripe, where the merge loop (and its float
// arithmetic order) is exactly the pre-striping code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/strategy.hpp"
#include "mf/model.hpp"
#include "obs/metrics.hpp"
#include "serve/snapshot.hpp"

namespace hcc::core {

/// Functional parameter server.
class Server {
 public:
  /// Takes ownership of the initialized global model.  `stripes` partitions
  /// Q's item rows into that many lock domains for concurrent merges (see
  /// file comment); it is clamped to [1, items] and defaults to the legacy
  /// single-lock behaviour.
  Server(mf::FactorModel global, const comm::CommConfig& config,
         std::uint32_t stripes = 1);

  mf::FactorModel& model() noexcept { return global_; }
  const mf::FactorModel& model() const noexcept { return global_; }

  /// The server-side codec (the final P&Q roundtrip and legacy callers).
  /// Non-const: sub-FP16 codecs mutate stream state on every transfer.
  comm::Codec& codec() noexcept { return *codec_; }

  std::uint32_t stripes() const noexcept { return n_stripes_; }

  /// Merges one worker's pushed Q into the global Q with one multiply-add
  /// per feature parameter (Eq. 3's sync cost):
  ///   global[j] += weight * (pushed[j] - snapshot[j])
  /// where `snapshot` is the Q state that worker received at its pull and
  /// `weight` is the worker's data share x_i.  Share-weighting makes the
  /// merged Q a convex combination of the workers' results, which resolves
  /// the write-after-write races between workers that trained the same Q
  /// rows concurrently (the reason the paper keeps a synchronizing server)
  /// without over-applying popular rows' gradients p-fold.
  ///
  /// `touched` (optional, ascending item ids) limits the merge to stripes
  /// intersecting those rows — the sparse-push fast path.  Skipped rows MUST carry a zero delta (pushed == snapshot),
  /// which is exactly what TrainWorker's snapshot staging guarantees.
  /// Empty means merge everything (the deterministic legacy order).
  void sync_q(std::span<const float> pushed, std::span<const float> snapshot,
              float weight = 1.0f,
              std::span<const std::uint32_t> touched = {});

  /// Merge with per-item weights (one weight per Q row, i.e. per item):
  ///   global[item][f] += item_weights[item] * (pushed - snapshot)[item][f]
  /// The DataManager derives each worker's item weight from its share of
  /// that item's ratings, so an item rated only inside one worker's row
  /// slice merges at weight 1 (exactly the serial update), while items
  /// contested by several workers combine proportionally to their data.
  /// Still Eq. 3's one multiply-add per parameter — the weights are
  /// precomputed once per training run (the grid is static).
  void sync_q(std::span<const float> pushed, std::span<const float> snapshot,
              std::span<const float> item_weights,
              std::span<const std::uint32_t> touched = {});

  /// Stripe-locked full copy of the global Q into `dst` — the pull-side
  /// counterpart of the striped merge, safe against concurrent sync_q
  /// calls.  Resizes `dst` to Q's size.
  void read_q(std::vector<float>& dst);

  /// Stripe-locked gather of the given Q rows (ascending item ids) into
  /// `packed` (resized to rows.size() * k) — the sparse pull under
  /// concurrent execution.
  void gather_q_rows(std::span<const std::uint32_t> rows,
                     std::vector<float>& packed);

  /// Emulates transmitting P through the wire codec (the final P&Q push):
  /// every P value is replaced by its encode/decode round trip, so FP16's
  /// quantization shows up in the delivered model exactly once, like the
  /// real system.
  void roundtrip_p_through_codec();

  /// Attaches the serving publish hook: subsequent publish_snapshot()
  /// calls encode the global model as `kind` and swap it into `registry`
  /// (which the caller keeps alive for the server's lifetime).
  void attach_snapshots(serve::SnapshotRegistry* registry,
                        serve::StoreKind kind) noexcept {
    snapshots_ = registry;
    snapshot_kind_ = kind;
  }
  serve::SnapshotRegistry* snapshots() const noexcept { return snapshots_; }

  /// Encodes the current global P/Q into an immutable serve::ModelSnapshot
  /// tagged `epoch` and publishes it.  Q is copied under the stripe locks
  /// (safe against concurrent sync_q); P is read directly, so callers must
  /// only publish when P writers are parked — the epoch-boundary barrier
  /// in HccMf::train, where every row is quiescent.  No-op when no
  /// registry is attached.  Readers of previously published snapshots are
  /// never blocked: they hold their own references.
  void publish_snapshot(std::uint32_t epoch);

  /// Number of sync_q merges performed (tests assert one per worker-push).
  std::uint64_t sync_count() const noexcept {
    return sync_count_.load(std::memory_order_relaxed);
  }

  /// Wall-clock seconds spent merging — the measured counterpart of
  /// Eq. 3's T_sync, across all workers (and, under the concurrent
  /// executor, all pushing threads).
  double measured_sync_s() const noexcept {
    return measured_sync_s_.load(std::memory_order_relaxed);
  }

  /// Times a stripe lock was contended (try_lock failed) / acquired, since
  /// construction.  Only counted when striping is on (stripes > 1); the
  /// single-stripe path is the uncontended legacy loop.
  std::uint64_t stripe_contention() const noexcept {
    return stripe_contention_.load(std::memory_order_relaxed);
  }
  std::uint64_t stripe_locks() const noexcept {
    return stripe_locks_.load(std::memory_order_relaxed);
  }

 private:
  struct Stripe {
    std::mutex mutex;
  };

  /// Item-row range [lo, hi) of stripe `s`.
  std::pair<std::uint32_t, std::uint32_t> stripe_rows(std::uint32_t s) const;

  /// Locks stripe `s` (counting contention when striped) and returns the
  /// guard.
  std::unique_lock<std::mutex> lock_stripe(std::uint32_t s);

  /// True when `touched` (ascending, possibly empty = all) has an item in
  /// [lo, hi).
  static bool intersects(std::span<const std::uint32_t> touched,
                         std::uint32_t lo, std::uint32_t hi);

  mf::FactorModel global_;
  std::unique_ptr<comm::Codec> codec_;
  std::uint32_t n_stripes_ = 1;
  std::uint32_t rows_per_stripe_ = 0;
  std::unique_ptr<Stripe[]> stripes_;
  std::atomic<std::uint64_t> sync_count_{0};
  std::atomic<double> measured_sync_s_{0.0};
  std::atomic<std::uint64_t> stripe_contention_{0};
  std::atomic<std::uint64_t> stripe_locks_{0};
  /// Registry counters, resolved only when striping is on so single-stripe
  /// (serial) runs leave the metrics registry untouched.
  obs::Counter* contention_counter_ = nullptr;
  obs::Counter* locks_counter_ = nullptr;
  serve::SnapshotRegistry* snapshots_ = nullptr;
  serve::StoreKind snapshot_kind_ = serve::StoreKind::kFp32;
  std::vector<float> publish_scratch_;  // Q copy staging for publish_snapshot
};

}  // namespace hcc::core
