// Functional worker (Section 3.1's steps 5-7).
//
// A worker owns a contiguous row slice of the rating matrix (its grid
// assignment), a private local copy of Q, and its own COMM channel to the
// server.  One epoch is pull -> asynchronous SGD over the slice -> push.
// P rows inside the slice are exclusive to this worker under a row grid, so
// it updates the global P in place — exactly why "Transmitting Q only"
// loses nothing (Section 3.4, Strategy 1).
//
// The epoch executor (core/epoch_executor.hpp) runs each worker's whole
// chunked pipeline via run_pipeline(), inline under kSerial or on a
// dedicated thread under kParallel; concurrent dense pulls then go through
// the server's stripe-locked readers (safe against concurrent merges), and
// with double-buffering on, chunk c+1's pull runs on a prefetch thread
// overlapping chunk c's compute (Strategy 3's copy-engine overlap).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/pipeline.hpp"
#include "comm/strategy.hpp"
#include "core/server.hpp"
#include "core/steal_queue.hpp"
#include "data/rating_matrix.hpp"
#include "data/schedule.hpp"
#include "fault/recovery.hpp"
#include "obs/drift.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace hcc::core {

/// One collaborative-computing worker (CPU or GPU role; the role only
/// matters to the timing layer — functionally both run the same ASGD).
class TrainWorker {
 public:
  /// `slice` holds this worker's ratings (global coordinates); `streams`
  /// chunks the epoch into that many pull-compute-push pipeline stages
  /// (Strategy 3's functional effect: fresher Q, more sync rounds).
  TrainWorker(std::uint32_t id, std::string device_name,
              data::RatingMatrix slice, const comm::CommConfig& config,
              std::uint32_t streams = 1);

  TrainWorker(TrainWorker&&) = default;
  TrainWorker& operator=(TrainWorker&&) = default;

  ~TrainWorker();

  std::uint32_t id() const noexcept { return id_; }
  const std::string& device_name() const noexcept { return device_name_; }
  std::size_t assigned_nnz() const noexcept { return slice_.nnz(); }
  std::uint32_t streams() const noexcept { return streams_; }

  /// Items this worker's slice actually rates; under sparse push (see
  /// comm::CommConfig::sparse) only these Q rows travel.
  std::size_t touched_items() const noexcept { return touched_.size(); }

  /// Tells the worker whether peers run concurrently: under `parallel` a
  /// dense pull copies Q out through the server's stripe-locked reader
  /// (serially it reads the model in place, saving the staging copy), and
  /// `double_buffer` overlaps chunk c+1's pull with chunk c's compute
  /// (streams >= 2 only).
  void set_exec(bool parallel, bool double_buffer);

  /// SGD passes over each chunk per compute (default 1).  A cluster node
  /// runs its `local_epochs` passes between global syncs through this.
  void set_local_passes(std::uint32_t passes) noexcept {
    local_passes_ = std::max(1u, passes);
  }

  /// Arms the cache-aware rating scheduler (data/schedule.hpp).  `k` is the
  /// factor rank (sets the tile working-set size).  The worker id is mixed
  /// into the seed so workers do not reorder in lockstep.  Default-armed
  /// with kAsIs, which keeps prepare_epoch() a guaranteed no-op.
  void set_schedule(const data::ScheduleOptions& options, std::uint32_t k);

  /// Reorders this worker's slice for the upcoming epoch (internal epoch
  /// counter).  Must run before the epoch's first compute, on the thread
  /// that then runs the pipeline (under kParallel first-touch keeps the
  /// reordered entries NUMA-local).  kAsIs leaves the slice bit-identical
  /// and records nothing.
  void prepare_epoch();

  /// What the last prepare_epoch() did (tiles, spans, reorder wall time).
  /// Read it between epochs (from the harvest loop), never mid-pipeline.
  const data::ScheduleStats& schedule_stats() const noexcept {
    return sched_stats_;
  }

  /// Pulls the global Q through this worker's COMM channel (one wire copy)
  /// and snapshots it for the later delta merge.
  void pull(Server& server);

  /// Runs ASGD over chunk `chunk` (of `streams` chunks) of the slice,
  /// `local_passes` times: updates global P rows in place and the local Q
  /// copy.  `pool` provides the worker's thread pool (nullptr =
  /// single-threaded).
  void compute_chunk(Server& server, std::uint32_t chunk, float lr,
                     float reg_p, float reg_q, util::ThreadPool* pool);

  /// Pushes the local Q through the COMM channel and has the server merge
  /// the delta against this worker's pull snapshot, weighted by this
  /// worker's data share (see Server::sync_q).
  void push(Server& server);

  /// Cuts this worker's (schedule-prepared) slice into ~target_ratings
  /// chunks for the work-stealing executor: tile-aligned cuts under the
  /// tiled schedule (ScheduleStats::tile_offsets), user-row-aligned cuts
  /// otherwise.  Call after prepare_epoch(), on the worker's own thread.
  std::vector<WorkChunk> make_chunks(std::size_t target_ratings) const;

  /// ASGD over entries [lo, hi) of this worker's own slice — the owned-
  /// chunk unit of the stealing executor.  Same inner loop as
  /// compute_chunk, but the range comes from the chunk queue and the
  /// divergence guard is deferred to guard_divergence() before push (one
  /// O(|Q|) scan per epoch instead of per chunk).
  void compute_own_range(Server& server, std::size_t lo, std::size_t hi,
                         float lr, float reg_p, float reg_q,
                         util::ThreadPool* pool);

  /// Runs a chunk stolen from `victim` (entries [lo, hi) of the *victim's*
  /// slice): gathers the touched Q rows from the server into a private
  /// scratch, then runs the SGD with an asymmetric write policy —
  ///
  ///  * P rows update in place at full strength.  They are the victim's
  ///    exclusive rows (the scheduler's row claim keeps every other
  ///    in-flight chunk off them), and advancing them is exactly the work
  ///    the straggler sheds.
  ///  * Q movement stays in the scratch and is *discarded* at chunk end.
  ///    The shared items' per-epoch movement budget is already allocated
  ///    to the replicas' weighted pushes; adding the stolen delta through
  ///    any other path over-steps it.  Measured on the 4-worker netflix
  ///    bench (~200 steals): a mid-epoch stripe-locked merge at the
  ///    victim's weights degraded final RMSE 0.32 -> 0.45 (1.0 weight:
  ///    1.7), folding the delta into the victim's replica for its own push
  ///    diverged outright (parallel same-origin deltas sum instead of
  ///    chaining), while discarding holds 0.324 parity even at 1000+
  ///    steals and under 4x real stalls.
  ///
  /// The scratch still *evolves* within the chunk, so consecutive updates
  /// of one item inside the chunk see each other, like a sequential pass.
  void compute_stolen(Server& server, const TrainWorker& victim,
                      std::size_t lo, std::size_t hi, float lr, float reg_p,
                      float reg_q);

  /// The compute_chunk divergence check, callable standalone: throws
  /// fault::DivergenceError when the guard is armed and local Q has gone
  /// non-finite.  The stealing executor runs it once, pre-push.
  void guard_divergence() const { guard_divergence(local_q_); }

  /// One whole epoch of this worker — pull, then per chunk compute+push,
  /// with the next chunk's pull prefetched during compute when
  /// double-buffering is on.  This is the unit the concurrent executor
  /// runs on the worker's dedicated thread; faults thrown anywhere in the
  /// pipeline (including on the prefetch thread) propagate out after the
  /// prefetch thread is quiesced.
  void run_pipeline(Server& server, float lr, float reg_p, float reg_q,
                    util::ThreadPool* pool);

  /// Arms the fault-tolerance hooks: scheduled kill/corrupt injection,
  /// wire checksums, bounded retry on checksum failure, and the post-chunk
  /// divergence guard.  `runtime` must outlive the worker; nullptr disarms.
  /// When the runtime is idle (no plan, no checkpoint dir) the only hook
  /// left on is the divergence guard, which changes nothing unless a
  /// non-finite value actually appears.
  void set_fault_runtime(fault::FaultRuntime* runtime);

  /// Timing-layer stall composition: scales the *recorded* phase seconds
  /// (measured_ and the histograms) by `factor` without slowing the actual
  /// computation — a stalled worker produces identical results, later.
  void set_stall_factor(double factor) noexcept {
    stall_factor_ = factor > 0.0 ? factor : 1.0;
  }

  /// Real stalls (fault::FaultOptions::real_stalls): the compute phases
  /// sleep (stall_factor - 1) x their measured time on this thread, and the
  /// recorded seconds are then taken as-is (no multiplier — the wall clock
  /// already contains the stall).  Results stay bit-identical either way;
  /// only time moves.
  void set_real_stalls(bool on) noexcept { real_stalls_ = on; }

  /// This worker's rating slice (global coordinates).
  const data::RatingMatrix& slice() const noexcept { return slice_; }

  /// Degraded-mode repartition: appends a dead worker's entries to this
  /// worker's slice and refreshes the touched-item set.  The caller must
  /// re-derive per-item merge weights afterwards.
  void absorb_entries(const std::vector<data::Rating>& entries);

  /// Sets per-item merge weights (this worker's fraction of each item's
  /// ratings); without them every item merges at weight 1.  See
  /// Server::sync_q(pushed, snapshot, item_weights).
  void set_item_weights(std::vector<float> weights) {
    item_weights_ = std::move(weights);
  }

  /// Wire-transfer accounting for this worker's channel.
  const comm::TransferStats& comm_stats() const { return backend_->stats(); }

  /// Returns the wall-clock seconds this worker has spent in each phase
  /// since the last take (one epoch's harvest) and resets them — the
  /// runtime-observed counterpart of the paper's T_pull/T_c/T_push/T_sync
  /// decomposition.  pull/compute/push accumulate inside the instrumented
  /// methods; sync is the server merge time this worker's pushes consumed.
  obs::PhaseTimes take_measured() noexcept {
    obs::PhaseTimes out = measured_;
    measured_ = {};
    return out;
  }

  /// Ratings this worker actually computed since the last take (its own
  /// chunks plus anything it stole) — the numerator of effective_gbps once
  /// stealing decouples work done from work assigned.
  std::size_t take_computed() noexcept {
    const std::size_t out = computed_;
    computed_ = 0;
    return out;
  }

 private:
  /// Sizes every staging buffer for the current slice/mode once, so the
  /// per-epoch pull/push paths never reallocate (they assert instead).
  void ensure_buffers(Server& server);

  /// The shared body of pull()/the prefetch: wire-transfers the global Q
  /// into `q_dst` and snapshots the received state into `snap_dst`.  Sparse
  /// and concurrent dense reads go through the server's stripe-locked
  /// readers.
  void pull_into(Server& server, util::AlignedFloats& q_dst,
                 std::vector<float>& snap_dst);

  /// Launches the prefetch thread pulling the *next* chunk's Q into the
  /// back buffers; join_prefetch() quiesces it and rethrows anything it
  /// threw (fault injection fires there too).  swap_buffers() promotes the
  /// prefetched Q to the front.
  void start_prefetch(Server& server);
  void join_prefetch();
  void swap_buffers();

  /// The prefetched Q was read before this chunk's push landed on the
  /// server, so it is stale by exactly the (weighted) delta we just merged.
  /// Folds that delta into *both* back buffers: compute sees its own
  /// updates one chunk sooner, and because local and snapshot shift
  /// together the next push delta — hence the server — is unaffected.
  void fold_own_delta(std::uint32_t k);

  /// Gathers this worker's touched Q rows into `packed`, or scatters them
  /// back; the sparse-push wire format (Strategy 4, extension).
  void gather_touched(std::span<const float> q, std::vector<float>& packed,
                      std::uint32_t k) const;
  void scatter_touched(const std::vector<float>& packed, std::span<float> q,
                       std::uint32_t k) const;

  /// Recomputes touched_ from the slice (after absorb_entries).
  void rebuild_touched();

  /// The worker's delivery-retry policy, handed to the stream pipelines:
  /// bounded retry + exponential backoff on checksum failure, giving up
  /// with fault::TransferFailure.  Safe for stateful codecs: their state
  /// commits at decode, which a checksum failure precedes, so the retry
  /// re-sends byte-identical wire (per chunk, under a depth > 1 pipeline).
  comm::StreamPipeline::RetryFn retry_policy();

  /// The shared ASGD inner loop over `entries[lo, hi)` against this
  /// worker's local Q (global P in place) — the body of compute_chunk and
  /// compute_own_range.
  void sgd_over_own(Server& server, std::span<const data::Rating> entries,
                    std::size_t lo, std::size_t hi, float lr, float reg_p,
                    float reg_q, util::ThreadPool* pool);

  /// Throws fault::DivergenceError when the guard is armed and `q` holds a
  /// non-finite value.
  void guard_divergence(std::span<const float> q) const;

  /// Records one phase's wall-clock seconds (stall-inflated, unless the
  /// stall was already real — see set_real_stalls).
  void record_phase(double seconds, double obs::PhaseTimes::*field,
                    obs::Histogram* hist);

  /// Sleeps (stall_factor - 1) x `elapsed_s` when real stalls are armed;
  /// called at the end of a compute phase, inside its span.
  void apply_real_stall(double elapsed_s) const;

  std::uint32_t id_;
  std::string device_name_;
  obs::PhaseTimes measured_;
  /// Per-worker phase histograms, resolved once (registry lookups lock).
  obs::Histogram* hist_pull_ = nullptr;
  obs::Histogram* hist_compute_ = nullptr;
  obs::Histogram* hist_push_ = nullptr;
  obs::Histogram* hist_sync_ = nullptr;
  /// Process-wide count of dispatched SGD updates (simd.sgd_updates);
  /// bumped once per chunk, not per rating.
  obs::Counter* counter_updates_ = nullptr;
  data::RatingMatrix slice_;
  std::uint32_t streams_;
  std::uint32_t local_passes_ = 1;
  bool sparse_ = false;
  bool parallel_ = false;       ///< peers run concurrently (dense pull path)
  bool double_buffer_ = false;  ///< overlap next pull with current compute
  std::vector<std::uint32_t> touched_;  ///< items this slice rates (sparse)
  std::vector<float> item_weights_;
  fault::FaultRuntime* fault_ = nullptr;
  double stall_factor_ = 1.0;
  bool real_stalls_ = false;
  std::size_t computed_ = 0;  ///< ratings computed since take_computed()
  data::RatingScheduler scheduler_;    ///< kAsIs by default (no-op)
  std::uint32_t sched_epoch_ = 0;      ///< epochs prepared so far
  data::ScheduleStats sched_stats_;    ///< last prepare_epoch() result
  std::uint32_t last_chunk_ = 0;  ///< chunk index the pending push covers
  std::unique_ptr<comm::CommBackend> backend_;
  /// Kept to build the per-direction pipelines once the rank k is known
  /// (ensure_buffers), so quantized codecs get one absmax scale per Q row.
  comm::CommConfig comm_config_;
  /// This worker's wire paths, one StreamPipeline per direction: the
  /// sub-FP16 codecs are stateful delta coders, so pull and push are
  /// separate streams, and sharing the server's instance across workers
  /// would interleave them.  At depth 1 each pipeline is exactly the old
  /// single-codec transfer; at depth > 1 it streams row-aligned chunks.
  /// The epoch pipeline orders every use (prefetch pulls happen-before the
  /// next push via join_prefetch), so no locking is needed.
  std::unique_ptr<comm::StreamPipeline> pull_pipe_;
  std::unique_ptr<comm::StreamPipeline> push_pipe_;
  /// 64-byte-aligned: the SGD inner loop streams over these Q rows.
  util::AlignedFloats local_q_;
  std::vector<float> snapshot_q_;
  /// Back buffers the prefetch thread fills (double-buffering only).
  util::AlignedFloats local_q_back_;
  std::vector<float> snapshot_q_back_;
  std::vector<float> pull_staging_;  ///< stripe-locked dense read landing
  std::vector<float> push_staging_;
  std::vector<float> packed_send_;
  std::vector<float> packed_recv_;
  std::thread prefetch_thread_;
  std::exception_ptr prefetch_error_;
  /// Thief-private scratch for stolen chunks: the unique touched items, a
  /// packed Q working copy, and an item -> packed slot index.  Reused
  /// across steals, so steady-state steals allocate nothing.
  std::vector<std::uint32_t> steal_items_;
  std::vector<float> steal_q_;
  std::vector<std::uint32_t> steal_index_;
};

}  // namespace hcc::core
