// The one parameter-server epoch loop (Section 3.1, Figure 4).
//
// A run is: orient the matrix (row grid; wide matrices train transposed),
// grid it by the shares, seed the model, then per epoch let every worker
// pull -> compute -> push through the EpochExecutor and sync at the
// server, checkpointing at the cadence.  HccMf::train drives its CPU/GPU
// workers through this loop; the hierarchical trainer drives its cluster
// nodes through the same loop one level up, each node a TrainWorker that
// runs `local_epochs` SGD passes per compute.  Recovery policy therefore
// lives here only:
//
//  - fault::WorkerFault: the worker is marked dead, its rows go to the
//    survivors by their (renormalized) shares, the merge weights are
//    re-derived and the model rolls back to the latest checkpoint.  The
//    fault is rethrown when no other worker is alive.
//  - fault::DivergenceError: the model rolls back to the latest checkpoint
//    with a halved learning rate, at most fault.max_rollbacks times.
//
// Checkpoints are kept whenever the fault runtime is active or the
// divergence guard is armed.  What is the trainer's own (timing, drift,
// deadlines, eval, snapshots; node shares, joins, membership) stays in the
// trainer, in the Hooks below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/epoch_executor.hpp"
#include "core/hccmf.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "fault/checkpoint.hpp"
#include "fault/recovery.hpp"
#include "obs/drift.hpp"
#include "sim/perf_model.hpp"
#include "util/thread_pool.hpp"

namespace hcc::core {

class EpochDriver {
 public:
  /// One worker of the run: its display name and pipeline depth.
  struct Slot {
    std::string name;
    std::uint32_t streams = 1;
  };

  /// The trainer's own stages around the shared loop.
  struct Hooks {
    /// Runs after the injector's begin_epoch, before the epoch body; a
    /// true return restarts the loop at epoch() (the hook rewound it).
    std::function<bool(std::uint32_t epoch)> before_epoch;
    /// The epoch body; it calls step() once.  Faults it throws are
    /// recovered by the driver.
    std::function<void(std::uint32_t epoch)> epoch;
    /// A worker was declared dead in `epoch` (before the rollback).
    std::function<void(std::uint32_t worker, std::uint32_t epoch)> worker_lost;
  };

  /// Keeps the settings `config` shares across trainers: sgd, comm, exec,
  /// schedule, fault, host_threads and dataset_name.  A chaos link and the
  /// fault injector then run one plan: whichever side was configured feeds
  /// the other.  `local_passes` > 1 disables work stealing.
  explicit EpochDriver(HccMfConfig config, std::uint32_t local_passes = 1);

  EpochDriver(const EpochDriver&) = delete;
  EpochDriver& operator=(const EpochDriver&) = delete;

  /// The config with the plans synced.
  const HccMfConfig& config() const noexcept { return config_; }

  /// Row-grid orientation: a matrix with more columns than rows trains
  /// transposed ("Transmitting P only" is Q-only on the transpose); `test`
  /// is re-pointed at a transposed copy then.  Sets shape().
  data::RatingMatrix orient(const data::RatingMatrix& train,
                            const data::RatingMatrix*& test);
  const sim::DatasetShape& shape() const noexcept { return shape_; }

  /// Grids `matrix` by `shares`, seeds the model at the mean rating,
  /// builds the server (resolve_stripes) and one worker per slot, and
  /// derives the merge weights.
  void build(data::RatingMatrix matrix, std::vector<double> shares,
             std::vector<Slot> slots);

  /// A join's full repartition: rebuilds every worker from `matrix` split
  /// by `shares`, then rolls back to the latest checkpoint.
  void repartition(data::RatingMatrix matrix, std::vector<double> shares);

  /// Runs epochs until sgd.epochs have completed.
  void run(const Hooks& hooks);

  /// One epoch of every alive worker through the executor, then the
  /// learning-rate decay and the gauge harvest.  Returns each worker's
  /// measured phase times.
  std::vector<obs::PhaseTimes> step();

  /// Re-admits a dead worker (call repartition() next).
  void readmit(std::uint32_t worker) { alive_[worker] = true; }

  Server& server() noexcept { return *server_; }
  const std::vector<TrainWorker>& workers() const noexcept { return workers_; }
  const std::vector<bool>& alive() const noexcept { return alive_; }
  const std::vector<double>& live_shares() const noexcept {
    return live_shares_;
  }
  /// Worker ids in order of death.
  const std::vector<std::uint32_t>& dead_workers() const noexcept {
    return dead_;
  }
  fault::FaultRuntime& fault_runtime() noexcept { return fault_rt_; }
  /// The next epoch to run (sgd.epochs once run() returns).
  std::uint32_t epoch() const noexcept { return epoch_; }

 private:
  std::vector<data::RatingMatrix> grid_by_shares(
      data::RatingMatrix matrix) const;
  void make_workers(std::vector<data::RatingMatrix> slices);
  /// Per-item merge weights: worker w's fraction of each item's ratings
  /// over the alive workers.  Items rated inside a single worker's slice
  /// merge at weight 1 (the serial update, exactly); contested items
  /// combine proportionally.
  void refresh_item_weights();
  /// Rewinds model, learning rate and epoch to the latest checkpoint;
  /// false when there is none.
  bool restore();
  /// Drops the phase times a failed epoch left behind.
  void discard_measured();
  bool recover(std::uint32_t victim, const Hooks& hooks);
  void roll_back(std::uint32_t worker);

  HccMfConfig config_;
  std::uint32_t local_passes_;
  fault::FaultRuntime fault_rt_;
  fault::CheckpointStore ckpts_;
  bool checkpointing_;
  sim::DatasetShape shape_;
  data::RatingMatrix test_local_;  ///< transposed test set (orient)
  std::unique_ptr<Server> server_;
  std::vector<Slot> slots_;
  std::vector<TrainWorker> workers_;
  std::vector<bool> alive_;
  std::vector<double> live_shares_;
  std::vector<std::uint32_t> dead_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<EpochExecutor> executor_;
  float lr_;
  std::uint32_t epoch_ = 0;
  std::uint32_t rollbacks_ = 0;
};

}  // namespace hcc::core
