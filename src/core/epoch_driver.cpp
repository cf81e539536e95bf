#include "core/epoch_driver.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/adaptive.hpp"
#include "data/grid.hpp"
#include "fault/errors.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {

HccMfConfig with_synced_plans(HccMfConfig config) {
  if (config.comm.transport.kind == comm::TransportKind::kChaos) {
    if (config.comm.transport.plan.empty()) {
      config.comm.transport.plan = config.fault.plan;
    } else if (config.fault.plan.empty()) {
      config.fault.plan = config.comm.transport.plan;
    }
  }
  return config;
}

}  // namespace

EpochDriver::EpochDriver(HccMfConfig config, std::uint32_t local_passes)
    : config_(with_synced_plans(std::move(config))),
      local_passes_(std::max(1u, local_passes)),
      fault_rt_(config_.fault),
      ckpts_(config_.fault.checkpoint_dir),
      checkpointing_(fault_rt_.active() || config_.fault.divergence_guard),
      lr_(config_.sgd.learn_rate) {
  // A stolen chunk is one SGD pass over part of a peer's slice; it has no
  // meaning for a worker that makes several passes between syncs.
  if (local_passes_ > 1) config_.exec.steal = false;
}

data::RatingMatrix EpochDriver::orient(const data::RatingMatrix& train,
                                       const data::RatingMatrix*& test) {
  const bool transpose = train.cols() > train.rows();
  data::RatingMatrix matrix = transpose ? train.transposed() : train;
  if (test != nullptr && transpose) {
    test_local_ = test->transposed();
    test = &test_local_;
  }
  shape_.name = config_.dataset_name;
  shape_.m = matrix.rows();
  shape_.n = matrix.cols();
  shape_.nnz = matrix.nnz();
  shape_.k = config_.sgd.k;
  return matrix;
}

std::vector<data::RatingMatrix> EpochDriver::grid_by_shares(
    data::RatingMatrix matrix) const {
  const auto grid = data::make_grid(matrix, data::GridKind::kRow, live_shares_);
  return data::assign_slices(std::move(matrix), data::GridKind::kRow, grid);
}

void EpochDriver::build(data::RatingMatrix matrix, std::vector<double> shares,
                        std::vector<Slot> slots) {
  slots_ = std::move(slots);
  live_shares_ = std::move(shares);
  // Step 2-3 of Figure 4: grid the data, hand each worker its slice.
  auto slices = grid_by_shares(std::move(matrix));

  // Mean rating for model init.
  double mean = 0.0;
  std::size_t nnz = 0;
  for (const auto& s : slices) {
    for (const auto& e : s.entries()) mean += e.r;
    nnz += s.nnz();
  }
  mean = nnz > 0 ? mean / static_cast<double>(nnz) : 1.0;

  util::Rng rng(config_.sgd.seed);
  mf::FactorModel model(shape_.m, shape_.n, shape_.k);
  model.init_random(rng, static_cast<float>(mean));
  // Stripe count: always 1 under kSerial (no merge runs concurrently);
  // under kParallel the configured/auto count.
  const std::uint32_t stripes = resolve_stripes(
      config_.exec, static_cast<std::uint32_t>(shape_.n), slices.size());
  server_ = std::make_unique<Server>(std::move(model), config_.comm, stripes);

  alive_.assign(slices.size(), true);
  make_workers(std::move(slices));
  refresh_item_weights();
  if (config_.host_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(config_.host_threads);
  }
  // One executor serves the whole run; under kParallel its per-worker
  // threads spawn on the first epoch and park between epochs.
  executor_ = std::make_unique<EpochExecutor>(config_.exec, workers_.size());

  auto& reg = obs::registry();
  reg.gauge("exec.mode").set(config_.exec.mode == ExecMode::kParallel ? 1.0
                                                                     : 0.0);
  reg.gauge("exec.stripes").set(static_cast<double>(stripes));
  reg.gauge("exec.steal").set(config_.exec.steal ? 1.0 : 0.0);
  reg.gauge("sched.policy").set(
      static_cast<double>(static_cast<int>(config_.schedule.policy)));
  reg.gauge("sched.tile_kb").set(
      static_cast<double>(config_.schedule.tile_kb));
}

void EpochDriver::repartition(data::RatingMatrix matrix,
                              std::vector<double> shares) {
  live_shares_ = std::move(shares);
  make_workers(grid_by_shares(std::move(matrix)));
  refresh_item_weights();
  restore();
}

void EpochDriver::make_workers(std::vector<data::RatingMatrix> slices) {
  const bool parallel = config_.exec.mode == ExecMode::kParallel;
  workers_.clear();
  workers_.reserve(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    TrainWorker& w = workers_.emplace_back(
        static_cast<std::uint32_t>(i), slots_[i].name, std::move(slices[i]),
        config_.comm, slots_[i].streams);
    // With no plan and no checkpoint dir the runtime is inert — no
    // checksums, no extra wire bytes, no injections — and only the
    // divergence guard remains armed.
    w.set_fault_runtime(&fault_rt_);
    w.set_exec(parallel, config_.exec.double_buffer);
    w.set_schedule(config_.schedule, config_.sgd.k);
    w.set_real_stalls(config_.fault.real_stalls);
    w.set_local_passes(local_passes_);
  }
}

void EpochDriver::refresh_item_weights() {
  const std::size_t items = shape_.n;
  std::vector<std::size_t> totals(items, 0);
  std::vector<std::vector<std::size_t>> counts(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!alive_[w]) continue;
    counts[w] = workers_[w].slice().col_counts();
    for (std::size_t i = 0; i < items; ++i) totals[i] += counts[w][i];
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!alive_[w]) continue;
    std::vector<float> weights(items, 0.0f);
    for (std::size_t i = 0; i < items; ++i) {
      if (totals[i] > 0) {
        weights[i] = static_cast<float>(counts[w][i]) /
                     static_cast<float>(totals[i]);
      }
    }
    workers_[w].set_item_weights(std::move(weights));
  }
}

void EpochDriver::run(const Hooks& hooks) {
  // Checkpoints back both the divergence guard and worker-death recovery.
  // The copies happen outside the instrumented phase spans, so fault-free
  // epoch reports are unaffected.
  if (checkpointing_) {
    ckpts_.save({0, lr_, config_.sgd.seed, server_->model()});
  }
  while (epoch_ < config_.sgd.epochs) {
    fault_rt_.injector().begin_epoch(epoch_);
    if (hooks.before_epoch && hooks.before_epoch(epoch_)) continue;
    try {
      hooks.epoch(epoch_);
      ++epoch_;
      if (checkpointing_ && epoch_ % config_.fault.checkpoint_every == 0) {
        ckpts_.save({epoch_, lr_, config_.sgd.seed, server_->model()});
      }
    } catch (const fault::WorkerFault& dead) {
      if (!recover(dead.worker(), hooks)) throw;  // nothing to degrade to
    } catch (const fault::DivergenceError& div) {
      roll_back(div.worker());
    }
  }
}

std::vector<obs::PhaseTimes> EpochDriver::step() {
  if (fault_rt_.active()) {
    for (auto& w : workers_) {
      w.set_stall_factor(fault_rt_.injector().stall_factor(w.id(), epoch_));
    }
  }
  // pull -> compute -> push, chunked per worker by its stream depth
  // (Figure 6's pipelines; chunk boundaries act as the async syncs).
  // kSerial runs each worker's pipeline in turn on this thread, kParallel
  // on its own executor thread; both rethrow the highest-priority captured
  // fault here at the barrier, so recovery is shared by both modes.
  executor_->run_epoch(workers_, alive_, *server_, lr_, config_.sgd.reg_p,
                       config_.sgd.reg_q, pool_.get());
  lr_ *= config_.sgd.lr_decay;

  // Harvest on this (coordinator) thread after the barrier, so the gauges
  // see no concurrent read-modify-write: the epoch's reorder cost and
  // occupied tiles over the alive workers, and the effective bandwidth each
  // worker sustained — Eq. 2's B_i solved from the measured compute time
  // (the quantity the cache-aware schedule exists to raise).
  auto& reg = obs::registry();
  std::vector<obs::PhaseTimes> measured(workers_.size());
  double tiles = 0.0;
  double reorder_ms = 0.0;
  double min_gbps = 0.0;
  double max_gbps = 0.0;
  double sum_gbps = 0.0;
  std::size_t gbps_n = 0;
  double max_compute = 0.0;
  double sum_compute = 0.0;
  std::size_t compute_n = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const obs::PhaseTimes t = workers_[w].take_measured();
    // Under work stealing a worker's throughput is measured over what it
    // actually computed (own chunks + steals), not what the grid assigned
    // it; without stealing the two are identical.
    const std::size_t done = workers_[w].take_computed();
    measured[w] = t;
    if (alive_[w]) {
      const data::ScheduleStats& ss = workers_[w].schedule_stats();
      tiles += static_cast<double>(ss.tiles);
      reorder_ms += ss.reorder_ms;
    }
    if (alive_[w] && t.compute_s > 0.0 && done > 0) {
      const double bytes = static_cast<double>(done) * (16.0 * shape_.k + 4.0);
      const double gbps = bytes / t.compute_s / 1e9;
      reg.gauge("worker" + std::to_string(w) + ".effective_gbps").set(gbps);
      min_gbps = gbps_n == 0 ? gbps : std::min(min_gbps, gbps);
      max_gbps = std::max(max_gbps, gbps);
      sum_gbps += gbps;
      ++gbps_n;
    }
    if (alive_[w] && t.compute_s > 0.0) {
      max_compute = std::max(max_compute, t.compute_s);
      sum_compute += t.compute_s;
      ++compute_n;
    }
    util::log_kv(util::LogLevel::kDebug, "epoch_timing",
                 {util::kv("epoch", epoch_),
                  util::kv("worker", static_cast<std::uint32_t>(w)),
                  util::kv("pull_s", t.pull_s),
                  util::kv("compute_s", t.compute_s),
                  util::kv("push_s", t.push_s), util::kv("sync_s", t.sync_s)});
  }
  reg.gauge("sched.tiles").set(tiles);
  reg.gauge("sched.reorder_ms").set(reorder_ms);
  // Min/mean/max across the alive workers — the spread *is* the imbalance
  // signal stealing and DP1 exist to close.  The unsuffixed gauge keeps its
  // historical max semantics.
  reg.gauge("sched.effective_gbps").set(max_gbps);
  reg.gauge("sched.effective_gbps_min").set(min_gbps);
  reg.gauge("sched.effective_gbps_mean")
      .set(gbps_n > 0 ? sum_gbps / static_cast<double>(gbps_n) : 0.0);
  reg.gauge("sched.effective_gbps_max").set(max_gbps);
  // Slowest worker's compute time over the mean: 1.0 is perfectly
  // balanced, the straggler's stall factor when one worker lags.
  reg.gauge("sched.imbalance")
      .set(compute_n > 0 && sum_compute > 0.0
               ? max_compute / (sum_compute / static_cast<double>(compute_n))
               : 0.0);
  return measured;
}

bool EpochDriver::restore() {
  if (!ckpts_.has_checkpoint()) return false;
  const fault::Checkpoint& ck = ckpts_.latest();
  server_->model() = ck.model;
  lr_ = ck.lr;
  epoch_ = ck.next_epoch;
  return true;
}

void EpochDriver::discard_measured() {
  for (auto& w : workers_) {
    (void)w.take_measured();
    (void)w.take_computed();
  }
}

bool EpochDriver::recover(std::uint32_t victim, const Hooks& hooks) {
  // Degraded-mode recovery: mark the worker dead, hand its rows to the
  // survivors (DP1's multiplicative compensation, at row granularity),
  // roll the model back to the last consistent checkpoint and resume.
  obs::ScopedSpan rec_span("fault recovery", obs::kEpochCategory);
  util::Stopwatch watch;
  discard_measured();
  if (victim >= workers_.size() || !alive_[victim] ||
      !ckpts_.has_checkpoint()) {
    return false;
  }
  std::size_t survivors = 0;
  for (std::size_t w = 0; w < alive_.size(); ++w) {
    if (w != victim && alive_[w]) ++survivors;
  }
  if (survivors == 0) return false;
  alive_[victim] = false;
  dead_.push_back(victim);
  live_shares_ = redistribute_dead_share(live_shares_, victim);
  const auto batches =
      fault::split_entries_by_shares(workers_[victim].slice(), live_shares_);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (w != victim && !batches[w].empty()) {
      workers_[w].absorb_entries(batches[w]);
    }
  }
  refresh_item_weights();
  if (hooks.worker_lost) hooks.worker_lost(victim, epoch_);
  restore();
  fault_rt_.count_recovery(watch.seconds());
  util::log_kv(util::LogLevel::kWarn, "fault.recovery",
               {util::kv("worker", victim), util::kv("resume_epoch", epoch_),
                util::kv("wall_s", watch.seconds())});
  return true;
}

void EpochDriver::roll_back(std::uint32_t worker) {
  // Divergence guard: rewind to the checkpoint with a halved learning rate;
  // the halving persists via the re-saved checkpoint.
  discard_measured();
  if (rollbacks_ >= config_.fault.max_rollbacks || !ckpts_.has_checkpoint()) {
    throw fault::TrainingDivergedError(rollbacks_);
  }
  ++rollbacks_;
  restore();
  lr_ *= 0.5f;
  ckpts_.save({epoch_, lr_, config_.sgd.seed, server_->model()});
  fault_rt_.count_rollback();
  util::log_kv(util::LogLevel::kWarn, "fault.rollback",
               {util::kv("worker", worker), util::kv("resume_epoch", epoch_),
                util::kv("lr", lr_)});
}

}  // namespace hcc::core
