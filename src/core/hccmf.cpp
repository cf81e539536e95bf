#include "core/hccmf.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/adaptive.hpp"
#include "core/epoch_driver.hpp"
#include "fault/recovery.hpp"
#include "mf/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/metrics.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {

/// Eq. 1-5 phase predictions for every worker of an epoch config.  Workers
/// the timing engine skips (no share, no communication) predict zero so
/// they do not register as drift.
std::vector<obs::PhaseTimes> predicted_phases(const sim::EpochConfig& cfg) {
  std::vector<obs::PhaseTimes> predicted(cfg.workers.size());
  for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
    const sim::WorkerPlan& plan = cfg.workers[w];
    if (plan.share <= 0.0 && plan.comm.pull_bytes <= 0.0) continue;
    const PhaseCost cost = predicted_phase_cost(
        plan.device, cfg.shape, plan.share, plan.comm, cfg.server);
    predicted[w] = {cost.pull_s, cost.compute_s, cost.push_s, cost.sync_s};
  }
  return predicted;
}

std::vector<obs::PhaseTimes> timing_phases(const sim::EpochTiming& timing) {
  std::vector<obs::PhaseTimes> measured(timing.workers.size());
  for (std::size_t w = 0; w < timing.workers.size(); ++w) {
    const sim::WorkerTiming& t = timing.workers[w];
    measured[w] = {t.pull_s, t.compute_s, t.push_s, t.sync_s};
  }
  return measured;
}

void validate_or_throw(const HccMfConfig& config) {
  const auto errors = config.validate();
  if (errors.empty()) return;
  std::string joined = "invalid HccMfConfig:";
  for (const auto& err : errors) {
    joined += ' ';
    joined += err.message;
    joined += ';';
  }
  joined.pop_back();
  throw std::invalid_argument(joined);
}

}  // namespace

std::vector<ConfigError> HccMfConfig::validate() const {
  std::vector<ConfigError> errors;
  auto reject = [&errors](ConfigErrorCode code, std::string message) {
    errors.push_back({code, std::move(message)});
  };
  if (platform.workers.empty()) {
    reject(ConfigErrorCode::kNoWorkers, "platform has no workers");
  }
  if (sgd.k == 0) {
    reject(ConfigErrorCode::kZeroLatentDim, "latent dimension k is 0");
  }
  if (sgd.epochs == 0) {
    reject(ConfigErrorCode::kZeroEpochs, "epochs is 0");
  }
  if (!(sgd.learn_rate > 0.0f) || !std::isfinite(sgd.learn_rate)) {
    reject(ConfigErrorCode::kBadLearnRate,
           "learn_rate must be finite and > 0");
  }
  if (!(sgd.reg_p >= 0.0f) || !std::isfinite(sgd.reg_p) ||
      !(sgd.reg_q >= 0.0f) || !std::isfinite(sgd.reg_q)) {
    reject(ConfigErrorCode::kBadRegularization,
           "regularization must be finite and >= 0");
  }
  if (!(sgd.lr_decay > 0.0f) || !std::isfinite(sgd.lr_decay)) {
    reject(ConfigErrorCode::kBadDecay, "lr_decay must be finite and > 0");
  }
  if (comm.streams == 0) {
    reject(ConfigErrorCode::kZeroStreams, "comm.streams is 0");
  }
  if (comm.pipeline_depth == 0 || comm.pipeline_depth > 64) {
    reject(ConfigErrorCode::kBadPipelineDepth,
           "comm.pipeline_depth must be in [1, 64] (1 = legacy single-shot "
           "transfers)");
  }
  if (!(fault.deadline_factor > 0.0) ||
      !std::isfinite(fault.deadline_factor)) {
    reject(ConfigErrorCode::kBadDeadlineFactor,
           "fault.deadline_factor must be finite and > 0");
  }
  if (!(fault.backoff_base_s >= 0.0) || !std::isfinite(fault.backoff_base_s)) {
    reject(ConfigErrorCode::kBadBackoff,
           "fault.backoff_base_s must be finite and >= 0");
  }
  if (fault.checkpoint_every == 0) {
    reject(ConfigErrorCode::kZeroCheckpointCadence,
           "fault.checkpoint_every is 0");
  }
  if (schedule.policy == data::SchedulePolicy::kTiled &&
      schedule.tile_kb == 0) {
    reject(ConfigErrorCode::kBadTileKb,
           "schedule.tile_kb must be > 0 under the tiled schedule");
  }
  if (exec.steal && exec.mode != ExecMode::kParallel) {
    reject(ConfigErrorCode::kStealNeedsParallel,
           "exec.steal requires exec.mode == parallel (kSerial runs the "
           "workers one after another, so none is free to steal)");
  }
  // Transport settings: a zero heartbeat would spin the session pump, a
  // timeout at or under the heartbeat interval declares every silence a
  // dead link, and a zero reconnect budget can never re-establish one.
  const comm::TransportConfig& tp = comm.transport;
  if (!(tp.heartbeat_ms > 0.0) || !std::isfinite(tp.heartbeat_ms)) {
    reject(ConfigErrorCode::kBadHeartbeat,
           "comm.transport.heartbeat_ms must be finite and > 0");
  }
  if (!(tp.timeout_ms >= 0.0) || !std::isfinite(tp.timeout_ms)) {
    reject(ConfigErrorCode::kBadTransportTimeout,
           "comm.transport.timeout_ms must be finite and >= 0 (0 derives "
           "it from the cost model)");
  } else if (tp.timeout_ms > 0.0 && tp.timeout_ms <= tp.heartbeat_ms) {
    reject(ConfigErrorCode::kBadTransportTimeout,
           "comm.transport.timeout_ms must exceed heartbeat_ms (or be 0 "
           "to derive from the cost model)");
  }
  if (!(tp.backoff_base_ms >= 0.0) || !std::isfinite(tp.backoff_base_ms)) {
    reject(ConfigErrorCode::kBadBackoff,
           "comm.transport.backoff_base_ms must be finite and >= 0");
  }
  if (tp.reconnect_budget == 0) {
    reject(ConfigErrorCode::kZeroReconnectBudget,
           "comm.transport.reconnect_budget must be >= 1");
  }
  if (tp.kind != comm::TransportKind::kInProcess) {
    try {
      (void)sim::link_by_name(tp.link);
    } catch (const std::invalid_argument& bad) {
      reject(ConfigErrorCode::kBadTransportLink, bad.what());
    }
  }
  if (publish_every > 0 && snapshots == nullptr) {
    reject(ConfigErrorCode::kPublishNeedsRegistry,
           "publish_every > 0 needs a snapshots registry to publish into");
  }
  return errors;
}

HccMf::HccMf(HccMfConfig config) : config_(std::move(config)) {
  if (config_.platform.workers.empty()) {
    config_.platform = sim::paper_workstation_hetero();
  }
}

Plan HccMf::plan_for(const sim::DatasetShape& shape) const {
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);
  return manager.plan(config_.partition);
}

void HccMf::accumulate_timing(TrainReport& report, const DataManager& manager,
                              const Plan& plan,
                              const fault::FaultInjector* injector) {
  const std::uint32_t epochs = config_.sgd.epochs;
  report.epochs.reserve(epochs);

  // Adaptive repartitioning (optional): track shares across epochs and
  // rebalance when measured compute times drift apart.
  Plan live_plan = plan;
  std::optional<AdaptiveController> controller;
  if (config_.adaptive_repartition) {
    controller.emplace(plan.shares);
  }
  const bool injecting = injector != nullptr && !injector->plan().empty();
  std::vector<bool> alive(live_plan.shares.size(), true);

  for (std::uint32_t e = 0; e < epochs; ++e) {
    // Fault composition on the virtual platform: a killed worker's share is
    // redistributed from its death epoch on (the timing-path mirror of the
    // functional recovery), a stalled worker's update/transfer rate drops
    // by its stall factor.
    if (injecting) {
      for (std::size_t w = 0; w < live_plan.shares.size(); ++w) {
        if (alive[w] &&
            injector->kill_scheduled(static_cast<std::uint32_t>(w), e)) {
          alive[w] = false;
          live_plan.shares = redistribute_dead_share(live_plan.shares, w);
        }
      }
    }
    sim::EpochConfig cfg = manager.epoch_config(live_plan, e + 1 == epochs);
    cfg.seed = config_.manager.seed + 17 * (e + 1);
    for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
      double scale = 1.0;
      if (config_.rate_disturbance) scale = config_.rate_disturbance(e, w);
      if (injecting) {
        scale /= injector->stall_factor(static_cast<std::uint32_t>(w), e);
      }
      cfg.workers[w].rate_scale = scale;
    }
    EpochReport er;
    er.epoch = e;
    er.timing = sim::simulate_epoch(cfg);
    er.virtual_s = er.timing.epoch_s;
    report.total_virtual_s += er.virtual_s;
    er.cumulative_virtual_s = report.total_virtual_s;
    er.test_rmse = std::numeric_limits<double>::quiet_NaN();
    for (const auto& w : er.timing.workers) {
      report.comm_virtual_s += w.pull_s + w.push_s;
    }

    // Cost-model drift: what the epoch actually took (timing engine) vs
    // what Eq. 1-5 predicted for the live plan.  Published as gauges each
    // epoch so the registry always holds the freshest verification signal.
    er.drift = obs::compute_drift(predicted_phases(cfg),
                                  timing_phases(er.timing));
    obs::publish_drift(obs::registry(), er.drift);
    util::log_kv(util::LogLevel::kDebug, "epoch_drift",
                 {util::kv("epoch", e),
                  util::kv("max_abs_rel_err", er.drift.max_abs_rel_err),
                  util::kv("mean_abs_rel_err", er.drift.mean_abs_rel_err)});
    if (controller) {
      std::vector<double> compute;
      compute.reserve(er.timing.workers.size());
      for (const auto& w : er.timing.workers) compute.push_back(w.compute_s);
      if (controller->observe(compute)) {
        live_plan.shares = controller->shares();
      }
    }
    report.epochs.push_back(std::move(er));
  }
  if (controller) report.repartitions = controller->repartitions();
}

TrainReport HccMf::simulate(const sim::DatasetShape& shape) {
  validate_or_throw(config_);
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);
  TrainReport report;
  report.plan = manager.plan(config_.partition);
  fault::FaultInjector injector(config_.fault.plan);
  accumulate_timing(report, manager, report.plan, &injector);
  const double updates = static_cast<double>(shape.nnz) * config_.sgd.epochs;
  report.updates_per_s =
      report.total_virtual_s > 0.0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.platform.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0.0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  return report;
}

TrainReport HccMf::train(const data::RatingMatrix& train_ratings,
                         const data::RatingMatrix* test_ratings) {
  validate_or_throw(config_);
  EpochDriver driver(config_);
  data::RatingMatrix matrix = driver.orient(train_ratings, test_ratings);
  const sim::DatasetShape& shape = driver.shape();
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);

  TrainReport report;
  report.plan = manager.plan(config_.partition);
  HCC_LOG_INFO() << "HCC-MF plan: " << report.plan.explanation;

  std::vector<EpochDriver::Slot> slots;
  for (std::size_t i = 0; i < report.plan.shares.size(); ++i) {
    const auto& device = config_.platform.workers[i];
    slots.push_back(
        {device.name, comm::effective_streams(config_.comm, device)});
  }
  driver.build(std::move(matrix), report.plan.shares, std::move(slots));
  Server& server = driver.server();
  fault::FaultRuntime& fault_rt = driver.fault_runtime();
  // Serving hook: snapshots publish at the epoch barrier below, where the
  // workers are parked and every factor row is quiescent.
  const bool publishing =
      config_.snapshots != nullptr && config_.publish_every > 0;
  if (publishing) {
    server.attach_snapshots(config_.snapshots.get(), config_.publish_store);
  }
  std::uint32_t last_publish_epoch = 0;

  // Timing runs alongside the functional loop but is fully decoupled.
  accumulate_timing(report, manager, report.plan, &fault_rt.injector());

  const bool quantizing_pq_each_epoch =
      comm::effective_codec(config_.comm) != comm::CodecKind::kFp32 &&
      comm::effective_mode(config_.comm, shape) == comm::PayloadMode::kPQ;

  EpochDriver::Hooks hooks;
  hooks.epoch = [&](std::uint32_t epoch) {
    const std::uint64_t injected_before = fault_rt.injector().injected();
    const std::uint64_t retries_before = fault_rt.retries();
    const double sync_before = server.measured_sync_s();
    obs::ScopedSpan epoch_span("epoch " + std::to_string(epoch),
                               obs::kEpochCategory);
    const std::vector<obs::PhaseTimes> measured = driver.step();
    if (quantizing_pq_each_epoch) server.roundtrip_p_through_codec();

    // The instrumented wall-clock phase times, in the same EpochTiming
    // shape the sim layer renders (CSV / Chrome trace).
    EpochReport& er = report.epochs[epoch];
    er.measured.workers.assign(measured.size(), {});
    for (std::size_t w = 0; w < measured.size(); ++w) {
      er.measured.workers[w].pull_s = measured[w].pull_s;
      er.measured.workers[w].compute_s = measured[w].compute_s;
      er.measured.workers[w].push_s = measured[w].push_s;
      er.measured.workers[w].sync_s = measured[w].sync_s;
    }
    er.measured.server_busy_s = server.measured_sync_s() - sync_before;
    er.measured.epoch_s = epoch_span.stop();
    er.fault_injected = static_cast<std::uint32_t>(
        fault_rt.injector().injected() - injected_before);
    er.fault_retries =
        static_cast<std::uint32_t>(fault_rt.retries() - retries_before);

    // Deadline detection: measured wall clock vs the Eq. 1-5 prediction
    // for the live (possibly degraded) plan, median-normalized across the
    // surviving workers.
    if (fault_rt.active()) {
      Plan live_plan = report.plan;
      live_plan.shares = driver.live_shares();
      const sim::EpochConfig cfg =
          manager.epoch_config(live_plan, epoch + 1 == config_.sgd.epochs);
      er.stragglers.clear();
      const auto mask =
          fault::straggler_mask(measured, predicted_phases(cfg),
                                config_.fault.deadline_factor, driver.alive());
      for (std::size_t w = 0; w < mask.size(); ++w) {
        if (mask[w]) er.stragglers.push_back(static_cast<std::uint32_t>(w));
      }
      if (!er.stragglers.empty()) {
        fault_rt.count_stragglers(er.stragglers.size());
        util::log_kv(
            util::LogLevel::kWarn, "fault.stragglers",
            {util::kv("epoch", epoch),
             util::kv("count",
                      static_cast<std::uint64_t>(er.stragglers.size()))});
      }
    }

    if (test_ratings != nullptr && config_.evaluate_each_epoch) {
      er.test_rmse = mf::rmse(server.model(), *test_ratings);
    }
    // Publish at the cadence boundary (the final epoch's snapshot waits for
    // the closing P roundtrip below so it matches the delivered model);
    // queries on earlier snapshots keep their own references.
    const std::uint32_t done = epoch + 1;
    if (publishing) {
      if (done % config_.publish_every == 0 && done < config_.sgd.epochs) {
        server.publish_snapshot(done);
        last_publish_epoch = done;
      }
      // Rollback can rewind the epoch behind the last publish; age 0 then.
      serve::serve_metrics().snapshot_age_epochs->set(
          done > last_publish_epoch
              ? static_cast<double>(done - last_publish_epoch)
              : 0.0);
    }
  };
  driver.run(hooks);

  // The final push transmits P as well (Strategy 1's closing P&Q push).
  if (comm::effective_codec(config_.comm) != comm::CodecKind::kFp32 &&
      !quantizing_pq_each_epoch) {
    server.roundtrip_p_through_codec();
  }
  if (test_ratings != nullptr && config_.evaluate_each_epoch &&
      !report.epochs.empty()) {
    report.epochs.back().test_rmse = mf::rmse(server.model(), *test_ratings);
  }
  // Final quality as a gauge so metrics-only consumers (the CI straggler
  // smoke compares steal vs no-steal RMSE from the JSON dump) need no
  // report plumbing.
  if (!report.epochs.empty() &&
      std::isfinite(report.epochs.back().test_rmse)) {
    obs::registry()
        .gauge("train.final_rmse")
        .set(report.epochs.back().test_rmse);
  }
  // The delivered model (post P-roundtrip) always becomes the last
  // snapshot, so serving converges on exactly what train() returns.
  if (publishing) {
    server.publish_snapshot(driver.epoch());
    serve::serve_metrics().snapshot_age_epochs->set(0.0);
  }

  const std::vector<TrainWorker>& workers = driver.workers();
  for (const auto& w : workers) report.comm_totals += w.comm_stats();

  report.fault.injected = fault_rt.injector().injected();
  report.fault.retries = fault_rt.retries();
  report.fault.checksum_failures = fault_rt.checksum_failures();
  report.fault.recoveries = fault_rt.recoveries();
  report.fault.divergence_rollbacks = fault_rt.rollbacks();
  report.fault.stragglers = fault_rt.stragglers();
  report.fault.recovery_wall_s = fault_rt.recovery_wall_s();
  report.fault.dead_workers = driver.dead_workers();
  report.fault.worker_nnz.resize(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    report.fault.worker_nnz[w] =
        driver.alive()[w] ? workers[w].assigned_nnz() : 0;
  }

  const double updates = static_cast<double>(shape.nnz) * config_.sgd.epochs;
  report.updates_per_s =
      report.total_virtual_s > 0.0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.platform.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0.0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  report.model = std::move(server.model());
  return report;
}

}  // namespace hcc::core
