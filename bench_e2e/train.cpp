#include "train.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "comm/strategy.hpp"
#include "core/data_manager.hpp"
#include "core/epoch_executor.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/grid.hpp"
#include "fault/checkpoint.hpp"
#include "fault/recovery.hpp"
#include "mf/metrics.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

double hist_sum(const char* name) {
  const auto* h = hcc::obs::registry().find_histogram(name);
  return h != nullptr ? h->sum() : 0.0;
}

double counter_value(const char* name) {
  const auto* c = hcc::obs::registry().find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double gauge_value(const char* name) {
  const auto* g = hcc::obs::registry().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

// Times one call, adding its wall milliseconds to `acc`.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += (now_s() - t0) * 1e3;
  } else {
    auto out = fn();
    acc += (now_s() - t0) * 1e3;
    return out;
  }
}

}  // namespace

TrainRun train_untraced(const core::HccMfConfig& config,
                        const data::RatingMatrix& train,
                        const data::RatingMatrix& test) {
  core::HccMf trainer(config);
  const double t0 = now_s();
  core::TrainReport report = trainer.train(train, &test);
  TrainRun run;
  run.wall_s = now_s() - t0;
  for (const auto& e : report.epochs) run.epoch_rmse.push_back(e.test_rmse);
  run.model = std::move(*report.model);
  return run;
}

ReplayRun train_replay(const core::HccMfConfig& cfg,
                       const data::RatingMatrix& train_ratings,
                       const data::RatingMatrix& test) {
  if (train_ratings.cols() > train_ratings.rows() || !cfg.fault.plan.empty() ||
      !cfg.fault.checkpoint_dir.empty() || cfg.adaptive_repartition ||
      cfg.host_threads != 0 || cfg.exec.steal ||
      cfg.comm.transport.kind == hcc::comm::TransportKind::kChaos ||
      !cfg.evaluate_each_epoch) {
    throw std::invalid_argument(
        "train_replay: configuration outside what the replay mirrors");
  }
  for (const auto& e : cfg.validate()) {
    throw std::invalid_argument("train_replay: " + e.message);
  }
  const bool parallel = cfg.exec.mode == core::ExecMode::kParallel;
  const std::uint32_t epochs = cfg.sgd.epochs;
  ReplayRun out;
  auto& L = out.layers;
  for (const char* name :
       {"core.plan_ms", "data.grid_ms", "core.build_ms", "sim.timing_ms",
        "core.epoch_ms", "core.p_roundtrip_ms", "fault.checkpoint_ms",
        "mf.eval_ms", "serve.publish_ms", "data.reorder_ms", "comm.pull_ms",
        "mf.sgd_ms", "comm.push_ms", "core.merge_ms", "core.barrier_wait_ms",
        "core.sync_ms"}) {
    L[name] = 0.0;
  }
  const double enc0 = hist_sum("comm.codec.encode_ms");
  const double dec0 = hist_sum("comm.codec.decode_ms");
  const double stall0 = hist_sum("comm.pipeline.stall_ms");
  const double retx0 = counter_value("transport.retransmits");

  const double t_start = now_s();
  // --- plan (DataManager / DP1 + DP2), as train() does it.
  hcc::sim::DatasetShape shape;
  shape.name = cfg.dataset_name;
  shape.m = train_ratings.rows();
  shape.n = train_ratings.cols();
  shape.nnz = train_ratings.nnz();
  shape.k = cfg.sgd.k;
  const core::Plan plan = timed(L["core.plan_ms"], [&] {
    core::DataManager manager(cfg.platform, shape, cfg.comm, cfg.manager);
    return manager.plan(cfg.partition);
  });

  // --- grid: train() copies the caller's matrix, grids it and slices it.
  std::vector<data::RatingMatrix> slices = timed(L["data.grid_ms"], [&] {
    data::RatingMatrix matrix = train_ratings;
    const auto grid =
        data::make_grid(matrix, data::GridKind::kRow, plan.shares);
    return data::assign_slices(std::move(matrix), data::GridKind::kRow, grid);
  });

  // --- build: model init, server, workers, item merge weights.
  const double t_build = now_s();
  double mean = 0.0;
  std::size_t nnz = 0;
  for (const auto& s : slices) {
    for (const auto& e : s.entries()) mean += e.r;
    nnz += s.nnz();
  }
  mean = nnz > 0 ? mean / static_cast<double>(nnz) : 1.0;
  hcc::util::Rng rng(cfg.sgd.seed);
  mf::FactorModel model(shape.m, shape.n, shape.k);
  model.init_random(rng, static_cast<float>(mean));
  const std::uint32_t stripes = core::resolve_stripes(
      cfg.exec, static_cast<std::uint32_t>(shape.n), slices.size());
  core::Server server(std::move(model), cfg.comm, stripes);
  const bool publishing = cfg.snapshots != nullptr && cfg.publish_every > 0;
  if (publishing) server.attach_snapshots(cfg.snapshots.get(), cfg.publish_store);
  hcc::fault::FaultRuntime fault_rt(cfg.fault);
  std::vector<core::TrainWorker> workers;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto& device = cfg.platform.workers[i];
    workers.emplace_back(static_cast<std::uint32_t>(i), device.name,
                         std::move(slices[i]), cfg.comm,
                         hcc::comm::effective_streams(cfg.comm, device));
    workers.back().set_fault_runtime(&fault_rt);
    workers.back().set_exec(parallel, cfg.exec.double_buffer);
    workers.back().set_schedule(cfg.schedule, cfg.sgd.k);
    workers.back().set_real_stalls(cfg.fault.real_stalls);
  }
  const std::vector<bool> alive(workers.size(), true);
  {
    std::vector<std::size_t> totals(shape.n, 0);
    std::vector<std::vector<std::size_t>> counts(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      counts[w] = workers[w].slice().col_counts();
      for (std::size_t i = 0; i < shape.n; ++i) totals[i] += counts[w][i];
    }
    for (std::size_t w = 0; w < workers.size(); ++w) {
      std::vector<float> weights(shape.n, 0.0f);
      for (std::size_t i = 0; i < shape.n; ++i) {
        if (totals[i] > 0) {
          weights[i] = static_cast<float>(counts[w][i]) /
                       static_cast<float>(totals[i]);
        }
      }
      workers[w].set_item_weights(std::move(weights));
    }
  }
  L["core.build_ms"] += (now_s() - t_build) * 1e3;

  // --- the virtual timing train() runs beside the functional loop.
  timed(L["sim.timing_ms"], [&] { (void)core::HccMf(cfg).simulate(shape); });

  const bool quantizing_pq_each_epoch =
      hcc::comm::effective_codec(cfg.comm) != hcc::comm::CodecKind::kFp32 &&
      hcc::comm::effective_mode(cfg.comm, shape) ==
          hcc::comm::PayloadMode::kPQ;
  float lr = cfg.sgd.learn_rate;
  hcc::fault::CheckpointStore ckpts(cfg.fault.checkpoint_dir);
  const bool checkpointing = fault_rt.active() || cfg.fault.divergence_guard;
  if (checkpointing) {
    timed(L["fault.checkpoint_ms"],
          [&] { ckpts.save({0, lr, cfg.sgd.seed, server.model()}); });
  }
  core::EpochExecutor executor(cfg.exec, workers.size());

  const std::size_t nw = workers.size();
  std::vector<double> busy_total(nw, 0.0);
  double critical_updates = 0.0;
  double critical_compute_s = 0.0;
  double epoch_unattributed_ms = 0.0;
  const std::uint64_t contention0 = server.stripe_contention();
  const double sync0 = server.measured_sync_s();
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<double> wall(nw, 0.0);  // per-worker thread wall, seconds
    const double e0 = now_s();
    if (parallel) {
      // run_epoch's kParallel body, called through the executor's public
      // run_parallel so each worker's thread wall is visible from outside.
      executor.run_parallel(alive, [&](std::size_t i) {
        const double w0 = now_s();
        workers[i].prepare_epoch();
        workers[i].run_pipeline(server, lr, cfg.sgd.reg_p, cfg.sgd.reg_q,
                                nullptr);
        wall[i] = now_s() - w0;
      });
    } else {
      executor.run_epoch(workers, alive, server, lr, cfg.sgd.reg_p,
                         cfg.sgd.reg_q, nullptr);
    }
    const double epoch_ms = (now_s() - e0) * 1e3;
    L["core.epoch_ms"] += epoch_ms;
    if (quantizing_pq_each_epoch) {
      timed(L["core.p_roundtrip_ms"],
            [&] { server.roundtrip_p_through_codec(); });
    }
    lr *= cfg.sgd.lr_decay;

    // Critical path: the slowest worker thread under kParallel; every
    // worker in turn under kSerial, where one thread runs them all.
    std::vector<hcc::obs::PhaseTimes> t(nw);
    std::vector<std::size_t> done(nw);
    std::size_t slowest = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      t[w] = workers[w].take_measured();
      done[w] = workers[w].take_computed();
      busy_total[w] += t[w].total();
      if (wall[w] > wall[slowest]) slowest = w;
    }
    std::vector<std::size_t> path;
    if (parallel) {
      path.push_back(slowest);
    } else {
      for (std::size_t w = 0; w < nw; ++w) path.push_back(w);
    }
    double path_parts_ms = 0.0;
    for (const std::size_t w : path) {
      const double reorder = workers[w].schedule_stats().reorder_ms;
      L["data.reorder_ms"] += reorder;
      L["comm.pull_ms"] += t[w].pull_s * 1e3;
      L["mf.sgd_ms"] += t[w].compute_s * 1e3;
      L["comm.push_ms"] += t[w].push_s * 1e3;
      L["core.merge_ms"] += t[w].sync_s * 1e3;
      path_parts_ms += reorder + t[w].total() * 1e3;
      critical_updates += static_cast<double>(done[w]);
      critical_compute_s += t[w].compute_s;
    }
    const double path_wall_ms = parallel ? wall[slowest] * 1e3 : epoch_ms;
    L["core.barrier_wait_ms"] += epoch_ms - path_wall_ms;
    epoch_unattributed_ms += path_wall_ms - path_parts_ms;

    out.epoch_rmse.push_back(timed(
        L["mf.eval_ms"], [&] { return mf::rmse(server.model(), test); }));
    const std::uint32_t next = epoch + 1;
    if (checkpointing && next % cfg.fault.checkpoint_every == 0) {
      timed(L["fault.checkpoint_ms"],
            [&] { ckpts.save({next, lr, cfg.sgd.seed, server.model()}); });
    }
    if (publishing && next % cfg.publish_every == 0 && next < epochs) {
      timed(L["serve.publish_ms"], [&] { server.publish_snapshot(next); });
    }
  }
  if (hcc::comm::effective_codec(cfg.comm) != hcc::comm::CodecKind::kFp32 &&
      !quantizing_pq_each_epoch) {
    timed(L["core.p_roundtrip_ms"], [&] { server.roundtrip_p_through_codec(); });
  }
  if (!out.epoch_rmse.empty()) {
    out.epoch_rmse.back() = timed(
        L["mf.eval_ms"], [&] { return mf::rmse(server.model(), test); });
  }
  if (publishing) {
    timed(L["serve.publish_ms"], [&] { server.publish_snapshot(epochs); });
  }
  out.wall_s = now_s() - t_start;

  double parts_ms = 0.0;
  out.train_parts = {"core.plan_ms",        "data.grid_ms",
                     "core.build_ms",       "sim.timing_ms",
                     "core.epoch_ms",       "core.p_roundtrip_ms",
                     "fault.checkpoint_ms", "mf.eval_ms",
                     "serve.publish_ms",    "train.unattributed_ms"};
  for (std::size_t i = 0; i + 1 < out.train_parts.size(); ++i) {
    parts_ms += L[out.train_parts[i]];
  }
  L["train.unattributed_ms"] = out.wall_s * 1e3 - parts_ms;
  L["core.epoch_unattributed_ms"] = epoch_unattributed_ms;
  out.epoch_parts = {"data.reorder_ms", "comm.pull_ms",
                     "mf.sgd_ms",       "comm.push_ms",
                     "core.merge_ms",   "core.barrier_wait_ms",
                     "core.epoch_unattributed_ms"};

  L["core.sync_ms"] = (server.measured_sync_s() - sync0) * 1e3;
  L["core.stripe_contention"] =
      static_cast<double>(server.stripe_contention() - contention0);
  const double busy_max = *std::max_element(busy_total.begin(), busy_total.end());
  double busy_mean = 0.0;
  for (const double b : busy_total) busy_mean += b / static_cast<double>(nw);
  L["core.imbalance"] = busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  L["mf.sgd_mupdates_s"] =
      critical_compute_s > 0.0 ? critical_updates / critical_compute_s / 1e6
                               : 0.0;
  double wire = 0.0;
  for (const auto& w : workers) {
    wire += static_cast<double>(w.comm_stats().wire_bytes);
  }
  L["comm.wire_mb"] = wire / (1024.0 * 1024.0);
  L["comm.encode_ms"] = hist_sum("comm.codec.encode_ms") - enc0;
  L["comm.decode_ms"] = hist_sum("comm.codec.decode_ms") - dec0;
  L["comm.pipeline_stall_ms"] = hist_sum("comm.pipeline.stall_ms") - stall0;
  L["comm.overlap_ratio"] = gauge_value("comm.pipeline.overlap_ratio");
  L["comm.retransmits"] = counter_value("transport.retransmits") - retx0;
  return out;
}

}  // namespace bench
