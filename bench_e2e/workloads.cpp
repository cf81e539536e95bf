#include "workloads.hpp"

#include <stdexcept>

#include "sim/platform.hpp"

namespace bench {

namespace {

// Two identical CPU workers: two worker threads under kParallel, so the
// trainer plus the benchmark stay within a 4-CPU host even when the depth-4
// pipeline adds an encoder thread per worker.
hcc::sim::PlatformSpec bench_platform() {
  return hcc::sim::combo("bench-2x6242", {"6242", "6242"});
}

}  // namespace

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "train-tall") {
    // Netflix shape: m >> n, so Q (n x k) is small and cache resident.
    w.spec = data::netflix_spec().scaled(0.03);
    w.rmse_target = 0.335;
    w.serve = {.rates_qps = {250, 1000, 60000}, .limit_ms = 5.0};
  } else if (name == "train-square") {
    // MovieLens shape: m ~ n, so Q is as large as P and crosses the wire.
    w.spec = data::movielens20m_spec().scaled(0.05);
    w.rmse_target = 0.345;
    w.tiled = true;
    w.int8_sim_link = true;
    w.publish = true;
    w.serve = {.rates_qps = {125, 500, 8000}, .limit_ms = 10.0};
  } else if (name == "serve-live") {
    // A ~27k-item MovieLens-shaped catalog, trained while generating the
    // inputs; the run itself is all serving.
    w.spec = data::movielens20m_spec();
    w.spec.name = "movielens-27k";
    w.spec.m = 28000;  // m >= n keeps train() on its row grid (no transpose)
    w.spec.n = 27000;
    w.spec.nnz = 2'000'000;
    w.rmse_target = 0.45;
    w.train_share = 0.0;
    w.serve = {.rates_qps = {60, 250, 3200},
               .limit_ms = 25.0,
               .writer_period_s = 0.25};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (train-tall, train-square, serve-live)");
  }
  return w;
}

core::HccMfConfig train_config(
    const Workload& w, std::shared_ptr<serve::SnapshotRegistry> registry) {
  core::HccMfConfig c;
  c.sgd = hcc::mf::SgdConfig::for_dataset(w.spec.reg_lambda,
                                          w.spec.learn_rate, kLatentDim);
  c.sgd.epochs = kEpochs;
  c.platform = bench_platform();
  c.dataset_name = w.spec.name;
  c.exec.mode = core::ExecMode::kParallel;
  c.schedule.policy =
      w.tiled ? data::SchedulePolicy::kTiled : data::SchedulePolicy::kAsIs;
  if (w.int8_sim_link) {
    c.comm.codec = hcc::comm::CodecKind::kInt8;
    c.comm.pipeline_depth = 4;
    c.comm.transport.kind = hcc::comm::TransportKind::kSimLatency;
    c.comm.transport.link = "10GbE";
  }
  if (w.publish) {
    c.publish_every = 1;
    c.publish_store = serve::StoreKind::kInt8;
    c.snapshots = std::move(registry);
  }
  return c;
}

}  // namespace bench
