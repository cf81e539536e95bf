// Tests for the epoch timing engine: pipeline structure, server sync
// serialization, stream overlap and local-worker contention.
#include "sim/timing.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hcc::sim {
namespace {

DatasetShape netflix_shape() { return {"netflix", 480190, 17771, 99072112, 128}; }

CommPlan plain_comm(double pull_mb, double push_mb, double sync_mb) {
  CommPlan c;
  c.pull_bytes = pull_mb * 1e6;
  c.push_bytes = push_mb * 1e6;
  c.sync_bytes = sync_mb * 1e6;
  c.bus_efficiency = 1.0;
  c.streams = 1;
  return c;
}

EpochConfig two_worker_config() {
  EpochConfig cfg;
  cfg.shape = netflix_shape();
  cfg.server = ServerSpec{};
  WorkerPlan a;
  a.device = rtx_2080s();
  a.device.epoch_overhead_s = 0.0;  // keep the arithmetic checks exact
  a.share = 0.6;
  a.comm = plain_comm(9.1, 9.1, 9.1);
  WorkerPlan b;
  b.device = xeon_6242_24t();
  b.device.epoch_overhead_s = 0.0;
  b.share = 0.4;
  b.comm = plain_comm(9.1, 9.1, 9.1);
  cfg.workers = {a, b};
  return cfg;
}

TEST(Timing, EpochOverheadIsCharged) {
  EpochConfig cfg;
  cfg.shape = netflix_shape();
  cfg.jitter = 0.0;
  WorkerPlan w;
  w.device = rtx_2080();
  w.share = 0.5;
  w.comm = plain_comm(1.0, 1.0, 1.0);
  cfg.workers = {w};
  const double with_overhead = simulate_epoch(cfg).workers[0].compute_s;
  cfg.workers[0].device.epoch_overhead_s = 0.0;
  const double without = simulate_epoch(cfg).workers[0].compute_s;
  EXPECT_NEAR(with_overhead - without, rtx_2080().epoch_overhead_s, 1e-12);
}

TEST(Timing, SequentialPipelineAddsUp) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  const EpochTiming t = simulate_epoch(cfg);
  ASSERT_EQ(t.workers.size(), 2u);
  for (const auto& w : t.workers) {
    // finish = pull + compute + push exactly, with one stream.
    EXPECT_NEAR(w.finish_s, w.pull_s + w.compute_s + w.push_s, 1e-12);
    EXPECT_GT(w.compute_s, 0.0);
    EXPECT_GT(w.pull_s, 0.0);
  }
}

TEST(Timing, EpochEndsAfterLastSync) {
  const EpochTiming t = simulate_epoch(two_worker_config());
  for (const auto& w : t.workers) {
    EXPECT_GE(t.epoch_s, w.finish_s);
    EXPECT_GE(t.epoch_s, w.sync_end_s);
    EXPECT_GE(w.sync_end_s, w.finish_s);  // sync happens after the push
  }
}

TEST(Timing, ServerSyncsSerialize) {
  // Two workers finishing at the same instant: the second sync must wait
  // for the first, so one sync_end is at least one sync duration later.
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  // Make both workers identical so pushes collide.
  cfg.workers[1] = cfg.workers[0];
  const EpochTiming t = simulate_epoch(cfg);
  const double s0 = t.workers[0].sync_s;
  EXPECT_NEAR(t.workers[0].sync_end_s + s0, t.workers[1].sync_end_s, 1e-9);
  EXPECT_NEAR(t.server_busy_s, 2 * s0, 1e-12);
}

TEST(Timing, ComputeScalesWithShare) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers[1].device = cfg.workers[0].device;
  cfg.workers[0].share = 0.6;
  cfg.workers[1].share = 0.3;
  const EpochTiming t = simulate_epoch(cfg);
  // Close to 2x but not exact: smaller assignments run faster per update
  // (the compute drift of Section 3.3), which is the whole premise of DP1.
  EXPECT_NEAR(t.workers[0].compute_s / t.workers[1].compute_s, 2.0, 0.15);
}

TEST(Timing, StreamsHideCommunication) {
  // With heavy comm and S streams, the exposed time approaches
  // compute + comm/S (Figure 6's claim: transmission reduced to 1/streams).
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers.resize(1);
  cfg.workers[0].comm = plain_comm(500.0, 500.0, 10.0);

  cfg.workers[0].comm.streams = 1;
  const double t1 = simulate_epoch(cfg).workers[0].finish_s;
  cfg.workers[0].comm.streams = 4;
  const double t4 = simulate_epoch(cfg).workers[0].finish_s;
  EXPECT_LT(t4, t1);

  const EpochTiming t = simulate_epoch(cfg);
  const auto& w = t.workers[0];
  const double lower = w.compute_s + (w.pull_s + w.push_s) / 4.0;
  EXPECT_GE(w.finish_s + 1e-12, lower);
  // The pipeline should get reasonably close to the ideal overlap.
  EXPECT_LT(w.finish_s, w.compute_s + w.pull_s + w.push_s);
}

TEST(Timing, StreamsPreserveTotalActiveDurations) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers.resize(1);
  cfg.workers[0].comm.streams = 1;
  const EpochTiming t1 = simulate_epoch(cfg);
  cfg.workers[0].comm.streams = 4;
  const EpochTiming t4 = simulate_epoch(cfg);
  // Async streaming hides time, it does not delete work (Figure 6 caption:
  // "does not reduce computational time").
  EXPECT_NEAR(t1.workers[0].pull_s, t4.workers[0].pull_s, 1e-12);
  EXPECT_NEAR(t1.workers[0].compute_s, t4.workers[0].compute_s, 1e-12);
  EXPECT_NEAR(t1.workers[0].push_s, t4.workers[0].push_s, 1e-12);
}

TEST(Timing, LocalWorkerPaysForOverlappingSyncOnly) {
  // A worker on the server's own CPU loses the sync work that lands while
  // it is still computing — but not syncs serviced after it finished.
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers[1].device = xeon_6242_16t();  // BusKind::kLocal
  cfg.workers[1].device.epoch_overhead_s = 0.0;
  ASSERT_EQ(cfg.workers[1].device.bus, BusKind::kLocal);

  EpochConfig no_sync = cfg;
  for (auto& w : no_sync.workers) w.comm.sync_bytes = 0.0;
  const EpochTiming baseline = simulate_epoch(no_sync);

  // Case 1: the local worker finishes last by a wide margin, so the other
  // worker's sync overlaps its compute and gets charged to it.
  {
    EpochConfig cfg_late = cfg;
    cfg_late.workers[1].share = 0.9;
    cfg_late.workers[0].share = 0.1;
    EpochConfig base_late = no_sync;
    base_late.workers[1].share = 0.9;
    base_late.workers[0].share = 0.1;
    const EpochTiming with_sync = simulate_epoch(cfg_late);
    const EpochTiming without = simulate_epoch(base_late);
    // Charged: the GPU worker's sync (starts long before the CPU's finish).
    EXPECT_GT(with_sync.workers[1].compute_s, without.workers[1].compute_s);
    EXPECT_NEAR(with_sync.workers[1].compute_s - without.workers[1].compute_s,
                with_sync.workers[0].sync_s, 1e-9);
  }

  // Case 2: the local worker finishes first; every sync is serviced after
  // its compute window, so it pays nothing.
  {
    EpochConfig cfg_early = cfg;
    cfg_early.workers[1].share = 0.05;
    cfg_early.workers[0].share = 0.95;
    const EpochTiming with_sync = simulate_epoch(cfg_early);
    EpochConfig base_early = no_sync;
    base_early.workers[1].share = 0.05;
    base_early.workers[0].share = 0.95;
    const EpochTiming without = simulate_epoch(base_early);
    EXPECT_NEAR(with_sync.workers[1].compute_s, without.workers[1].compute_s,
                1e-12);
  }
  (void)baseline;
}

TEST(Timing, ZeroShareWorkerOnlyCommunicates) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers[1].share = 0.0;
  const EpochTiming t = simulate_epoch(cfg);
  EXPECT_DOUBLE_EQ(t.workers[1].compute_s, 0.0);
  EXPECT_GT(t.workers[1].pull_s, 0.0);
}

TEST(Timing, JitterIsDeterministicPerSeed) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.05;
  cfg.seed = 33;
  const EpochTiming a = simulate_epoch(cfg);
  const EpochTiming b = simulate_epoch(cfg);
  EXPECT_DOUBLE_EQ(a.epoch_s, b.epoch_s);
  cfg.seed = 34;
  const EpochTiming c = simulate_epoch(cfg);
  EXPECT_NE(a.epoch_s, c.epoch_s);
}

TEST(Timing, FasterBusShortensPullTime) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers.resize(1);
  cfg.workers[0].device = rtx_2080();  // PCIe 16 GB/s
  const double pcie_pull = simulate_epoch(cfg).workers[0].pull_s;
  cfg.workers[0].device = xeon_6242_24t();  // UPI 20.8 GB/s
  const double upi_pull = simulate_epoch(cfg).workers[0].pull_s;
  EXPECT_LT(upi_pull, pcie_pull);
  EXPECT_NEAR(pcie_pull / upi_pull, 20.8 / 16.0, 1e-6);
}

TEST(Timing, BusEfficiencyScalesTransfers) {
  EpochConfig cfg = two_worker_config();
  cfg.jitter = 0.0;
  cfg.workers.resize(1);
  const double eff1 = simulate_epoch(cfg).workers[0].pull_s;
  cfg.workers[0].comm.bus_efficiency = 0.5;
  const double eff05 = simulate_epoch(cfg).workers[0].pull_s;
  EXPECT_NEAR(eff05, 2.0 * eff1, 1e-12);
}

}  // namespace
}  // namespace hcc::sim
