// Tests for the multi-node cluster extension (specs + hierarchical HCC).
#include <gtest/gtest.h>

#include <numeric>

#include "cluster/hierarchical.hpp"
#include "data/datasets.hpp"
#include "mf/metrics.hpp"

namespace hcc::cluster {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}

HierarchicalConfig base_config(std::size_t nodes,
                               InterconnectSpec net = ethernet_100g()) {
  HierarchicalConfig config;
  config.sgd.epochs = 20;
  config.cluster = workstation_cluster(nodes, net);
  config.dataset_name = "netflix";
  return config;
}

TEST(ClusterSpec, WorkstationClusterComposition) {
  const ClusterSpec cluster = workstation_cluster(3, ethernet_100g());
  EXPECT_EQ(cluster.nodes.size(), 3u);
  EXPECT_EQ(cluster.total_workers(), 12u);
  EXPECT_EQ(cluster.network.name, "100GbE");
  // Ideal rate = 3x a single workstation.
  const double single =
      sim::paper_workstation_hetero().ideal_update_rate(netflix_shape());
  EXPECT_NEAR(cluster.ideal_update_rate(netflix_shape()), 3.0 * single, 1.0);
}

TEST(ClusterSpec, InterconnectPresetsOrdered) {
  EXPECT_GT(infiniband_hdr().bandwidth_gbs, ethernet_100g().bandwidth_gbs);
  EXPECT_GT(ethernet_100g().bandwidth_gbs, ethernet_10g().bandwidth_gbs);
  EXPECT_LT(infiniband_hdr().latency_s, ethernet_10g().latency_s);
}

TEST(Hierarchical, NodeSharesFormDistribution) {
  HierarchicalHcc hcc(base_config(4));
  const auto shares = hcc.node_shares(netflix_shape());
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0, 1e-9);
  // Identical nodes -> even split.
  for (double s : shares) EXPECT_NEAR(s, 0.25, 1e-9);
}

TEST(Hierarchical, SimulateScalesWithNodes) {
  const sim::DatasetShape shape = netflix_shape();
  double prev = 1e100;
  for (std::size_t nodes : {1u, 2u, 4u}) {
    HierarchicalHcc hcc(base_config(nodes));
    const ClusterReport report = hcc.simulate(shape);
    EXPECT_LT(report.total_virtual_s, prev) << nodes << " nodes";
    EXPECT_GT(report.utilization, 0.3);
    EXPECT_LE(report.utilization, 1.05);
    prev = report.total_virtual_s;
  }
}

TEST(Hierarchical, SlowNetworkGatesScaling) {
  const sim::DatasetShape shape = netflix_shape();
  const ClusterReport fast =
      HierarchicalHcc(base_config(4, infiniband_hdr())).simulate(shape);
  const ClusterReport slow =
      HierarchicalHcc(base_config(4, ethernet_10g())).simulate(shape);
  EXPECT_LT(fast.total_virtual_s, slow.total_virtual_s);
  EXPECT_GT(slow.epochs[0].network_s, fast.epochs[0].network_s);
}

TEST(Hierarchical, LocalEpochsAmortizeGlobalExchange) {
  const sim::DatasetShape shape = netflix_shape();
  HierarchicalConfig one = base_config(4, ethernet_10g());
  one.sgd.epochs = 20;
  one.local_epochs = 1;
  HierarchicalConfig four = base_config(4, ethernet_10g());
  four.sgd.epochs = 5;  // same total passes: 5 x 4
  four.local_epochs = 4;
  const double t1 = HierarchicalHcc(one).simulate(shape).total_virtual_s;
  const double t4 = HierarchicalHcc(four).simulate(shape).total_virtual_s;
  EXPECT_LT(t4, t1);  // fewer global exchanges for the same compute
}

TEST(Hierarchical, EpochTimingDecomposes) {
  HierarchicalHcc hcc(base_config(2));
  const ClusterReport report = hcc.simulate(netflix_shape());
  ASSERT_EQ(report.epochs.size(), 20u);
  for (const auto& e : report.epochs) {
    EXPECT_GT(e.node_max_s, 0.0);
    EXPECT_GT(e.network_s, 0.0);
    EXPECT_GT(e.global_sync_s, 0.0);
    EXPECT_NEAR(e.total_s, e.node_max_s + e.network_s + e.global_sync_s,
                1e-12);
  }
  // The final global push carries P as well: its network time is larger.
  EXPECT_GT(report.epochs.back().network_s, report.epochs.front().network_s);
}

TEST(Hierarchical, FunctionalTrainingConverges) {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 17;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(18);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  HierarchicalConfig config = base_config(3);
  config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
  config.sgd.epochs = 8;
  config.comm.fp16 = false;
  config.dataset_name = spec.name;
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }

  HierarchicalHcc hcc(config);
  const ClusterReport report = hcc.train(train, &test);
  ASSERT_TRUE(report.model.has_value());
  ASSERT_EQ(report.test_rmse.size(), 8u);
  EXPECT_LT(report.test_rmse.back(), report.test_rmse.front());
  EXPECT_LT(report.test_rmse.back(), 1.1);
}

TEST(Hierarchical, LastTestRmseDescribesTheDeliveredModel) {
  // Under a lossy codec the closing P roundtrip moves the model after the
  // last epoch's evaluation, so the report must re-measure that entry.
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(6);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  HierarchicalConfig config = base_config(2);
  config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
  config.sgd.epochs = 4;
  config.comm.codec = comm::CodecKind::kFp16;
  config.dataset_name = spec.name;
  const ClusterReport report = HierarchicalHcc(config).train(train, &test);
  ASSERT_TRUE(report.model.has_value());
  ASSERT_EQ(report.test_rmse.size(), 4u);
  EXPECT_EQ(report.test_rmse.back(), mf::rmse(*report.model, test));
}

TEST(Hierarchical, HeterogeneousNodesGetProportionalShares) {
  // A big node (full workstation) next to a small one (single GPU): DP0
  // across nodes must split by aggregate speed, not evenly.
  HierarchicalConfig config;
  config.dataset_name = "netflix";
  config.cluster.name = "lopsided";
  config.cluster.network = ethernet_100g();
  NodeSpec big;
  big.name = "big";
  big.platform = sim::paper_workstation_hetero();
  NodeSpec small;
  small.name = "small";
  small.platform = sim::single_device(sim::rtx_2080());
  config.cluster.nodes = {big, small};

  HierarchicalHcc hcc(config);
  const auto shares = hcc.node_shares(netflix_shape());
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_GT(shares[0], shares[1]);
  const double big_rate =
      big.platform.ideal_update_rate(netflix_shape());
  const double small_rate =
      small.platform.ideal_update_rate(netflix_shape());
  EXPECT_NEAR(shares[0] / shares[1], big_rate / small_rate, 1e-9);

  // And the run completes with sane utilization.
  config.sgd.epochs = 10;
  const ClusterReport report = HierarchicalHcc(config).simulate(netflix_shape());
  EXPECT_GT(report.utilization, 0.3);
  EXPECT_LE(report.utilization, 1.05);
}

TEST(Hierarchical, LocalEpochsTradeQualityForComm) {
  // More local epochs per exchange = fewer syncs = slightly staler Q.
  // Quality should remain in the same regime (that is the point of the
  // knob), while total updates match.
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 19;
  const auto full = data::generate(spec, gen);
  util::Rng rng(20);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  auto run = [&](std::uint32_t global, std::uint32_t local) {
    HierarchicalConfig config = base_config(2);
    config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
    config.sgd.epochs = global;
    config.local_epochs = local;
    config.comm.fp16 = false;
    config.dataset_name = spec.name;
    return HierarchicalHcc(config).train(train, &test).test_rmse.back();
  };
  const double frequent = run(8, 1);
  const double batched = run(2, 4);
  EXPECT_NEAR(frequent, batched, 0.15);
}

}  // namespace
}  // namespace hcc::cluster
