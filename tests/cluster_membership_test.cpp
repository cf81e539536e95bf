// Elastic cluster membership: the MembershipTable bookkeeping, node death
// with repartition + rollback at cluster scope, and scripted live joins.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/hierarchical.hpp"
#include "cluster/membership.hpp"
#include "data/datasets.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace hcc::cluster {
namespace {

TEST(Membership, TableTracksDeathsAndJoins) {
  MembershipTable table(3);
  EXPECT_EQ(table.active_count(), 3u);
  EXPECT_TRUE(table.is_active(1));

  table.mark_dead(1, 4);
  EXPECT_EQ(table.active_count(), 2u);
  EXPECT_FALSE(table.is_active(1));
  EXPECT_EQ(table.state(1), NodeState::kDead);
  EXPECT_EQ(table.deaths(), 1u);
  table.mark_dead(1, 5);  // idempotent
  EXPECT_EQ(table.deaths(), 1u);

  table.mark_joined(1, 6);
  EXPECT_EQ(table.active_count(), 3u);
  EXPECT_EQ(table.joins(), 1u);
  table.mark_joined(1, 7);  // already active: no-op
  EXPECT_EQ(table.joins(), 1u);

  EXPECT_NE(table.to_string().find("node1=active@e6"), std::string::npos);
}

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small() {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 31;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(32);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

HierarchicalConfig elastic_config(const data::DatasetSpec& spec,
                                  std::size_t nodes) {
  HierarchicalConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.fp16 = false;
  config.cluster = workstation_cluster(nodes, ethernet_100g());
  config.dataset_name = spec.name;
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }
  return config;
}

TEST(Membership, NodeDeathRepartitionsAndTrainingConverges) {
  const SmallProblem pr = netflix_small();

  HierarchicalConfig clean = elastic_config(pr.spec, 3);
  const ClusterReport base = HierarchicalHcc(clean).train(pr.train, &pr.test);

  HierarchicalConfig faulty = elastic_config(pr.spec, 3);
  faulty.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
  const ClusterReport report =
      HierarchicalHcc(faulty).train(pr.train, &pr.test);

  ASSERT_EQ(report.dead_nodes.size(), 1u);
  EXPECT_EQ(report.dead_nodes[0], 1u);
  EXPECT_EQ(report.recoveries, 1u);
  ASSERT_EQ(report.test_rmse.size(), 8u);
  EXPECT_LT(report.test_rmse.back(), report.test_rmse.front());
  // Degraded but in the same quality regime as the fault-free twin.
  EXPECT_NEAR(report.test_rmse.back(), base.test_rmse.back(), 0.15);
}

TEST(Membership, KilledNodeRejoinsAndRunFinishes) {
  const SmallProblem pr = netflix_small();

  HierarchicalConfig config = elastic_config(pr.spec, 3);
  config.fault.plan = fault::FaultPlan::parse("kill:w2@e2;join:w2@e5");
  const ClusterReport report =
      HierarchicalHcc(config).train(pr.train, &pr.test);

  ASSERT_EQ(report.dead_nodes.size(), 1u);
  EXPECT_EQ(report.dead_nodes[0], 2u);
  ASSERT_EQ(report.joined_nodes.size(), 1u);
  EXPECT_EQ(report.joined_nodes[0], 2u);
  EXPECT_GE(obs::registry().counter("cluster.joins").value(), 1u);
  ASSERT_EQ(report.test_rmse.size(), 8u);
  EXPECT_LT(report.test_rmse.back(), report.test_rmse.front());
  EXPECT_LT(report.test_rmse.back(), 1.1);
  ASSERT_TRUE(report.model.has_value());
}

TEST(Membership, ElasticDefaultsAreBitIdenticalToLegacyTrainer) {
  // No plan, no checkpoint dir: the elastic machinery must stay inert and
  // the trajectory must match the pre-elastic trainer exactly.
  const SmallProblem pr = netflix_small();
  HierarchicalConfig config = elastic_config(pr.spec, 2);
  const ClusterReport a = HierarchicalHcc(config).train(pr.train, &pr.test);
  const ClusterReport b = HierarchicalHcc(config).train(pr.train, &pr.test);
  ASSERT_EQ(a.test_rmse.size(), b.test_rmse.size());
  for (std::size_t e = 0; e < a.test_rmse.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.test_rmse[e], b.test_rmse[e]);
  }
  EXPECT_TRUE(a.dead_nodes.empty());
  EXPECT_TRUE(a.joined_nodes.empty());
  EXPECT_EQ(a.recoveries, 0u);
}

TEST(Membership, DivergenceGuardRollsBackWithoutAFaultPlan) {
  // The divergence guard is armed by default, plan or no plan: a runaway
  // learning rate must roll back with a halved rate (the single-node rule)
  // instead of training on NaNs.
  const SmallProblem pr = netflix_small();
  HierarchicalConfig config = elastic_config(pr.spec, 2);
  config.sgd.epochs = 4;
  config.sgd.learn_rate = 50.0f;
  auto& rollbacks = obs::registry().counter("fault.divergence_rollbacks");
  const std::uint64_t before = rollbacks.value();
  const ClusterReport report =
      HierarchicalHcc(config).train(pr.train, &pr.test);
  EXPECT_GE(rollbacks.value(), before + 1);
  ASSERT_EQ(report.test_rmse.size(), 4u);
  for (const double rmse : report.test_rmse) {
    EXPECT_TRUE(std::isfinite(rmse));
  }
  EXPECT_LT(report.test_rmse.back(), 1.1);
}

TEST(Membership, ChaosTransportAtClusterScopeHealsAndConverges) {
  // Each node's link to the global server runs the chaos transport; the
  // scripted drops/disconnect heal inside the session layer, so training
  // matches the in-process run exactly.
  const SmallProblem pr = netflix_small();

  HierarchicalConfig clean = elastic_config(pr.spec, 3);
  const ClusterReport base = HierarchicalHcc(clean).train(pr.train, &pr.test);

  HierarchicalConfig chaotic = elastic_config(pr.spec, 3);
  chaotic.comm.transport.kind = comm::TransportKind::kChaos;
  chaotic.comm.transport.link = "local";
  chaotic.fault.plan =
      fault::FaultPlan::parse("drop:w0@e1n2;disconnect:w1@e3n2;dup:w2@e4");
  const ClusterReport report =
      HierarchicalHcc(chaotic).train(pr.train, &pr.test);

  EXPECT_TRUE(report.dead_nodes.empty());  // every fault healed in-session
  ASSERT_EQ(report.test_rmse.size(), base.test_rmse.size());
  EXPECT_NEAR(report.test_rmse.back(), base.test_rmse.back(), 1e-6);
}

}  // namespace
}  // namespace hcc::cluster
