// Tests for the row/column grid partitioner — invariants per grid.hpp:
// the grid tiles the dimension exactly and nnz targets are honored.
#include "data/grid.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "data/datasets.hpp"
#include "util/rng.hpp"

namespace hcc::data {
namespace {

RatingMatrix zipf_matrix(std::uint32_t rows, std::uint32_t cols,
                         std::size_t nnz, std::uint64_t seed) {
  util::Rng rng(seed);
  util::ZipfSampler row_pop(rows, 0.8);
  util::ZipfSampler col_pop(cols, 0.8);
  RatingMatrix m(rows, cols);
  for (std::size_t e = 0; e < nnz; ++e) {
    m.add(static_cast<std::uint32_t>(row_pop(rng)),
          static_cast<std::uint32_t>(col_pop(rng)),
          static_cast<float>(1 + rng.uniform_u64(5)));
  }
  return m;
}

TEST(MakeGrid, RejectsBadFractions) {
  const RatingMatrix m = zipf_matrix(50, 20, 500, 1);
  EXPECT_THROW(make_grid(m, GridKind::kRow, {}), std::invalid_argument);
  EXPECT_THROW(make_grid(m, GridKind::kRow, {0.5, 0.4}),
               std::invalid_argument);
  EXPECT_THROW(make_grid(m, GridKind::kRow, {1.5, -0.5}),
               std::invalid_argument);
}

TEST(MakeGrid, SingleWorkerGetsEverything) {
  const RatingMatrix m = zipf_matrix(50, 20, 500, 2);
  const auto grid = make_grid(m, GridKind::kRow, {1.0});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].begin, 0u);
  EXPECT_EQ(grid[0].end, 50u);
  EXPECT_EQ(grid[0].nnz, 500u);
}

TEST(MakeGrid, ColumnGridUsesColumnCounts) {
  const RatingMatrix m = zipf_matrix(20, 60, 600, 3);
  const auto grid = make_grid(m, GridKind::kColumn, {0.5, 0.5});
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].begin, 0u);
  EXPECT_EQ(grid[1].end, 60u);
  EXPECT_EQ(grid[0].nnz + grid[1].nnz, 600u);
}

TEST(MakeGrid, ZeroShareWorkerGetsEmptyRange) {
  const RatingMatrix m = zipf_matrix(50, 20, 500, 4);
  const auto grid = make_grid(m, GridKind::kRow, {0.0, 1.0});
  EXPECT_EQ(grid[0].nnz, 0u);
  EXPECT_EQ(grid[0].width(), 0u);
  EXPECT_EQ(grid[1].nnz, 500u);
}

TEST(AssignSlices, RowSlicesHoldExactlyTheGridRows) {
  RatingMatrix m = zipf_matrix(40, 15, 400, 5);
  const auto grid = make_grid(m, GridKind::kRow, {0.3, 0.3, 0.4});
  const auto slices = assign_slices(m, GridKind::kRow, grid);
  ASSERT_EQ(slices.size(), 3u);
  std::size_t total = 0;
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(slices[w].nnz(), grid[w].nnz);
    for (const auto& e : slices[w].entries()) {
      EXPECT_GE(e.u, grid[w].begin);
      EXPECT_LT(e.u, grid[w].end);
    }
    total += slices[w].nnz();
  }
  EXPECT_EQ(total, 400u);
}

TEST(AssignSlices, ColumnGridTransposesCoordinates) {
  RatingMatrix m = zipf_matrix(10, 40, 300, 6);
  const auto grid = make_grid(m, GridKind::kColumn, {0.5, 0.5});
  const auto slices = assign_slices(m, GridKind::kColumn, grid);
  // After transposition, slices index by the original columns.
  for (std::size_t w = 0; w < 2; ++w) {
    for (const auto& e : slices[w].entries()) {
      EXPECT_GE(e.u, grid[w].begin);
      EXPECT_LT(e.u, grid[w].end);
      EXPECT_LT(e.i, 10u);  // original rows are now columns
    }
  }
}

// Property sweep over worker counts and skew: the grid always tiles [0, dim)
// and the realized nnz fractions stay reasonably close to the targets.
class GridProperty
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(GridProperty, TilesAndApproximatesTargets) {
  const auto [workers, skew, seed] = GetParam();
  util::Rng rng(seed);
  const RatingMatrix m = zipf_matrix(1000, 50, 20000, seed);

  // Random positive fractions, normalized.
  std::vector<double> fractions(workers);
  double sum = 0.0;
  for (auto& f : fractions) {
    f = 0.2 + rng.uniform();
    sum += f;
  }
  for (auto& f : fractions) f /= sum;
  (void)skew;

  const auto grid = make_grid(m, GridKind::kRow, fractions);
  ASSERT_EQ(grid.size(), static_cast<std::size_t>(workers));

  // Invariant 1: exact tiling — contiguous, ordered, covering.
  EXPECT_EQ(grid.front().begin, 0u);
  EXPECT_EQ(grid.back().end, m.rows());
  for (std::size_t w = 1; w < grid.size(); ++w) {
    EXPECT_EQ(grid[w].begin, grid[w - 1].end);
  }

  // Invariant 2: nnz conservation.
  std::size_t total = 0;
  for (const auto& r : grid) total += r.nnz;
  EXPECT_EQ(total, m.nnz());

  // Invariant 3: with 1000 rows over 20k entries, each worker's realized
  // fraction lands within a few rows' worth of its target.
  for (std::size_t w = 0; w < grid.size(); ++w) {
    const double realized =
        static_cast<double>(grid[w].nnz) / static_cast<double>(m.nnz());
    EXPECT_NEAR(realized, fractions[w], 0.08)
        << "worker " << w << " of " << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerSweep, GridProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(0.0, 0.8),
                       ::testing::Values(11ull, 22ull)));

}  // namespace
}  // namespace hcc::data
