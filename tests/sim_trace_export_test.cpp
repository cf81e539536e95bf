// Tests for the CSV trace exporter.
#include "sim/trace_export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "temp_path.hpp"

namespace hcc::sim {
namespace {

class TraceExportTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_ = test_util::unique_temp_path(".csv");

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }
};

TEST_F(TraceExportTest, EpochCsvHasWorkerRowsAndSummary) {
  EpochTiming timing;
  timing.workers.resize(2);
  timing.workers[0].pull_s = 0.001;
  timing.workers[0].compute_s = 0.04;
  timing.workers[1].compute_s = 0.05;
  timing.epoch_s = 0.06;
  timing.server_busy_s = 0.002;

  ASSERT_TRUE(export_epoch_csv(timing, {"2080S", "6242"}, path_));
  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 4u);  // header + 2 workers + summary
  EXPECT_NE(lines[0].find("compute_s"), std::string::npos);
  EXPECT_NE(lines[1].find("2080S"), std::string::npos);
  EXPECT_NE(lines[2].find("6242"), std::string::npos);
  EXPECT_NE(lines[3].find("epoch"), std::string::npos);
}

TEST_F(TraceExportTest, EpochCsvToleratesMissingNames) {
  EpochTiming timing;
  timing.workers.resize(3);
  ASSERT_TRUE(export_epoch_csv(timing, {"only-one"}, path_));
  EXPECT_EQ(read_lines(path_).size(), 5u);
}

TEST_F(TraceExportTest, SeriesCsvRoundTrips) {
  ASSERT_TRUE(export_series_csv({"epoch", "rmse"},
                                {{0.0, 1.5}, {1.0, 0.9}, {2.0, 0.7}}, path_));
  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "epoch,rmse");
  EXPECT_NE(lines[2].find("0.9"), std::string::npos);
}

TEST_F(TraceExportTest, FailsOnUnwritablePath) {
  EpochTiming timing;
  EXPECT_FALSE(export_epoch_csv(timing, {}, "/nonexistent_dir/x.csv"));
  EXPECT_FALSE(export_series_csv({"a"}, {}, "/nonexistent_dir/x.csv"));
}

}  // namespace
}  // namespace hcc::sim
