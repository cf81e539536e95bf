// Tests for rating matrix IO.
#include "data/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/datasets.hpp"
#include "temp_path.hpp"

namespace hcc::data {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::filesystem::remove(path_);
  }
  std::string path_ = test_util::unique_temp_path(".dat");
};

RatingMatrix sample() {
  RatingMatrix m(3, 4);
  m.add(0, 1, 4.5f);
  m.add(2, 3, 1.0f);
  m.add(1, 0, 3.0f);
  return m;
}

TEST_F(IoTest, TextRoundTrip) {
  const RatingMatrix m = sample();
  ASSERT_TRUE(save_text(m, path_));
  const RatingMatrix loaded = load_text(path_, 3, 4);
  ASSERT_EQ(loaded.nnz(), m.nnz());
  EXPECT_EQ(loaded.rows(), 3u);
  EXPECT_EQ(loaded.cols(), 4u);
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(loaded.entries()[i], m.entries()[i]);
  }
}

TEST_F(IoTest, TextInfersDimensions) {
  ASSERT_TRUE(save_text(sample(), path_));
  const RatingMatrix loaded = load_text(path_);
  EXPECT_EQ(loaded.rows(), 3u);
  EXPECT_EQ(loaded.cols(), 4u);
}

TEST_F(IoTest, TextSkipsCommentsAndBlankLines) {
  {
    std::ofstream out(path_);
    out << "# header comment\n\n0 0 5\n# mid comment\n1 1 3\n";
  }
  const RatingMatrix loaded = load_text(path_);
  EXPECT_EQ(loaded.nnz(), 2u);
}

TEST_F(IoTest, TextRejectsMalformedLine) {
  {
    std::ofstream out(path_);
    out << "0 zero 5\n";
  }
  EXPECT_THROW(load_text(path_), std::runtime_error);
}

TEST_F(IoTest, TextRejectsOutOfBoundsEntry) {
  ASSERT_TRUE(save_text(sample(), path_));
  EXPECT_THROW(load_text(path_, 2, 2), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_text("/tmp/definitely_missing_hccmf.txt"),
               std::runtime_error);
  EXPECT_THROW(load_binary("/tmp/definitely_missing_hccmf.bin"),
               std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const RatingMatrix m = sample();
  ASSERT_TRUE(save_binary(m, path_));
  const RatingMatrix loaded = load_binary(path_);
  EXPECT_EQ(loaded.rows(), m.rows());
  EXPECT_EQ(loaded.cols(), m.cols());
  ASSERT_EQ(loaded.nnz(), m.nnz());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(loaded.entries()[i], m.entries()[i]);
  }
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOPE and then some bytes";
  }
  EXPECT_THROW(load_binary(path_), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTruncatedFile) {
  const RatingMatrix m = sample();
  ASSERT_TRUE(save_binary(m, path_));
  std::filesystem::resize_file(path_, 22);  // cut inside the entry array
  EXPECT_THROW(load_binary(path_), std::runtime_error);
}

TEST_F(IoTest, GeneratedDatasetSurvivesBinaryRoundTrip) {
  const DatasetSpec spec = movielens20m_spec().scaled(0.0005);
  const RatingMatrix m = generate(spec, GeneratorConfig{});
  ASSERT_TRUE(save_binary(m, path_));
  const RatingMatrix loaded = load_binary(path_);
  ASSERT_EQ(loaded.nnz(), m.nnz());
  EXPECT_EQ(loaded.entries()[m.nnz() / 2], m.entries()[m.nnz() / 2]);
}

}  // namespace
}  // namespace hcc::data
