#include "data/rating_matrix.hpp"

#include <algorithm>
#include <cassert>

namespace hcc::data {

RatingMatrix::RatingMatrix(std::uint32_t rows, std::uint32_t cols,
                           std::vector<Rating> entries)
    : rows_(rows), cols_(cols), entries_(std::move(entries)) {
#ifndef NDEBUG
  for (const auto& e : entries_) {
    assert(e.u < rows_ && e.i < cols_);
  }
#endif
}

double RatingMatrix::density() const noexcept {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(entries_.size()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void RatingMatrix::add(std::uint32_t u, std::uint32_t i, float r) {
  assert(u < rows_ && i < cols_);
  entries_.push_back(Rating{u, i, r});
}

void RatingMatrix::append(std::span<const Rating> entries) {
#ifndef NDEBUG
  for (const auto& e : entries) {
    assert(e.u < rows_ && e.i < cols_);
  }
#endif
  entries_.insert(entries_.end(), entries.begin(), entries.end());
}

void RatingMatrix::shuffle(util::Rng& rng) { util::shuffle(entries_, rng); }

void RatingMatrix::permute(std::span<const std::uint32_t> perm) {
  assert(perm.size() == entries_.size());
#ifndef NDEBUG
  {
    std::vector<bool> seen(perm.size(), false);
    for (const std::uint32_t src : perm) {
      assert(src < entries_.size() && !seen[src] &&
             "permute() requires a permutation of [0, nnz)");
      seen[src] = true;
    }
  }
#endif
  std::vector<Rating> reordered;
  reordered.reserve(entries_.size());
  for (const std::uint32_t src : perm) reordered.push_back(entries_[src]);
  entries_ = std::move(reordered);
}

void RatingMatrix::sort_by_row() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Rating& a, const Rating& b) {
                     return a.u != b.u ? a.u < b.u : a.i < b.i;
                   });
}

std::vector<std::size_t> RatingMatrix::row_counts() const {
  std::vector<std::size_t> counts(rows_, 0);
  for (const auto& e : entries_) ++counts[e.u];
  return counts;
}

std::vector<std::size_t> RatingMatrix::col_counts() const {
  std::vector<std::size_t> counts(cols_, 0);
  for (const auto& e : entries_) ++counts[e.i];
  return counts;
}

RatingMatrix RatingMatrix::transposed() const {
  std::vector<Rating> flipped;
  flipped.reserve(entries_.size());
  for (const auto& e : entries_) flipped.push_back(Rating{e.i, e.u, e.r});
  return RatingMatrix(cols_, rows_, std::move(flipped));
}

RatingMatrix RatingMatrix::slice_rows(std::uint32_t row_begin,
                                      std::uint32_t row_end) const {
  assert(row_begin <= row_end && row_end <= rows_);
  const auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), row_begin,
      [](const Rating& e, std::uint32_t row) { return e.u < row; });
  const auto hi = std::lower_bound(
      lo, entries_.end(), row_end,
      [](const Rating& e, std::uint32_t row) { return e.u < row; });
  return RatingMatrix(rows_, cols_, std::vector<Rating>(lo, hi));
}

CsrIndex::CsrIndex(const RatingMatrix& matrix) {
  offsets_.assign(matrix.rows() + 1, 0);
  for (const auto& e : matrix.entries()) ++offsets_[e.u + 1];
  for (std::size_t r = 1; r < offsets_.size(); ++r) {
    offsets_[r] += offsets_[r - 1];
  }
#ifndef NDEBUG
  // Sorted-by-row precondition: entries of row r must occupy exactly
  // [offsets_[r], offsets_[r+1]).
  const auto entries = matrix.entries();
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t idx = offsets_[r]; idx < offsets_[r + 1]; ++idx) {
      assert(entries[idx].u == r && "CsrIndex requires sort_by_row()");
    }
  }
#endif
}

}  // namespace hcc::data
