// Sparse rating matrix storage.
//
// The rating matrix R of an MF problem is stored in coordinate (COO) form —
// the natural format for SGD, which visits ratings one by one — with helpers
// to shuffle (SGD wants random visit order), sort by row (the paper's
// cache-hit-rate modification to CuMF_SGD's grid problem), and convert to CSR
// (used by the FPSGD block scheduler and by per-row accounting).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace hcc::data {

/// One observed rating: user row `u`, item column `i`, value `r`.
struct Rating {
  std::uint32_t u = 0;
  std::uint32_t i = 0;
  float r = 0.0f;
  friend bool operator==(const Rating&, const Rating&) = default;
};

/// COO sparse matrix of observed ratings with known dimensions.
class RatingMatrix {
 public:
  RatingMatrix() = default;

  /// Creates an empty matrix of logical size rows x cols.
  RatingMatrix(std::uint32_t rows, std::uint32_t cols)
      : rows_(rows), cols_(cols) {}

  /// Creates a matrix from existing entries (entries may be unsorted).
  RatingMatrix(std::uint32_t rows, std::uint32_t cols,
               std::vector<Rating> entries);

  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return entries_.size(); }

  /// Fraction of cells observed: nnz / (rows * cols).
  double density() const noexcept;

  std::span<const Rating> entries() const noexcept { return entries_; }
  std::span<Rating> mutable_entries() noexcept { return entries_; }

  /// Appends one rating (bounds-checked with assert in debug builds).
  void add(std::uint32_t u, std::uint32_t i, float r);
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Bulk append: one reserve + one contiguous insert (bounds-checked with
  /// assert in debug builds) — the degraded-mode repartition path absorbs
  /// whole entry batches this way instead of O(entries) add() calls.
  void append(std::span<const Rating> entries);

  /// Randomizes visit order (step 1 of the paper's preprocessing).
  void shuffle(util::Rng& rng);

  /// Reorders entries by an arbitrary permutation of [0, nnz):
  /// new_entries[j] = old_entries[perm[j]].  The rating scheduler
  /// (data/schedule.hpp) visits through this; `perm` must be a valid
  /// permutation (checked with asserts in debug builds).
  void permute(std::span<const std::uint32_t> perm);

  /// Stable-sorts entries by row then column; improves cache hit rate for
  /// row-major factor access (the paper's CuMF_SGD modification iii).
  void sort_by_row();

  /// Per-row nonzero counts; used by the grid partitioner to split rows so
  /// each worker receives its target *fraction of ratings*, not of rows.
  std::vector<std::size_t> row_counts() const;
  std::vector<std::size_t> col_counts() const;

  /// Returns the transposed matrix (swaps the roles of users and items);
  /// the paper switches to column grids / "Transmitting P only" this way.
  RatingMatrix transposed() const;

  /// Extracts the sub-matrix containing rows [row_begin, row_end).  Entry
  /// coordinates keep their global row ids, as HCC-MF workers index into the
  /// shared global P.  Requires entries sorted by row.
  RatingMatrix slice_rows(std::uint32_t row_begin, std::uint32_t row_end) const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<Rating> entries_;
};

/// Compressed-sparse-row index over a RatingMatrix (values stay in the COO
/// entry array; this holds offsets).  Build once after sort_by_row().
class CsrIndex {
 public:
  CsrIndex() = default;

  /// Builds offsets; `matrix` must already be sorted by row.
  explicit CsrIndex(const RatingMatrix& matrix);

  /// Half-open entry range [begin(r), end(r)) of row r in the entry array.
  std::size_t begin(std::uint32_t row) const { return offsets_[row]; }
  std::size_t end(std::uint32_t row) const { return offsets_[row + 1]; }

  std::uint32_t rows() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }

 private:
  std::vector<std::size_t> offsets_;
};

}  // namespace hcc::data
