// Simplex basis representation: Markowitz-ordered sparse LU factorization
// with product-form eta updates between refactorizations.
//
// B^{-1} is applied as   (update etas) ∘ U^{-1} ∘ L^{-1}   where L and U come
// from a right-looking sparse Gaussian elimination whose pivots are chosen to
// keep fill low (smallest active column, then smallest row count subject to
// threshold partial pivoting). Update etas act in basis-position space.
//
// The pivot column comes off a bitmap of the columns with at most one entry
// or else a lazily invalidated min-queue (O(log m) per count change instead
// of an O(m) scan per step), singleton eliminations cost O(1) per touched
// column (tombstones plus position hints), and L/U live in flat arrays. The
// pivot sequence and the order of every L/U entry are those of the original
// O(m^2) column-scan elimination (kept as tests/lu_oracle.h), so FTRAN and
// BTRAN results are bit-identical to it.
//
// Besides the dense solves there are hypersparse ones on IndexedVector:
// they visit only the steps a right-hand side reaches through the L/U
// structure, in step order, and cost what they touch plus a pass over m/64
// bitmap words instead of O(m). Their nonzeros are bit-identical to the
// dense solves' (docs/solver.md, "Hypersparse solves").
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "solver/lp.h"

namespace arrow::solver {

// A length-m vector that knows where its nonzeros are: `values` is dense
// and zero outside `index`, and `index` lists every nonzero position once
// (it may also list positions whose value is zero).
struct IndexedVector {
  std::vector<double> values;
  std::vector<int> index;

  // Size m, all zero, empty index.
  void reset(int m);
  // Zeroes the listed entries and empties the index: O(|index|).
  void clear();
};

class LuBasis {
 public:
  // Factorizes the basis whose position p holds column cols[p] of `a`
  // (a.rows == cols.size()). Returns false if the matrix is numerically
  // singular.
  bool factorize(const SparseMatrix& a, const std::vector<int>& cols,
                 double pivot_tol);

  // x := B^{-1} b. Input in row space; output in basis-position space.
  // Swaps x with an internal buffer, so x's storage changes identity.
  void ftran(std::vector<double>& x);

  // y := B^{-T} c. Input in basis-position space; output in row space.
  // Swaps y with an internal buffer, like ftran().
  void btran(std::vector<double>& y);

  // Hypersparse x := B^{-1} b. Input in row space (index in any order);
  // output in basis-position space with an ascending index. Every nonzero
  // is bit-identical to the dense ftran(); an entry the dense solve leaves
  // at -0.0 may come back as +0.0. x.values must have size m.
  void ftran(IndexedVector& x);

  // Hypersparse y := B^{-T} c. Input in basis-position space; output in
  // row space with an ascending index. Same contract as ftran(IndexedVector&).
  void btran(IndexedVector& y);

  // Replaces the basis column at `position`; `w` must be the hypersparse
  // ftran() of the entering column (ascending index). Returns false if
  // |w[position]| is below pivot_tol.
  bool update(int position, const IndexedVector& w, double pivot_tol);

  int updates_since_factorize() const { return static_cast<int>(etas_.size()); }
  // Nonzeros in L + U + update etas: the per-ftran/btran work estimate.
  std::size_t work_nnz() const { return lu_nnz_ + eta_nnz_; }
  std::size_t factor_nnz() const { return lu_nnz_; }

 private:
  // Update etas in structure-of-arrays form: the pivot (position, 1/value)
  // lives in the Eta record, the off-pivot entries in the shared contiguous
  // eta_pos_/eta_val_ pools. The apply loops are then branch-free axpy /
  // sparse-dot kernels over plain arrays instead of walking per-eta
  // pair-vectors with an in-loop pivot test.
  struct Eta {
    int pivot_pos = -1;
    double pivot_val = 0.0;  // 1 / entering pivot value
    int start = 0;           // [start, end) into eta_pos_ / eta_val_
    int end = 0;
  };

  // Elimination workspace. It outlives each factorize() call so that
  // refactorizations of a same-sized basis allocate nothing.
  struct Workspace {
    // Active submatrix, column-wise. Entries of deactivated rows are
    // filtered on read; a column rewritten by an elimination holds only
    // active rows with |value| > drop tolerance. A singleton step leaves a
    // clean column's entry in the pivot row in place as a tombstone (value
    // 0, row inactive) instead of compacting the column.
    std::vector<std::vector<std::pair<int, double>>> cols;
    // Per row: (column, position hint) for a superset of the columns
    // holding an entry in that row (see the fill-in note in basis.cc). The
    // hint is where the row's entry sat in cols[column] when it was listed;
    // a rewrite of the column can make it stale, so it is checked on use.
    std::vector<std::vector<std::pair<int, int>>> rows_cols;
    // Column may hold an input entry with |value| <= drop tolerance in an
    // active row ("dirty"); such a column is filtered in full by its first
    // singleton step. Every rewrite leaves a column clean.
    std::vector<char> col_dirty;
    std::vector<int> col_nnz;
    std::vector<int> row_nnz;
    std::vector<char> row_active;
    std::vector<char> col_active;
    // Active columns with at most one entry, as a bitmap; the others as a
    // min-heap of (col_nnz << 32 | column) keys, lazily invalidated.
    std::vector<std::uint64_t> ready;
    std::vector<std::uint64_t> queue;
    std::vector<std::pair<int, double>> live;     // pivot column, active rows
    std::vector<std::pair<int, double>> rebuilt;  // next image of a column
    std::vector<double> acc;                      // dense accumulator
    std::vector<char> in_acc;
    std::vector<int> acc_rows;
  };

  void apply_eta(const Eta& eta, std::vector<double>& w) const;
  void apply_eta_transposed(const Eta& eta, std::vector<double>& z) const;

  // Builds step_of_row_/step_of_pos_ and the transposed L/U step graphs.
  void build_reach_structure();

  int m_ = 0;
  // Elimination step k: pivot row/col and diagonal; its L multipliers are
  // [l_start_[k], l_start_[k + 1]) of l_row_/l_val_ and its U row is
  // [u_start_[k], u_start_[k + 1]) of u_col_/u_val_.
  std::vector<int> pivot_row_;   // row space index per step
  std::vector<int> pivot_col_;   // basis-position index per step
  std::vector<double> diag_;
  std::vector<int> l_start_;
  std::vector<int> l_row_;
  std::vector<double> l_val_;
  std::vector<int> u_start_;
  std::vector<int> u_col_;       // basis positions
  std::vector<double> u_val_;
  std::vector<Eta> etas_;
  std::vector<int> eta_pos_;     // off-pivot positions, all etas
  std::vector<double> eta_val_;  // matching values
  std::size_t lu_nnz_ = 0;
  std::size_t eta_nnz_ = 0;
  std::vector<double> solve_buf_;  // ftran/btran output, swapped with caller's

  // Reach structure of the hypersparse solves, built by factorize(): the
  // step of each pivot row and pivot position, and the two dependency
  // graphs the row-dot passes follow, flat CSR over producing steps.
  // ut: step k -> steps whose U row holds position pivot_col_[k];
  // lt: step k -> steps whose L multipliers hold row pivot_row_[k].
  std::vector<int> step_of_row_;
  std::vector<int> step_of_pos_;
  std::vector<int> ut_start_;
  std::vector<int> ut_step_;
  std::vector<int> lt_start_;
  std::vector<int> lt_step_;
  // Hypersparse workspace, reused across calls: the steps a pass visited,
  // a step bitmap (all zero between passes), the result's index bitmap
  // (all zero between calls), and an all-zero length-m buffer that is
  // swapped with the caller's values.
  std::vector<int> steps_;
  std::vector<std::uint64_t> step_bits_;
  std::vector<std::uint64_t> out_bits_;
  std::vector<double> zero_buf_;
  Workspace work_;
};

}  // namespace arrow::solver
