// Test-only oracle: the LU basis engine as it stood before the pivot-queue
// rewrite of solver/basis.cc — an O(m) pivot-column scan per elimination
// step, every touched column rebuilt through a dense accumulator, and L/U
// held as per-step pair vectors. The production LuBasis must reproduce its
// pivot sequence, its factors and therefore its FTRAN/BTRAN results bit for
// bit; tests/basis_test.cc checks that on random, singular, tiny-entry and
// captured simplex bases. Do not "fix" or speed up this file: its value is
// that it is the old arithmetic, unchanged.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"

namespace arrow::solver::testing {

class LuOracle {
 public:
  // A sparse basis column: (row, value) pairs.
  using Column = std::vector<std::pair<int, double>>;

  // Factorizes the m columns as the new basis. Returns false if the matrix
  // is numerically singular.
  bool factorize(int m, const std::vector<Column>& columns, double pivot_tol);

  // x := B^{-1} b. Input in row space; output in basis-position space.
  void ftran(std::vector<double>& x) const;

  // y := B^{-T} c. Input in basis-position space; output in row space.
  void btran(std::vector<double>& y) const;

  // Replaces the basis column at `position`; `w` must be ftran() of the
  // entering column. Returns false if |w[position]| is below pivot_tol.
  bool update(int position, const std::vector<double>& w, double pivot_tol);

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

  void apply_eta(const Eta& eta, std::vector<double>& w) const;
  void apply_eta_transposed(const Eta& eta, std::vector<double>& z) const;

  int m_ = 0;
  // Elimination step k: pivot row/col, diagonal, L multipliers, U row.
  std::vector<int> pivot_row_;   // row space index per step
  std::vector<int> pivot_col_;   // basis-position index per step
  std::vector<double> diag_;
  std::vector<std::vector<std::pair<int, double>>> l_cols_;  // (row, mult)
  std::vector<std::vector<std::pair<int, double>>> u_rows_;  // (position, val)
  std::vector<Eta> etas_;
  std::vector<int> eta_pos_;     // off-pivot positions, all etas
  std::vector<double> eta_val_;  // matching values
  std::size_t lu_nnz_ = 0;
  std::size_t eta_nnz_ = 0;
};

namespace oracle_detail {
constexpr double kDropTol = 1e-12;
// Relative threshold for partial pivoting inside the Markowitz search: a
// pivot must be at least this fraction of the column's largest entry.
constexpr double kRelPivot = 0.05;
}  // namespace oracle_detail

inline bool LuOracle::factorize(int m, const std::vector<Column>& columns,
                                double pivot_tol) {
  ARROW_CHECK(static_cast<int>(columns.size()) == m, "basis size mismatch");
  m_ = m;
  pivot_row_.assign(static_cast<std::size_t>(m), -1);
  pivot_col_.assign(static_cast<std::size_t>(m), -1);
  diag_.assign(static_cast<std::size_t>(m), 0.0);
  l_cols_.assign(static_cast<std::size_t>(m), {});
  u_rows_.assign(static_cast<std::size_t>(m), {});
  etas_.clear();
  eta_pos_.clear();
  eta_val_.clear();
  lu_nnz_ = 0;
  eta_nnz_ = 0;

  // Working matrix, column-wise; entries may go stale when rows deactivate
  // (filtered on read). Rebuilt per touched column during updates.
  std::vector<Column> w(columns);
  std::vector<std::vector<int>> rows_cols(static_cast<std::size_t>(m));
  std::vector<int> col_nnz(static_cast<std::size_t>(m), 0);
  std::vector<int> row_nnz(static_cast<std::size_t>(m), 0);
  std::vector<char> row_active(static_cast<std::size_t>(m), 1);
  std::vector<char> col_active(static_cast<std::size_t>(m), 1);
  for (int j = 0; j < m; ++j) {
    col_nnz[static_cast<std::size_t>(j)] =
        static_cast<int>(w[static_cast<std::size_t>(j)].size());
    for (const auto& [r, v] : w[static_cast<std::size_t>(j)]) {
      (void)v;
      rows_cols[static_cast<std::size_t>(r)].push_back(j);
      ++row_nnz[static_cast<std::size_t>(r)];
    }
  }

  std::vector<double> acc(static_cast<std::size_t>(m), 0.0);
  std::vector<char> in_acc(static_cast<std::size_t>(m), 0);
  std::vector<int> acc_rows;
  acc_rows.reserve(static_cast<std::size_t>(m));

  for (int step = 0; step < m; ++step) {
    // --- pivot column: smallest active column count -----------------------
    int c = -1;
    int best_nnz = m + 1;
    for (int j = 0; j < m; ++j) {
      if (col_active[static_cast<std::size_t>(j)] &&
          col_nnz[static_cast<std::size_t>(j)] < best_nnz) {
        best_nnz = col_nnz[static_cast<std::size_t>(j)];
        c = j;
        if (best_nnz <= 1) break;
      }
    }
    if (c < 0) return false;

    // Gather active entries of column c.
    Column live;
    double colmax = 0.0;
    for (const auto& [r, v] : w[static_cast<std::size_t>(c)]) {
      if (row_active[static_cast<std::size_t>(r)]) {
        live.emplace_back(r, v);
        colmax = std::max(colmax, std::abs(v));
      }
    }
    if (colmax < pivot_tol) return false;  // singular

    // --- pivot row: smallest row count subject to threshold pivoting ------
    const double threshold = std::max(pivot_tol, oracle_detail::kRelPivot * colmax);
    int r = -1;
    int best_row_nnz = m + 1;
    double d = 0.0;
    for (const auto& [ri, v] : live) {
      if (std::abs(v) < threshold) continue;
      if (row_nnz[static_cast<std::size_t>(ri)] < best_row_nnz) {
        best_row_nnz = row_nnz[static_cast<std::size_t>(ri)];
        r = ri;
        d = v;
      }
    }
    ARROW_CHECK(r >= 0, "threshold pivoting found no candidate");

    pivot_row_[static_cast<std::size_t>(step)] = r;
    pivot_col_[static_cast<std::size_t>(step)] = c;
    diag_[static_cast<std::size_t>(step)] = d;

    auto& lcol = l_cols_[static_cast<std::size_t>(step)];
    for (const auto& [ri, v] : live) {
      if (ri != r && std::abs(v) > oracle_detail::kDropTol) {
        lcol.emplace_back(ri, v / d);
      }
    }
    lu_nnz_ += lcol.size() + 1;

    // Deactivate pivot row/column before the updates so rebuilds drop them.
    row_active[static_cast<std::size_t>(r)] = 0;
    col_active[static_cast<std::size_t>(c)] = 0;
    for (const auto& [ri, v] : live) {
      (void)v;
      if (row_active[static_cast<std::size_t>(ri)]) {
        --row_nnz[static_cast<std::size_t>(ri)];
      }
    }

    // --- eliminate: update every active column containing pivot row r -----
    auto& urow = u_rows_[static_cast<std::size_t>(step)];
    for (int cj : rows_cols[static_cast<std::size_t>(r)]) {
      if (!col_active[static_cast<std::size_t>(cj)]) continue;
      auto& col = w[static_cast<std::size_t>(cj)];
      double u = 0.0;
      bool found = false;
      for (const auto& [ri, v] : col) {
        if (ri == r) {
          u = v;
          found = true;
          break;
        }
      }
      if (!found || std::abs(u) <= oracle_detail::kDropTol) continue;
      urow.emplace_back(cj, u);

      // col := col - u * lcol, rebuilt through a dense accumulator.
      acc_rows.clear();
      for (const auto& [ri, v] : col) {
        if (!row_active[static_cast<std::size_t>(ri)]) continue;
        acc[static_cast<std::size_t>(ri)] = v;
        in_acc[static_cast<std::size_t>(ri)] = 1;
        acc_rows.push_back(ri);
      }
      for (const auto& [ri, l] : lcol) {
        if (!row_active[static_cast<std::size_t>(ri)]) continue;
        if (!in_acc[static_cast<std::size_t>(ri)]) {
          acc[static_cast<std::size_t>(ri)] = 0.0;
          in_acc[static_cast<std::size_t>(ri)] = 1;
          acc_rows.push_back(ri);
          rows_cols[static_cast<std::size_t>(ri)].push_back(cj);  // fill-in
          ++row_nnz[static_cast<std::size_t>(ri)];
        }
        acc[static_cast<std::size_t>(ri)] -= l * u;
      }
      Column rebuilt;
      rebuilt.reserve(acc_rows.size());
      for (int ri : acc_rows) {
        const double v = acc[static_cast<std::size_t>(ri)];
        if (std::abs(v) > oracle_detail::kDropTol) {
          rebuilt.emplace_back(ri, v);
        } else {
          --row_nnz[static_cast<std::size_t>(ri)];  // cancellation
        }
        in_acc[static_cast<std::size_t>(ri)] = 0;
      }
      col_nnz[static_cast<std::size_t>(cj)] = static_cast<int>(rebuilt.size());
      col.swap(rebuilt);
    }
    lu_nnz_ += urow.size();
  }
  return true;
}

inline void LuOracle::apply_eta(const Eta& eta, std::vector<double>& w) const {
  const double t = w[static_cast<std::size_t>(eta.pivot_pos)];
  if (t == 0.0) return;
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  for (int k = eta.start; k < eta.end; ++k) {
    w[static_cast<std::size_t>(pos[k])] += val[k] * t;
  }
  w[static_cast<std::size_t>(eta.pivot_pos)] = eta.pivot_val * t;
}

inline void LuOracle::apply_eta_transposed(const Eta& eta,
                                          std::vector<double>& z) const {
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  double s = eta.pivot_val * z[static_cast<std::size_t>(eta.pivot_pos)];
  for (int k = eta.start; k < eta.end; ++k) {
    s += val[k] * z[static_cast<std::size_t>(pos[k])];
  }
  z[static_cast<std::size_t>(eta.pivot_pos)] = s;
}

inline void LuOracle::ftran(std::vector<double>& x) const {
  ARROW_CHECK(static_cast<int>(x.size()) == m_, "ftran size mismatch");
  // L pass in elimination order (row space).
  for (int k = 0; k < m_; ++k) {
    const double v = x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (v == 0.0) continue;
    for (const auto& [ri, l] : l_cols_[static_cast<std::size_t>(k)]) {
      x[static_cast<std::size_t>(ri)] -= l * v;
    }
  }
  // U back substitution into basis-position space.
  std::vector<double> out(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double s = x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    for (const auto& [cj, u] : u_rows_[static_cast<std::size_t>(k)]) {
      s -= u * out[static_cast<std::size_t>(cj)];
    }
    out[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] =
        s / diag_[static_cast<std::size_t>(k)];
  }
  // Product-form updates (position space), in order.
  for (const Eta& eta : etas_) apply_eta(eta, out);
  x.swap(out);
}

inline void LuOracle::btran(std::vector<double>& y) const {
  ARROW_CHECK(static_cast<int>(y.size()) == m_, "btran size mismatch");
  // Update etas transposed, reverse order (position space).
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    apply_eta_transposed(*it, y);
  }
  // U^T forward substitution; y is consumed as the accumulator.
  std::vector<double> wk(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const double v =
        y[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] /
        diag_[static_cast<std::size_t>(k)];
    wk[static_cast<std::size_t>(k)] = v;
    if (v == 0.0) continue;
    for (const auto& [cj, u] : u_rows_[static_cast<std::size_t>(k)]) {
      y[static_cast<std::size_t>(cj)] -= u * v;
    }
  }
  // Map step index to row space and apply L^T in reverse.
  std::vector<double> z(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] =
        wk[static_cast<std::size_t>(k)];
  }
  for (int k = m_ - 1; k >= 0; --k) {
    double s = z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    bool changed = false;
    for (const auto& [ri, l] : l_cols_[static_cast<std::size_t>(k)]) {
      if (z[static_cast<std::size_t>(ri)] != 0.0) {
        s -= l * z[static_cast<std::size_t>(ri)];
        changed = true;
      }
    }
    if (changed) {
      z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = s;
    }
  }
  y.swap(z);
}

inline bool LuOracle::update(int position, const std::vector<double>& w,
                             double pivot_tol) {
  ARROW_CHECK(position >= 0 && position < m_, "update position out of range");
  const double pivot_value = w[static_cast<std::size_t>(position)];
  if (std::abs(pivot_value) < pivot_tol) return false;
  Eta eta;
  eta.pivot_pos = position;
  const double inv = 1.0 / pivot_value;
  eta.pivot_val = inv;
  eta.start = static_cast<int>(eta_pos_.size());
  for (int p = 0; p < m_; ++p) {
    const double v = w[static_cast<std::size_t>(p)];
    if (p != position && std::abs(v) > oracle_detail::kDropTol) {
      eta_pos_.push_back(p);
      eta_val_.push_back(-v * inv);
    }
  }
  eta.end = static_cast<int>(eta_pos_.size());
  eta_nnz_ += static_cast<std::size_t>(eta.end - eta.start) + 1;
  etas_.push_back(eta);
  return true;
}

}  // namespace arrow::solver::testing
