#include "solver/basis.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace arrow::solver {

namespace {
constexpr double kDropTol = 1e-12;
// Relative threshold for partial pivoting inside the Markowitz search: a
// pivot must be at least this fraction of the column's largest entry.
constexpr double kRelPivot = 0.05;

// Pivot-queue key. Counts 0 and 1 share a key so that the first column in
// index order with at most one entry wins, exactly like the column scan it
// replaces (which stopped at the first such column).
std::uint64_t column_key(int nnz, int col) {
  return (static_cast<std::uint64_t>(std::max(nnz, 1)) << 32) |
         static_cast<std::uint32_t>(col);
}
}  // namespace

bool LuBasis::factorize(const SparseMatrix& a, const std::vector<int>& cols,
                        double pivot_tol) {
  const int m = static_cast<int>(cols.size());
  ARROW_CHECK(a.rows == m, "basis size mismatch");
  const auto um = static_cast<std::size_t>(m);
  m_ = m;
  pivot_row_.assign(um, -1);
  pivot_col_.assign(um, -1);
  diag_.assign(um, 0.0);
  l_start_.assign(1, 0);
  l_row_.clear();
  l_val_.clear();
  u_start_.assign(1, 0);
  u_col_.clear();
  u_val_.clear();
  etas_.clear();
  eta_pos_.clear();
  eta_val_.clear();
  lu_nnz_ = 0;
  eta_nnz_ = 0;

  Workspace& ws = work_;
  ws.cols.resize(um);
  ws.rows_cols.resize(um);
  for (auto& rc : ws.rows_cols) rc.clear();
  ws.col_nnz.assign(um, 0);
  ws.row_nnz.assign(um, 0);
  ws.row_active.assign(um, 1);
  ws.col_active.assign(um, 1);
  ws.acc.assign(um, 0.0);
  ws.in_acc.assign(um, 0);
  ws.queue.clear();
  for (int p = 0; p < m; ++p) {
    const int j = cols[static_cast<std::size_t>(p)];
    auto& col = ws.cols[static_cast<std::size_t>(p)];
    col.clear();
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      const int r = a.row_index[static_cast<std::size_t>(k)];
      col.emplace_back(r, a.value[static_cast<std::size_t>(k)]);
      ws.rows_cols[static_cast<std::size_t>(r)].push_back(p);
      ++ws.row_nnz[static_cast<std::size_t>(r)];
    }
    ws.col_nnz[static_cast<std::size_t>(p)] = static_cast<int>(col.size());
    ws.queue.push_back(column_key(static_cast<int>(col.size()), p));
  }
  const auto later = std::greater<std::uint64_t>();
  std::make_heap(ws.queue.begin(), ws.queue.end(), later);

  for (int step = 0; step < m; ++step) {
    // --- pivot column: smallest active column count -----------------------
    // Every active column has a queue entry carrying its current key; an
    // entry whose column was pivoted or whose count moved on is stale.
    int c = -1;
    while (!ws.queue.empty()) {
      std::pop_heap(ws.queue.begin(), ws.queue.end(), later);
      const std::uint64_t key = ws.queue.back();
      ws.queue.pop_back();
      const int j = static_cast<int>(key & 0xffffffffu);
      if (ws.col_active[static_cast<std::size_t>(j)] &&
          key == column_key(ws.col_nnz[static_cast<std::size_t>(j)], j)) {
        c = j;
        break;
      }
    }
    if (c < 0) return false;

    // Gather active entries of column c.
    ws.live.clear();
    double colmax = 0.0;
    for (const auto& [r, v] : ws.cols[static_cast<std::size_t>(c)]) {
      if (ws.row_active[static_cast<std::size_t>(r)]) {
        ws.live.emplace_back(r, v);
        colmax = std::max(colmax, std::abs(v));
      }
    }
    if (colmax < pivot_tol) return false;  // singular

    // --- pivot row: smallest row count subject to threshold pivoting ------
    const double threshold = std::max(pivot_tol, kRelPivot * colmax);
    int r = -1;
    int best_row_nnz = m + 1;
    double d = 0.0;
    for (const auto& [ri, v] : ws.live) {
      if (std::abs(v) < threshold) continue;
      if (ws.row_nnz[static_cast<std::size_t>(ri)] < best_row_nnz) {
        best_row_nnz = ws.row_nnz[static_cast<std::size_t>(ri)];
        r = ri;
        d = v;
      }
    }
    ARROW_CHECK(r >= 0, "threshold pivoting found no candidate");

    pivot_row_[static_cast<std::size_t>(step)] = r;
    pivot_col_[static_cast<std::size_t>(step)] = c;
    diag_[static_cast<std::size_t>(step)] = d;

    const std::size_t l_begin = l_row_.size();
    for (const auto& [ri, v] : ws.live) {
      if (ri != r && std::abs(v) > kDropTol) {
        l_row_.push_back(ri);
        l_val_.push_back(v / d);
      }
    }
    const std::size_t l_end = l_row_.size();
    l_start_.push_back(static_cast<int>(l_end));
    lu_nnz_ += l_end - l_begin + 1;

    // Deactivate pivot row/column before the updates so rewrites drop them.
    ws.row_active[static_cast<std::size_t>(r)] = 0;
    ws.col_active[static_cast<std::size_t>(c)] = 0;
    for (const auto& [ri, v] : ws.live) {
      (void)v;
      if (ws.row_active[static_cast<std::size_t>(ri)]) {
        --ws.row_nnz[static_cast<std::size_t>(ri)];
      }
    }

    // --- eliminate: update every active column containing pivot row r -----
    // rows_cols[r] may list a column twice: a fill entry that cancelled
    // leaves its column in the row's list, and a later refill pushes it
    // again. The second visit is a no-op because the first one removed row
    // r from the column, so the U row and every count come out the same as
    // with a duplicate-free list.
    const std::size_t u_begin = u_col_.size();
    for (int cj : ws.rows_cols[static_cast<std::size_t>(r)]) {
      if (!ws.col_active[static_cast<std::size_t>(cj)]) continue;
      auto& col = ws.cols[static_cast<std::size_t>(cj)];
      double u = 0.0;
      bool found = false;
      for (const auto& [ri, v] : col) {
        if (ri == r) {
          u = v;
          found = true;
          break;
        }
      }
      if (!found || std::abs(u) <= kDropTol) continue;
      u_col_.push_back(cj);
      u_val_.push_back(u);

      const int old_nnz = ws.col_nnz[static_cast<std::size_t>(cj)];
      if (l_begin == l_end) {
        // Singleton step (no multipliers): the column keeps its values and
        // order and only loses deactivated rows (r among them) and
        // below-tolerance input entries — filtered in place.
        std::size_t kept = 0;
        for (const auto& e : col) {
          if (!ws.row_active[static_cast<std::size_t>(e.first)]) continue;
          if (std::abs(e.second) > kDropTol) {
            col[kept++] = e;
          } else {
            --ws.row_nnz[static_cast<std::size_t>(e.first)];
          }
        }
        col.resize(kept);
      } else {
        // col := col - u * lcol, rebuilt through a dense accumulator:
        // surviving entries in column order, then fill in L order.
        ws.acc_rows.clear();
        for (const auto& [ri, v] : col) {
          if (!ws.row_active[static_cast<std::size_t>(ri)]) continue;
          ws.acc[static_cast<std::size_t>(ri)] = v;
          ws.in_acc[static_cast<std::size_t>(ri)] = 1;
          ws.acc_rows.push_back(ri);
        }
        for (std::size_t e = l_begin; e < l_end; ++e) {
          const int ri = l_row_[e];
          const double l = l_val_[e];
          if (!ws.in_acc[static_cast<std::size_t>(ri)]) {
            ws.acc[static_cast<std::size_t>(ri)] = 0.0;
            ws.in_acc[static_cast<std::size_t>(ri)] = 1;
            ws.acc_rows.push_back(ri);
            ws.rows_cols[static_cast<std::size_t>(ri)].push_back(cj);  // fill
            ++ws.row_nnz[static_cast<std::size_t>(ri)];
          }
          ws.acc[static_cast<std::size_t>(ri)] -= l * u;
        }
        ws.rebuilt.clear();
        for (int ri : ws.acc_rows) {
          const double v = ws.acc[static_cast<std::size_t>(ri)];
          if (std::abs(v) > kDropTol) {
            ws.rebuilt.emplace_back(ri, v);
          } else {
            --ws.row_nnz[static_cast<std::size_t>(ri)];  // cancellation
          }
          ws.in_acc[static_cast<std::size_t>(ri)] = 0;
        }
        col.swap(ws.rebuilt);
      }
      const int new_nnz = static_cast<int>(col.size());
      ws.col_nnz[static_cast<std::size_t>(cj)] = new_nnz;
      if (column_key(new_nnz, cj) != column_key(old_nnz, cj)) {
        ws.queue.push_back(column_key(new_nnz, cj));
        std::push_heap(ws.queue.begin(), ws.queue.end(), later);
      }
    }
    u_start_.push_back(static_cast<int>(u_col_.size()));
    lu_nnz_ += u_col_.size() - u_begin;
  }
  return true;
}

void LuBasis::apply_eta(const Eta& eta, std::vector<double>& w) const {
  const double t = w[static_cast<std::size_t>(eta.pivot_pos)];
  if (t == 0.0) return;
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  for (int k = eta.start; k < eta.end; ++k) {
    w[static_cast<std::size_t>(pos[k])] += val[k] * t;
  }
  w[static_cast<std::size_t>(eta.pivot_pos)] = eta.pivot_val * t;
}

void LuBasis::apply_eta_transposed(const Eta& eta,
                                   std::vector<double>& z) const {
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  double s = eta.pivot_val * z[static_cast<std::size_t>(eta.pivot_pos)];
  for (int k = eta.start; k < eta.end; ++k) {
    s += val[k] * z[static_cast<std::size_t>(pos[k])];
  }
  z[static_cast<std::size_t>(eta.pivot_pos)] = s;
}

void LuBasis::ftran(std::vector<double>& x) {
  ARROW_CHECK(static_cast<int>(x.size()) == m_, "ftran size mismatch");
  // L pass in elimination order (row space).
  for (int k = 0; k < m_; ++k) {
    const double v = x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (v == 0.0) continue;
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      x[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(e)])] -=
          l_val_[static_cast<std::size_t>(e)] * v;
    }
  }
  // U back substitution into basis-position space. Every U entry of step k
  // points at a position pivoted later, so each read of `out` finds a value
  // this pass already wrote and the buffer needs no clearing.
  solve_buf_.resize(static_cast<std::size_t>(m_));
  std::vector<double>& out = solve_buf_;
  for (int k = m_ - 1; k >= 0; --k) {
    double s = x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      s -= u_val_[static_cast<std::size_t>(e)] *
           out[static_cast<std::size_t>(u_col_[static_cast<std::size_t>(e)])];
    }
    out[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] =
        s / diag_[static_cast<std::size_t>(k)];
  }
  // Product-form updates (position space), in order.
  for (const Eta& eta : etas_) apply_eta(eta, out);
  x.swap(out);
}

void LuBasis::btran(std::vector<double>& y) {
  ARROW_CHECK(static_cast<int>(y.size()) == m_, "btran size mismatch");
  // Update etas transposed, reverse order (position space).
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    apply_eta_transposed(*it, y);
  }
  // U^T forward substitution; y is consumed as the accumulator and step k's
  // result lands in row space at z[pivot_row[k]] (pivot rows cover every
  // row, so z needs no clearing).
  solve_buf_.resize(static_cast<std::size_t>(m_));
  std::vector<double>& z = solve_buf_;
  for (int k = 0; k < m_; ++k) {
    const double v =
        y[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] /
        diag_[static_cast<std::size_t>(k)];
    z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = v;
    if (v == 0.0) continue;
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      y[static_cast<std::size_t>(u_col_[static_cast<std::size_t>(e)])] -=
          u_val_[static_cast<std::size_t>(e)] * v;
    }
  }
  // L^T in reverse elimination order.
  for (int k = m_ - 1; k >= 0; --k) {
    double s = z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    bool changed = false;
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      const double zr = z[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(e)])];
      if (zr != 0.0) {
        s -= l_val_[static_cast<std::size_t>(e)] * zr;
        changed = true;
      }
    }
    if (changed) {
      z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = s;
    }
  }
  y.swap(z);
}

bool LuBasis::update(int position, const std::vector<double>& w,
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
    if (p != position && std::abs(v) > kDropTol) {
      eta_pos_.push_back(p);
      eta_val_.push_back(-v * inv);
    }
  }
  eta.end = static_cast<int>(eta_pos_.size());
  eta_nnz_ += static_cast<std::size_t>(eta.end - eta.start) + 1;
  etas_.push_back(eta);
  return true;
}

}  // namespace arrow::solver
