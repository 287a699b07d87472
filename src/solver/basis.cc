#include "solver/basis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace arrow::solver {

namespace {
constexpr double kDropTol = 1e-12;
// Relative threshold for partial pivoting inside the Markowitz search: a
// pivot must be at least this fraction of the column's largest entry.
constexpr double kRelPivot = 0.05;

// Pivot-queue key of a column with nnz >= 2 entries: lowest count, then
// lowest index.
std::uint64_t column_key(int nnz, int col) {
  return (static_cast<std::uint64_t>(nnz) << 32) |
         static_cast<std::uint32_t>(col);
}

// Bitmaps over steps, positions or rows (64 per word).
void set_bit(std::vector<std::uint64_t>& bits, int i) {
  bits[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
}

bool test_bit(const std::vector<std::uint64_t>& bits, int i) {
  return (bits[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1u;
}

void clear_bit(std::vector<std::uint64_t>& bits, int i) {
  bits[static_cast<std::size_t>(i) >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

// Visits the marked steps in ascending order, unmarking each before
// visit(k) runs. visit may mark further steps, all above k, and they are
// visited in turn. Costs one pass over the words plus the visits.
template <class Visit>
void sweep_up(std::vector<std::uint64_t>& bits, Visit visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    while (bits[w] != 0) {
      const int b = std::countr_zero(bits[w]);
      bits[w] &= bits[w] - 1;
      visit(static_cast<int>(w * 64) + b);
    }
  }
}

// The same in descending order: visit may mark further steps below k.
template <class Visit>
void sweep_down(std::vector<std::uint64_t>& bits, Visit visit) {
  for (std::size_t w = bits.size(); w-- > 0;) {
    while (bits[w] != 0) {
      const int b = 63 - std::countl_zero(bits[w]);
      bits[w] &= ~(std::uint64_t{1} << b);
      visit(static_cast<int>(w * 64) + b);
    }
  }
}

// Replaces `list` with the marked indices in ascending order and unmarks
// them.
void drain_ascending(std::vector<std::uint64_t>& bits, std::vector<int>& list) {
  list.clear();
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      list.push_back(static_cast<int>(w * 64) + std::countr_zero(word));
    }
    bits[w] = 0;
  }
}
}  // namespace

void IndexedVector::reset(int m) {
  values.assign(static_cast<std::size_t>(m), 0.0);
  index.clear();
}

void IndexedVector::clear() {
  for (int i : index) values[static_cast<std::size_t>(i)] = 0.0;
  index.clear();
}

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
  ws.col_dirty.assign(um, 0);
  ws.col_nnz.assign(um, 0);
  ws.row_nnz.assign(um, 0);
  ws.row_active.assign(um, 1);
  ws.col_active.assign(um, 1);
  ws.acc.assign(um, 0.0);
  ws.in_acc.assign(um, 0);
  ws.ready.assign((um + 63) / 64, 0);
  ws.queue.clear();
  for (int p = 0; p < m; ++p) {
    const int j = cols[static_cast<std::size_t>(p)];
    auto& col = ws.cols[static_cast<std::size_t>(p)];
    col.clear();
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      const int r = a.row_index[static_cast<std::size_t>(k)];
      const double v = a.value[static_cast<std::size_t>(k)];
      ws.rows_cols[static_cast<std::size_t>(r)].emplace_back(
          p, static_cast<int>(col.size()));
      col.emplace_back(r, v);
      ++ws.row_nnz[static_cast<std::size_t>(r)];
      if (std::abs(v) <= kDropTol) ws.col_dirty[static_cast<std::size_t>(p)] = 1;
    }
    const int nnz = static_cast<int>(col.size());
    ws.col_nnz[static_cast<std::size_t>(p)] = nnz;
    if (nnz <= 1) {
      set_bit(ws.ready, p);
    } else {
      ws.queue.push_back(column_key(nnz, p));
    }
  }
  const auto later = std::greater<std::uint64_t>();
  std::make_heap(ws.queue.begin(), ws.queue.end(), later);
  std::size_t ready_lo = 0;  // no ready bit below this word

  for (int step = 0; step < m; ++step) {
    // --- pivot column: smallest active column count -----------------------
    // The first column in index order with at most one entry wins, exactly
    // like the column scan this replaces (which stopped at the first such
    // column). Otherwise the queue holds a key for every active column with
    // its current count; an entry whose column was pivoted or whose count
    // moved on is stale.
    int c = -1;
    while (ready_lo < ws.ready.size() && ws.ready[ready_lo] == 0) ++ready_lo;
    if (ready_lo < ws.ready.size()) {
      c = static_cast<int>(ready_lo * 64) + std::countr_zero(ws.ready[ready_lo]);
      clear_bit(ws.ready, c);
    }
    while (c < 0 && !ws.queue.empty()) {
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
    // r from the column (or tombstoned it to 0), so the U row and every
    // count come out the same as with a duplicate-free list.
    const std::size_t u_begin = u_col_.size();
    for (const auto& [cj, hint] : ws.rows_cols[static_cast<std::size_t>(r)]) {
      if (!ws.col_active[static_cast<std::size_t>(cj)]) continue;
      auto& col = ws.cols[static_cast<std::size_t>(cj)];
      // Row r's entry: where the hint says if it is still there, else by a
      // scan (the column was rewritten since the hint was taken).
      std::size_t at = static_cast<std::size_t>(hint);
      if (hint < 0 || at >= col.size() || col[at].first != r) {
        at = 0;
        while (at < col.size() && col[at].first != r) ++at;
      }
      if (at == col.size()) continue;
      const double u = col[at].second;
      if (std::abs(u) <= kDropTol) continue;
      u_col_.push_back(cj);
      u_val_.push_back(u);

      const int old_nnz = ws.col_nnz[static_cast<std::size_t>(cj)];
      int new_nnz;
      if (l_begin == l_end && !ws.col_dirty[static_cast<std::size_t>(cj)]) {
        // Singleton step (no multipliers) on a clean column: every entry
        // outside row r is in an active row and above the drop tolerance,
        // so the column loses exactly row r. Tombstone it in place.
        col[at].second = 0.0;
        new_nnz = old_nnz - 1;
      } else if (l_begin == l_end) {
        // Singleton step on a dirty column: the column keeps its values
        // and order and only loses deactivated rows (r among them) and
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
        ws.col_dirty[static_cast<std::size_t>(cj)] = 0;
        new_nnz = static_cast<int>(kept);
      } else {
        // col := col - u * lcol, rebuilt through a dense accumulator:
        // surviving entries in column order, then fill in L order. in_acc
        // is 2 for a fill, whose rows_cols entry (the last of its row's
        // list: a row appears once in L) gets its position below.
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
            ws.in_acc[static_cast<std::size_t>(ri)] = 2;
            ws.acc_rows.push_back(ri);
            ws.rows_cols[static_cast<std::size_t>(ri)].emplace_back(cj, -1);
            ++ws.row_nnz[static_cast<std::size_t>(ri)];
          }
          ws.acc[static_cast<std::size_t>(ri)] -= l * u;
        }
        ws.rebuilt.clear();
        for (int ri : ws.acc_rows) {
          const double v = ws.acc[static_cast<std::size_t>(ri)];
          if (std::abs(v) > kDropTol) {
            if (ws.in_acc[static_cast<std::size_t>(ri)] == 2) {
              ws.rows_cols[static_cast<std::size_t>(ri)].back().second =
                  static_cast<int>(ws.rebuilt.size());
            }
            ws.rebuilt.emplace_back(ri, v);
          } else {
            --ws.row_nnz[static_cast<std::size_t>(ri)];  // cancellation
          }
          ws.in_acc[static_cast<std::size_t>(ri)] = 0;
        }
        col.swap(ws.rebuilt);
        ws.col_dirty[static_cast<std::size_t>(cj)] = 0;
        new_nnz = static_cast<int>(col.size());
      }
      // A column never leaves the ready bitmap by growing: singleton steps
      // only shrink columns, and a step with multipliers only runs once no
      // active column has at most one entry.
      ws.col_nnz[static_cast<std::size_t>(cj)] = new_nnz;
      if (new_nnz <= 1) {
        set_bit(ws.ready, cj);
        ready_lo = std::min(ready_lo, static_cast<std::size_t>(cj) >> 6);
      } else if (new_nnz != old_nnz) {
        ws.queue.push_back(column_key(new_nnz, cj));
        std::push_heap(ws.queue.begin(), ws.queue.end(), later);
      }
    }
    u_start_.push_back(static_cast<int>(u_col_.size()));
    lu_nnz_ += u_col_.size() - u_begin;
  }
  build_reach_structure();
  return true;
}

void LuBasis::build_reach_structure() {
  const auto um = static_cast<std::size_t>(m_);
  step_of_row_.resize(um);
  step_of_pos_.resize(um);
  for (int k = 0; k < m_; ++k) {
    step_of_row_[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = k;
    step_of_pos_[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] = k;
  }
  // Counting-sort transposes: the producing step of each U entry is the
  // step that pivoted its position, of each L entry the step that pivoted
  // its row. Consumers land in ascending step order.
  auto transpose = [&](const std::vector<int>& start,
                       const std::vector<int>& target,
                       const std::vector<int>& producer,
                       std::vector<int>& out_start, std::vector<int>& out) {
    out_start.assign(um + 1, 0);
    for (int t : target) {
      ++out_start[static_cast<std::size_t>(producer[static_cast<std::size_t>(t)]) + 1];
    }
    for (std::size_t k = 0; k < um; ++k) out_start[k + 1] += out_start[k];
    out.resize(target.size());
    steps_.assign(out_start.begin(), out_start.end() - 1);  // fill cursors
    for (int k = 0; k < m_; ++k) {
      for (int e = start[static_cast<std::size_t>(k)];
           e < start[static_cast<std::size_t>(k) + 1]; ++e) {
        const int p = producer[static_cast<std::size_t>(target[static_cast<std::size_t>(e)])];
        out[static_cast<std::size_t>(steps_[static_cast<std::size_t>(p)]++)] = k;
      }
    }
  };
  transpose(u_start_, u_col_, step_of_pos_, ut_start_, ut_step_);
  transpose(l_start_, l_row_, step_of_row_, lt_start_, lt_step_);
  steps_.clear();
  step_bits_.assign((um + 63) / 64, 0);
  out_bits_.assign((um + 63) / 64, 0);
  zero_buf_.assign(um, 0.0);
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

// Hypersparse FTRAN. A pass visits only the steps the right-hand side
// reaches: each visit marks the steps its result feeds (L multipliers in
// the L pass, Uᵀ consumers in the U pass) in a step bitmap, and a sweep
// over that bitmap takes them in step order. The L pass scatters columns,
// so a row accumulates its terms in the order of the steps that reach it:
// ascending, as in the dense pass. The U pass is a row dot per step whose
// terms come in storage order; it runs in descending step order, which is
// the dense order and a topological one.
void LuBasis::ftran(IndexedVector& x) {
  ARROW_CHECK(static_cast<int>(x.values.size()) == m_, "ftran size mismatch");
  std::vector<double>& v = x.values;  // row space
  for (int r : x.index) {
    if (v[static_cast<std::size_t>(r)] != 0.0) {
      set_bit(step_bits_, step_of_row_[static_cast<std::size_t>(r)]);
    }
  }
  steps_.clear();
  sweep_up(step_bits_, [&](int k) {
    steps_.push_back(k);
    const double t = v[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (t == 0.0) return;
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      const int r = l_row_[static_cast<std::size_t>(e)];
      v[static_cast<std::size_t>(r)] -= l_val_[static_cast<std::size_t>(e)] * t;
      set_bit(step_bits_, step_of_row_[static_cast<std::size_t>(r)]);
    }
  });

  for (int k : steps_) {
    if (v[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] != 0.0) {
      set_bit(step_bits_, k);
    }
  }
  std::vector<double>& out = zero_buf_;  // position space
  sweep_down(step_bits_, [&](int k) {
    double s = v[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      s -= u_val_[static_cast<std::size_t>(e)] *
           out[static_cast<std::size_t>(u_col_[static_cast<std::size_t>(e)])];
    }
    const int p = pivot_col_[static_cast<std::size_t>(k)];
    const double value = s / diag_[static_cast<std::size_t>(k)];
    out[static_cast<std::size_t>(p)] = value;
    set_bit(out_bits_, p);
    if (value == 0.0) return;
    const int uend = ut_start_[static_cast<std::size_t>(k) + 1];
    for (int e = ut_start_[static_cast<std::size_t>(k)]; e < uend; ++e) {
      set_bit(step_bits_, ut_step_[static_cast<std::size_t>(e)]);
    }
  });
  // Every nonzero of the row-space input lay on a row the L pass visited.
  for (int k : steps_) {
    v[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = 0.0;
  }

  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  for (const Eta& eta : etas_) {
    const double t = out[static_cast<std::size_t>(eta.pivot_pos)];
    if (t == 0.0) continue;
    for (int k = eta.start; k < eta.end; ++k) {
      out[static_cast<std::size_t>(pos[k])] += val[k] * t;
      set_bit(out_bits_, pos[k]);
    }
    out[static_cast<std::size_t>(eta.pivot_pos)] = eta.pivot_val * t;
  }
  drain_ascending(out_bits_, x.index);
  v.swap(out);
}

// Hypersparse BTRAN: the transposed etas as in the dense pass, then the Uᵀ
// pass (column scatter, ascending steps) and the Lᵀ pass (row dots,
// descending steps), each over the steps reached, as in ftran().
void LuBasis::btran(IndexedVector& y) {
  ARROW_CHECK(static_cast<int>(y.values.size()) == m_, "btran size mismatch");
  std::vector<double>& v = y.values;  // position space
  if (!etas_.empty()) {
    for (int q : y.index) set_bit(out_bits_, q);
    const int* pos = eta_pos_.data();
    const double* val = eta_val_.data();
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const int pp = it->pivot_pos;
      double s = it->pivot_val * v[static_cast<std::size_t>(pp)];
      for (int k = it->start; k < it->end; ++k) {
        s += val[k] * v[static_cast<std::size_t>(pos[k])];
      }
      if (!test_bit(out_bits_, pp)) {
        if (s == 0.0) continue;
        set_bit(out_bits_, pp);
        y.index.push_back(pp);
      }
      v[static_cast<std::size_t>(pp)] = s;
    }
    for (int q : y.index) clear_bit(out_bits_, q);
  }

  for (int q : y.index) {
    if (v[static_cast<std::size_t>(q)] != 0.0) {
      set_bit(step_bits_, step_of_pos_[static_cast<std::size_t>(q)]);
    }
  }
  std::vector<double>& z = zero_buf_;  // row space
  steps_.clear();
  sweep_up(step_bits_, [&](int k) {
    steps_.push_back(k);
    const double t =
        v[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] /
        diag_[static_cast<std::size_t>(k)];
    z[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = t;
    if (t == 0.0) return;
    const int end = u_start_[static_cast<std::size_t>(k) + 1];
    for (int e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      const int q = u_col_[static_cast<std::size_t>(e)];
      v[static_cast<std::size_t>(q)] -= u_val_[static_cast<std::size_t>(e)] * t;
      set_bit(step_bits_, step_of_pos_[static_cast<std::size_t>(q)]);
    }
  });
  // Every nonzero of the position-space input lay on a position the Uᵀ
  // pass visited or in the input index.
  for (int q : y.index) v[static_cast<std::size_t>(q)] = 0.0;
  for (int k : steps_) {
    v[static_cast<std::size_t>(pivot_col_[static_cast<std::size_t>(k)])] = 0.0;
  }

  for (int k : steps_) {
    const int row = pivot_row_[static_cast<std::size_t>(k)];
    set_bit(out_bits_, row);
    if (z[static_cast<std::size_t>(row)] != 0.0) set_bit(step_bits_, k);
  }
  sweep_down(step_bits_, [&](int k) {
    const int row = pivot_row_[static_cast<std::size_t>(k)];
    double s = z[static_cast<std::size_t>(row)];
    bool changed = false;
    const int end = l_start_[static_cast<std::size_t>(k) + 1];
    for (int e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
      const double zr = z[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(e)])];
      if (zr != 0.0) {
        s -= l_val_[static_cast<std::size_t>(e)] * zr;
        changed = true;
      }
    }
    if (changed) z[static_cast<std::size_t>(row)] = s;
    set_bit(out_bits_, row);
    if (z[static_cast<std::size_t>(row)] == 0.0) return;
    const int lend = lt_start_[static_cast<std::size_t>(k) + 1];
    for (int e = lt_start_[static_cast<std::size_t>(k)]; e < lend; ++e) {
      set_bit(step_bits_, lt_step_[static_cast<std::size_t>(e)]);
    }
  });
  drain_ascending(out_bits_, y.index);
  v.swap(z);
}

bool LuBasis::update(int position, const IndexedVector& w, double pivot_tol) {
  ARROW_CHECK(position >= 0 && position < m_, "update position out of range");
  const double pivot_value = w.values[static_cast<std::size_t>(position)];
  if (std::abs(pivot_value) < pivot_tol) return false;
  Eta eta;
  eta.pivot_pos = position;
  const double inv = 1.0 / pivot_value;
  eta.pivot_val = inv;
  eta.start = static_cast<int>(eta_pos_.size());
  // Ascending positions: the transposed eta sums its terms in this order.
  for (int p : w.index) {
    const double v = w.values[static_cast<std::size_t>(p)];
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
