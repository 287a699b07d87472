#include "solver/presolve.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace arrow::solver {

namespace {

// True when the last `rows` columns of `lp` are the per-row identity slacks
// in row order — the Model computational-form invariant presolve relies on.
bool has_identity_slacks(const Lp& lp) {
  const int m = lp.a.rows;
  const int n = lp.a.cols;
  if (n < m) return false;
  const int ns = n - m;
  for (int i = 0; i < m; ++i) {
    const int j = ns + i;
    const int s = lp.a.col_start[j];
    if (lp.a.col_start[j + 1] - s != 1) return false;
    if (lp.a.row_index[s] != i || lp.a.value[s] != 1.0) return false;
  }
  return true;
}

bool near(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::abs(b));
}

}  // namespace

bool presolve_is_noop(const Lp& lp) {
  const int m = lp.a.rows;
  const int n = lp.a.cols;
  if (m == 0 || !has_identity_slacks(lp)) return true;
  const int ns = n - m;
  for (int j = 0; j < ns; ++j) {
    if (!(lp.lower[j] < lp.upper[j]) ||
        lp.a.col_start[j + 1] == lp.a.col_start[j]) {
      return false;
    }
  }
  if (lp.a_rows.empty()) return false;  // no row counts at hand
  // Each row of the view holds its structural entries plus its slack.
  for (int i = 0; i < m; ++i) {
    if (lp.a_rows.row_start[i + 1] - lp.a_rows.row_start[i] < 3) return false;
  }
  return true;
}

Presolved presolve_lp(const Lp& lp, const SimplexOptions& opt) {
  if (!presolve_is_noop(lp)) return presolve_fixpoint(lp, opt);
  Presolved out;
  out.row_kept.assign(lp.a.rows, 1);
  out.col_kept.assign(std::max(lp.a.cols - lp.a.rows, 0), 1);
  return out;
}

Presolved presolve_fixpoint(const Lp& lp, const SimplexOptions& opt) {
  Presolved out;
  const int m = lp.a.rows;
  const int n = lp.a.cols;
  out.row_kept.assign(m, 1);
  out.col_kept.assign(n >= m ? n - m : 0, 1);
  if (m == 0 || !has_identity_slacks(lp)) {
    return out;  // identity: caller solves the original LP directly
  }
  const int ns = n - m;
  const double tol = opt.feas_tol;

  // Row-major view (the LP's own, else one transpose). With identity slacks
  // the slack ns + i is the last entry of row i, so row i's structural
  // entries are [row_start[i], row_end(i)).
  SparseRows transposed;
  if (lp.a_rows.empty()) transposed = transpose_to_rows(lp.a);
  const SparseRows& rows = lp.a_rows.empty() ? transposed : lp.a_rows;
  const std::vector<int>& row_start = rows.row_start;
  const std::vector<int>& row_col = rows.col_index;
  const std::vector<double>& row_val = rows.value;
  const auto row_end = [&](int i) { return row_start[i + 1] - 1; };
  std::vector<int> row_nnz(m, 0);  // live structural entries per row
  for (int i = 0; i < m; ++i) row_nnz[i] = row_end(i) - row_start[i];

  std::vector<double> lb(lp.lower.begin(), lp.lower.begin() + ns);
  std::vector<double> ub(lp.upper.begin(), lp.upper.begin() + ns);
  std::vector<double> rhs = lp.rhs;
  std::vector<int> col_alive_nnz(ns, 0);  // live rows per structural column
  for (int j = 0; j < ns; ++j) {
    col_alive_nnz[j] = lp.a.col_start[j + 1] - lp.a.col_start[j];
  }
  std::vector<char>& row_alive = out.row_kept;
  std::vector<char>& col_alive = out.col_kept;

  auto kill_col = [&](int j, double v) {
    // Substitute x_j = v into every live row.
    for (int k = lp.a.col_start[j]; k < lp.a.col_start[j + 1]; ++k) {
      const int i = lp.a.row_index[k];
      if (!row_alive[i]) continue;
      rhs[i] -= lp.a.value[k] * v;
      --row_nnz[i];
    }
    col_alive[j] = 0;
    ++out.cols_removed;
    out.log.push_back({Presolved::Kind::kFixedCol, j, -1, 0.0, v});
  };
  auto kill_row = [&](int i) {
    // Dropping a row drops its slack column too.
    for (int k = row_start[i]; k < row_end(i); ++k) {
      const int j = row_col[k];
      if (col_alive[j]) --col_alive_nnz[j];
    }
    row_alive[i] = 0;
    ++out.rows_removed;
    ++out.cols_removed;
  };

  bool infeasible = false;
  bool changed = true;
  for (int pass = 0; changed && !infeasible && pass < 16; ++pass) {
    changed = false;

    // Fixed structural columns: lower == upper (exactly — implied bounds on
    // these LPs come from exact slack-bound arithmetic, so forced variables
    // land on the bound bit-for-bit).
    for (int j = 0; j < ns && !infeasible; ++j) {
      if (!col_alive[j]) continue;
      if (lb[j] > ub[j] + tol * (1.0 + std::abs(lb[j]))) {
        infeasible = true;
        break;
      }
      if (lb[j] == ub[j]) {
        kill_col(j, lb[j]);
        changed = true;
      } else if (col_alive_nnz[j] == 0) {
        // Column touches no live row: park it at its cost-preferred bound
        // (only when that bound is finite; otherwise leave it for the
        // simplex, which reports unboundedness properly).
        const double c = lp.cost[j];
        double v;
        if (c > 0.0) {
          v = lb[j];
        } else if (c < 0.0) {
          v = ub[j];
        } else {
          v = lb[j] > -kInf ? lb[j] : (ub[j] < kInf ? ub[j] : 0.0);
        }
        if (std::abs(v) < kInf) {
          kill_col(j, v);
          changed = true;
        }
      }
    }
    if (infeasible) break;

    for (int i = 0; i < m && !infeasible; ++i) {
      if (!row_alive[i]) continue;
      const int sj = ns + i;  // this row's slack column
      const double sl = lp.lower[sj], su = lp.upper[sj];
      if (row_nnz[i] == 0) {
        // Slack-only row: s_i = rhs'_i must sit inside the slack bounds.
        if (rhs[i] < sl - tol * (1.0 + std::abs(sl)) ||
            rhs[i] > su + tol * (1.0 + std::abs(su))) {
          infeasible = true;
          break;
        }
        kill_row(i);
        out.log.push_back({Presolved::Kind::kEmptyRow, i, -1, 0.0, 0.0});
        changed = true;
      } else if (row_nnz[i] == 1) {
        // One live structural entry: a x_j + s = rhs', so
        // a x_j in [rhs' - su, rhs' - sl] is an implied bound on x_j. After
        // tightening, every x_j inside its bounds yields a feasible slack,
        // so the row is redundant and can go.
        int j = -1;
        double a = 0.0;
        for (int k = row_start[i]; k < row_end(i); ++k) {
          if (col_alive[row_col[k]]) {
            j = row_col[k];
            a = row_val[k];
            break;
          }
        }
        ARROW_CHECK(j >= 0);
        if (std::abs(a) <= opt.pivot_tol) continue;  // too small to divide by
        const double lo = su < kInf ? rhs[i] - su : -kInf;
        const double hi = sl > -kInf ? rhs[i] - sl : kInf;
        const double ilb = a > 0.0 ? lo / a : hi / a;
        const double iub = a > 0.0 ? hi / a : lo / a;
        if (ilb > lb[j]) lb[j] = ilb;
        if (iub < ub[j]) ub[j] = iub;
        if (lb[j] > ub[j] + tol * (1.0 + std::abs(lb[j]))) {
          infeasible = true;
          break;
        }
        if (lb[j] > ub[j]) lb[j] = ub[j];  // collapse a sub-tol crossing
        kill_row(i);
        out.log.push_back({Presolved::Kind::kSingletonRow, i, j, a, 0.0});
        changed = true;
      }
    }
  }

  if (infeasible) {
    out.status = Presolved::Status::kInfeasible;
    return out;
  }
  if (out.is_identity()) return out;

  // Assemble the reduced LP: surviving structural columns in original order,
  // then the surviving rows' slacks in row order (preserving the identity-
  // slack invariant). Column entries keep their ascending-row order.
  std::vector<int> new_row(m, -1);
  for (int i = 0; i < m; ++i) {
    if (row_alive[i]) {
      new_row[i] = static_cast<int>(out.row_map.size());
      out.row_map.push_back(i);
    }
  }
  const int rm = static_cast<int>(out.row_map.size());
  for (int j = 0; j < ns; ++j) {
    if (col_alive[j]) out.col_map.push_back(j);
  }
  const int rns = static_cast<int>(out.col_map.size());
  for (int i : out.row_map) out.col_map.push_back(ns + i);
  const int rn = rns + rm;

  Lp& r = out.reduced;
  r.a.rows = rm;
  r.a.cols = rn;
  r.a.col_start.assign(1, 0);
  r.cost.resize(rn);
  r.lower.resize(rn);
  r.upper.resize(rn);
  r.rhs.resize(rm);
  for (int rc = 0; rc < rn; ++rc) {
    const int j = out.col_map[rc];
    r.cost[rc] = lp.cost[j];
    if (rc < rns) {
      r.lower[rc] = lb[j];
      r.upper[rc] = ub[j];
      for (int k = lp.a.col_start[j]; k < lp.a.col_start[j + 1]; ++k) {
        const int i = lp.a.row_index[k];
        if (!row_alive[i]) continue;
        r.a.row_index.push_back(new_row[i]);
        r.a.value.push_back(lp.a.value[k]);
      }
    } else {
      r.lower[rc] = lp.lower[j];
      r.upper[rc] = lp.upper[j];
      r.a.row_index.push_back(rc - rns);
      r.a.value.push_back(1.0);
    }
    r.a.col_start.push_back(r.a.nnz());
  }
  for (int ri = 0; ri < rm; ++ri) r.rhs[ri] = rhs[out.row_map[ri]];
  return out;
}

LpSolution postsolve_solution(const Lp& original, const Presolved& pre,
                              const LpSolution& reduced_sol,
                              const SimplexOptions& opt) {
  const int m = original.a.rows;
  const int n = original.a.cols;
  const int ns = n - m;
  const double tol = opt.feas_tol;

  LpSolution full = reduced_sol;  // scalar stats carry over unchanged
  full.x.assign(n, 0.0);
  full.basis.status.assign(n, BasisStatus::kNonbasicLower);
  // Lift duals whenever the reduced solve produced them — and also when
  // every row was eliminated (the trivial bound-solve carries no duals but
  // an optimal full-space solution must, to honor solve_lp's contract).
  const bool lift_duals =
      !reduced_sol.dual.empty() ||
      (reduced_sol.status == LpStatus::kOptimal && pre.row_map.empty());
  full.dual.clear();
  full.reduced_cost.clear();
  if (lift_duals) full.dual.assign(m, 0.0);

  // Scatter the reduced solution into full space.
  const int rn = static_cast<int>(pre.col_map.size());
  const bool have_basis = !reduced_sol.basis.empty();
  for (int rc = 0; rc < rn; ++rc) {
    const int j = pre.col_map[rc];
    full.x[j] = rc < static_cast<int>(reduced_sol.x.size()) ? reduced_sol.x[rc]
                                                            : 0.0;
    if (have_basis) {
      full.basis.status[j] = reduced_sol.basis.status[rc];
    } else {
      // Trivial reduced solve (all rows eliminated): derive nonbasic
      // statuses from the primal point.
      const double lo = original.lower[j], hi = original.upper[j];
      if (lo > -kInf && near(full.x[j], lo, tol)) {
        full.basis.status[j] = BasisStatus::kNonbasicLower;
      } else if (hi < kInf && near(full.x[j], hi, tol)) {
        full.basis.status[j] = BasisStatus::kNonbasicUpper;
      } else {
        full.basis.status[j] = BasisStatus::kNonbasicFree;
      }
    }
  }
  if (lift_duals) {
    for (size_t ri = 0; ri < pre.row_map.size(); ++ri) {
      full.dual[pre.row_map[ri]] =
          ri < reduced_sol.dual.size() ? reduced_sol.dual[ri] : 0.0;
    }
  }

  // Undo the reduction log (newest first). Fixed columns land on a bound or
  // strictly inside their range; interior survivors are candidates for
  // claiming a removed singleton row's basic slot below.
  for (auto it = pre.log.rbegin(); it != pre.log.rend(); ++it) {
    if (it->kind != Presolved::Kind::kFixedCol) continue;
    const int j = it->index;
    const double v = it->value;
    full.x[j] = v;
    const double lo = original.lower[j], hi = original.upper[j];
    if (lo > -kInf && near(v, lo, tol)) {
      full.basis.status[j] = BasisStatus::kNonbasicLower;
    } else if (hi < kInf && near(v, hi, tol)) {
      full.basis.status[j] = BasisStatus::kNonbasicUpper;
    } else if (lo == -kInf && hi == kInf) {
      full.basis.status[j] = BasisStatus::kNonbasicFree;
    } else {
      // Interior value (an implied bound tightened past the original
      // bounds). Marked lower for now; a singleton row may claim it basic.
      full.basis.status[j] = BasisStatus::kNonbasicLower;
    }
  }

  // One structural pass of Ax gives every removed row's slack value:
  // s_i = b_i - (A x)_i over structural columns.
  std::vector<double> ax(m, 0.0);
  for (int j = 0; j < ns; ++j) {
    const double xj = full.x[j];
    if (xj == 0.0) continue;
    for (int k = original.a.col_start[j]; k < original.a.col_start[j + 1];
         ++k) {
      ax[original.a.row_index[k]] += original.a.value[k] * xj;
    }
  }

  // Removed rows re-enter the basis. Default: their slack is basic and their
  // dual is zero (the row was redundant). A singleton row whose variable
  // ended strictly inside its ORIGINAL bounds must instead make that
  // variable basic (a nonbasic variable cannot sit off its bounds), with the
  // slack pinned to whichever bound the implied-bound tightening came from;
  // the row's dual is then whatever zeroes the variable's reduced cost:
  // y_i = d_j(y_i = 0) / a_ij. The lifted basis stays nonsingular: expanding
  // the determinant along each removed row (which has exactly one live
  // structural entry in full space) gives det = (+-a_ij...) * det(B').
  for (auto it = pre.log.rbegin(); it != pre.log.rend(); ++it) {
    if (it->kind == Presolved::Kind::kFixedCol) continue;
    const int i = it->index;
    const int sj = ns + i;
    const double s = original.rhs[i] - ax[i];
    full.x[sj] = s;
    bool slack_basic = true;
    if (it->kind == Presolved::Kind::kSingletonRow) {
      const int j = it->col;
      const double lo = original.lower[j], hi = original.upper[j];
      const double xj = full.x[j];
      const bool interior =
          full.basis.status[j] != BasisStatus::kBasic &&
          !(lo > -kInf && near(xj, lo, tol)) &&
          !(hi < kInf && near(xj, hi, tol));
      if (interior) {
        const double sl = original.lower[sj], su = original.upper[sj];
        full.basis.status[j] = BasisStatus::kBasic;
        full.basis.status[sj] = (su < kInf && near(s, su, tol))
                                    ? BasisStatus::kNonbasicUpper
                                    : BasisStatus::kNonbasicLower;
        (void)sl;
        slack_basic = false;
        if (lift_duals) {
          double d = original.cost[j];
          for (int k = original.a.col_start[j];
               k < original.a.col_start[j + 1]; ++k) {
            d -= full.dual[original.a.row_index[k]] * original.a.value[k];
          }
          full.dual[i] += d / it->coeff;
        }
      }
    }
    if (slack_basic) full.basis.status[sj] = BasisStatus::kBasic;
  }

  if (lift_duals) {
    full.reduced_cost.assign(n, 0.0);
    for (int j = 0; j < n; ++j) {
      double d = original.cost[j];
      for (int k = original.a.col_start[j]; k < original.a.col_start[j + 1];
           ++k) {
        d -= full.dual[original.a.row_index[k]] * original.a.value[k];
      }
      full.reduced_cost[j] = d;
    }
  }

  // Fixed columns (and removed rows' slacks, should they ever carry cost)
  // contribute objective the reduced solve never saw.
  double extra = 0.0;
  for (const auto& red : pre.log) {
    if (red.kind == Presolved::Kind::kFixedCol) {
      extra += original.cost[red.index] * red.value;
    } else {
      const int sj = ns + red.index;
      extra += original.cost[sj] * full.x[sj];
    }
  }
  full.objective = reduced_sol.objective + extra;
  return full;
}

}  // namespace arrow::solver
