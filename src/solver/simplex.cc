// Bounded-variable revised primal simplex on the computational-form LP.
//
// Structure:
//  * optional presolve (presolve.h) shrinks the LP before the simplex sees
//    it; the postsolve lifts x/duals/reduced costs/basis back to full space;
//  * initial basis = the all-slack basis (the Model always appends one slack
//    column per row, so the basis matrix starts as the identity);
//  * phase 1 minimizes the sum of primal infeasibilities of the basic
//    variables (Maros-style composite objective, re-derived every iteration);
//  * phase 2 minimizes the true cost; both phases share pricing, FTRAN and
//    the two-pass (Harris-lite) ratio test;
//  * pricing runs off a row-major mirror of A built once per solve. Full
//    passes (Dantzig/Devex, phase 1, and incremental refreshes) accumulate
//    d = c - A'y row by row, skipping rows with y == 0 — bit-identical to
//    the per-column CSC dot because column entries arrive in the same
//    ascending-row order. The default kIncremental mode *updates* phase-2
//    reduced costs from the pivot row after each basis change
//    (d_j -= theta_d * alpha_j with alpha = rho'A, rho = B^{-T}e_p) and
//    folds the Devex weight update into the same sparse pass, replacing the
//    old O(n*nnz) per-pivot sweep; kPartial adds a candidate list with
//    periodic full refreshes. Every claimed optimum from maintained reduced
//    costs is confirmed against a fresh full pass before returning.
//  * the basis inverse is a Markowitz-ordered sparse LU (LuBasis) with
//    product-form updates, refreshed every `refactor_interval` pivots or
//    when the eta file grows dense; each refresh also refreshes the
//    maintained reduced costs, bounding incremental drift;
//  * the per-pivot solves (the entering column's FTRAN, the pivot row's
//    BTRAN) are hypersparse and return their nonzero positions, so the
//    ratio-test passes, the step update, the eta update and the pivot-row
//    pass loop over those lists (ascending) instead of all m positions;
//  * after `bland_threshold` consecutive degenerate pivots the pivot rule
//    switches to Bland's rule until progress resumes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/lp.h"
#include "solver/basis.h"
#include "solver/presolve.h"
#include "util/check.h"

namespace arrow::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
    case LpStatus::kNumericalError: return "numerical-error";
    case LpStatus::kTimedOut: return "timed-out";
  }
  return "unknown";
}

double primal_violation(const Lp& lp, const std::vector<double>& x) {
  const int m = lp.a.rows;
  const int n = lp.a.cols;
  ARROW_CHECK(static_cast<int>(x.size()) == n, "x size mismatch");
  std::vector<double> ax(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    for (int k = lp.a.col_start[j]; k < lp.a.col_start[j + 1]; ++k) {
      ax[static_cast<std::size_t>(lp.a.row_index[k])] +=
          lp.a.value[static_cast<std::size_t>(k)] *
          x[static_cast<std::size_t>(j)];
    }
  }
  double viol = 0.0;
  for (int i = 0; i < m; ++i) {
    viol = std::max(viol, std::abs(ax[static_cast<std::size_t>(i)] -
                                   lp.rhs[static_cast<std::size_t>(i)]));
  }
  for (int j = 0; j < n; ++j) {
    viol = std::max(viol, lp.lower[static_cast<std::size_t>(j)] -
                              x[static_cast<std::size_t>(j)]);
    viol = std::max(viol, x[static_cast<std::size_t>(j)] -
                              lp.upper[static_cast<std::size_t>(j)]);
  }
  return viol;
}

namespace {

enum class VStat : char { kBasic, kAtLower, kAtUpper, kFree };

class Simplex {
 public:
  Simplex(const Lp& lp, const SimplexOptions& opt,
          const Basis* warm = nullptr)
      : lp_(lp), opt_(opt), warm_(warm) {
    m_ = lp.a.rows;
    n_ = lp.a.cols;
    max_iter_ = opt.max_iterations > 0 ? opt.max_iterations
                                       : 20000 + 100 * (m_ + n_);
    if (m_ > 0) build_row_mirror();
  }

  bool warm_started() const { return warm_started_; }

  LpSolution run() {
    LpSolution sol;
    if (m_ == 0) return solve_trivial();
    warm_started_ = warm_ != nullptr && init_from_basis(*warm_);
    if (!warm_started_) init_basis();
    if (!refactorize()) {
      // A structurally valid warm basis can still be singular; the all-slack
      // identity never is, so retry from there before giving up.
      if (!warm_started_) {
        sol.status = LpStatus::kNumericalError;
        return sol;
      }
      warm_started_ = false;
      init_basis();
      if (!refactorize()) {
        sol.status = LpStatus::kNumericalError;
        return sol;
      }
    }
    if (opt_.fail_warm_start_for_test && warm_started_) {
      // Deterministic failure injection: charge one synthetic second to each
      // phase so the warm-retry accounting (seconds must sum across the
      // failed warm attempt and the cold retry) is observable in tests.
      phase1_seconds_ = 1.0;
      phase2_seconds_ = 1.0;
      return extract(LpStatus::kNumericalError);
    }
    // Phase wall clocks are observability only: nothing downstream of the
    // timings feeds back into pivot decisions.
    using SimplexClock = std::chrono::steady_clock;
    const auto t0 = SimplexClock::now();
    LpStatus st = iterate(/*phase=*/1);
    if (st == LpStatus::kOptimal && total_infeasibility() > feas_total_tol()) {
      st = LpStatus::kInfeasible;
    }
    const auto t1 = SimplexClock::now();
    phase1_seconds_ = std::chrono::duration<double>(t1 - t0).count();
    if (st == LpStatus::kOptimal) {
      st = iterate(/*phase=*/2);
      phase2_seconds_ =
          std::chrono::duration<double>(SimplexClock::now() - t1).count();
    }
    return extract(st);
  }

 private:
  // An LP with no rows: each variable independently goes to its best bound.
  LpSolution solve_trivial() {
    LpSolution sol;
    sol.x.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double c = lp_.cost[static_cast<std::size_t>(j)];
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      if (lo > hi) {
        sol.status = LpStatus::kInfeasible;
        return sol;
      }
      double v;
      if (c > 0.0) {
        v = lo;
      } else if (c < 0.0) {
        v = hi;
      } else {
        v = std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
      }
      if (!std::isfinite(v)) {
        sol.status = LpStatus::kUnbounded;
        return sol;
      }
      sol.x[static_cast<std::size_t>(j)] = v;
      sol.objective += c * v;
    }
    sol.status = LpStatus::kOptimal;
    return sol;
  }

  // Row-major mirror of the full constraint matrix (structural + slack
  // columns), built once per solve. Costs one extra (int + double) per
  // nonzero plus m+1 offsets; buys sparse-row pricing everywhere below.
  void build_row_mirror() {
    row_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    const int nnz = lp_.a.nnz();
    for (int k = 0; k < nnz; ++k) {
      ++row_start_[static_cast<std::size_t>(lp_.a.row_index[k]) + 1];
    }
    for (int i = 0; i < m_; ++i) {
      row_start_[static_cast<std::size_t>(i) + 1] +=
          row_start_[static_cast<std::size_t>(i)];
    }
    row_col_.resize(static_cast<std::size_t>(nnz));
    row_val_.resize(static_cast<std::size_t>(nnz));
    std::vector<int> fill(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < n_; ++j) {
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        const int i = lp_.a.row_index[k];
        row_col_[static_cast<std::size_t>(fill[i])] = j;
        row_val_[static_cast<std::size_t>(fill[i])] =
            lp_.a.value[static_cast<std::size_t>(k)];
        ++fill[i];
      }
    }
  }

  // Rebuilds vstat_/basis_ from a caller-supplied basis. Statuses are
  // sanitized against the current bounds (a variable cannot sit at an
  // infinite bound), so a basis taken from the same-shaped LP with different
  // bound values is still structurally usable. Returns false when the shape
  // or the basic-column count is wrong.
  bool init_from_basis(const Basis& warm) {
    if (static_cast<int>(warm.status.size()) != n_) return false;
    basis_.clear();
    basis_.reserve(static_cast<std::size_t>(m_));
    vstat_.assign(static_cast<std::size_t>(n_), VStat::kAtLower);
    for (int j = 0; j < n_; ++j) {
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      switch (warm.status[static_cast<std::size_t>(j)]) {
        case BasisStatus::kBasic:
          basis_.push_back(j);
          vstat_[static_cast<std::size_t>(j)] = VStat::kBasic;
          break;
        case BasisStatus::kNonbasicUpper:
          vstat_[static_cast<std::size_t>(j)] =
              std::isfinite(hi) ? VStat::kAtUpper
                                : (std::isfinite(lo) ? VStat::kAtLower
                                                     : VStat::kFree);
          break;
        case BasisStatus::kNonbasicLower:
          vstat_[static_cast<std::size_t>(j)] =
              std::isfinite(lo) ? VStat::kAtLower
                                : (std::isfinite(hi) ? VStat::kAtUpper
                                                     : VStat::kFree);
          break;
        case BasisStatus::kNonbasicFree:
          vstat_[static_cast<std::size_t>(j)] = VStat::kFree;
          break;
      }
    }
    if (static_cast<int>(basis_.size()) != m_) return false;
    sync_basic_bounds();
    return true;
  }

  void init_basis() {
    // Model guarantees the last m columns are the per-row slacks (identity).
    basis_.resize(static_cast<std::size_t>(m_));
    vstat_.assign(static_cast<std::size_t>(n_), VStat::kAtLower);
    for (int j = 0; j < n_; ++j) {
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      if (std::isfinite(lo) && (std::abs(lo) <= std::abs(hi) || !std::isfinite(hi))) {
        vstat_[static_cast<std::size_t>(j)] = VStat::kAtLower;
      } else if (std::isfinite(hi)) {
        vstat_[static_cast<std::size_t>(j)] = VStat::kAtUpper;
      } else {
        vstat_[static_cast<std::size_t>(j)] = VStat::kFree;
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int slack = n_ - m_ + i;
      basis_[static_cast<std::size_t>(i)] = slack;
      vstat_[static_cast<std::size_t>(slack)] = VStat::kBasic;
    }
    sync_basic_bounds();
  }

  // Contiguous per-position copies of the basic variables' bounds. The ratio
  // tests and the composite phase-1 cost walk these instead of chasing
  // basis_[p] -> lp_.lower[j] indirections, which keeps their inner loops
  // over plain dense arrays.
  void sync_basic_bounds() {
    lb_basic_.resize(static_cast<std::size_t>(m_));
    ub_basic_.resize(static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p) {
      const int j = basis_[static_cast<std::size_t>(p)];
      lb_basic_[static_cast<std::size_t>(p)] =
          lp_.lower[static_cast<std::size_t>(j)];
      ub_basic_[static_cast<std::size_t>(p)] =
          lp_.upper[static_cast<std::size_t>(j)];
    }
  }

  double nonbasic_value(int j) const {
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::kAtLower: return lp_.lower[static_cast<std::size_t>(j)];
      case VStat::kAtUpper: return lp_.upper[static_cast<std::size_t>(j)];
      case VStat::kFree: return 0.0;
      case VStat::kBasic: break;
    }
    ARROW_CHECK(false, "nonbasic_value on basic variable");
    return 0.0;
  }

  bool refactorize() {
    ++refactorizations_;
    if (!inv_.factorize(lp_.a, basis_, opt_.pivot_tol)) return false;
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    std::vector<double> rhs(lp_.rhs);
    for (int j = 0; j < n_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VStat::kBasic) continue;
      const double v = nonbasic_value(j);
      if (v == 0.0) continue;
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        rhs[static_cast<std::size_t>(lp_.a.row_index[k])] -=
            lp_.a.value[static_cast<std::size_t>(k)] * v;
      }
    }
    inv_.ftran(rhs);
    xb_.swap(rhs);
  }

  double total_infeasibility() const {
    double s = 0.0;
    for (int p = 0; p < m_; ++p) {
      const double v = xb_[static_cast<std::size_t>(p)];
      s += std::max(0.0, lb_basic_[static_cast<std::size_t>(p)] - v);
      s += std::max(0.0, v - ub_basic_[static_cast<std::size_t>(p)]);
    }
    return s;
  }

  double feas_total_tol() const {
    return opt_.feas_tol * (1.0 + static_cast<double>(m_));
  }

  // Full pricing pass: y = B^{-T} c_B for the phase-aware basic costs, then
  // d = c - A'y accumulated through the row mirror. Each column's terms
  // arrive in ascending-row order — the same floating-point sequence as the
  // per-column CSC dot product — so skipping rows with y_i == 0 (whose
  // contribution is an exact +-0) is the only difference, and it cannot
  // change any pricing comparison.
  void full_price(int phase) {
    for (int p = 0; p < m_; ++p) {
      double c;
      if (phase == 1) {
        const double v = xb_[static_cast<std::size_t>(p)];
        if (v < lb_basic_[static_cast<std::size_t>(p)] - opt_.feas_tol) {
          c = -1.0;
        } else if (v > ub_basic_[static_cast<std::size_t>(p)] + opt_.feas_tol) {
          c = 1.0;
        } else {
          c = 0.0;
        }
      } else {
        c = lp_.cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])];
      }
      y_[static_cast<std::size_t>(p)] = c;
    }
    inv_.btran(y_);
    if (phase == 1) {
      std::fill(d_.begin(), d_.end(), 0.0);
    } else {
      std::copy(lp_.cost.begin(), lp_.cost.end(), d_.begin());
    }
    for (int i = 0; i < m_; ++i) {
      const double yi = y_[static_cast<std::size_t>(i)];
      if (yi == 0.0) continue;
      const int end = row_start_[static_cast<std::size_t>(i) + 1];
      for (int k = row_start_[static_cast<std::size_t>(i)]; k < end; ++k) {
        d_[static_cast<std::size_t>(row_col_[static_cast<std::size_t>(k)])] -=
            yi * row_val_[static_cast<std::size_t>(k)];
      }
    }
    pricing_candidates_ += n_;
  }

  // Entering-column choice from the current d_. Scans the partial candidate
  // list when `use_list`, the full column range otherwise. Dantzig scores by
  // |d|; every other mode by the Devex ratio d^2 / w_j. Bland's rule takes
  // the lowest improving index.
  int select_entering(int phase, bool bland, bool use_list, int* dir_out) {
    (void)phase;
    const bool devex_score = opt_.pricing != Pricing::kDantzig;
    int entering = -1;
    int dir = 0;
    double best_score = 0.0;
    auto consider = [&](int j) -> bool {
      const VStat st = vstat_[static_cast<std::size_t>(j)];
      if (st == VStat::kBasic) return false;
      const double d = d_[static_cast<std::size_t>(j)];
      int cand_dir = 0;
      if ((st == VStat::kAtLower || st == VStat::kFree) && d < -opt_.opt_tol) {
        cand_dir = +1;
      } else if ((st == VStat::kAtUpper || st == VStat::kFree) &&
                 d > opt_.opt_tol) {
        cand_dir = -1;
      }
      if (cand_dir == 0) return false;
      if (bland) {
        entering = j;
        dir = cand_dir;
        return true;  // lowest improving index
      }
      const double score = devex_score
                               ? d * d / devex_w_[static_cast<std::size_t>(j)]
                               : std::abs(d);
      if (score > best_score) {
        best_score = score;
        entering = j;
        dir = cand_dir;
      }
      return false;
    };
    if (use_list) {
      for (int j : cand_) {
        if (consider(j)) break;
      }
    } else {
      for (int j = 0; j < n_; ++j) {
        if (consider(j)) break;
      }
    }
    *dir_out = dir;
    return entering;
  }

  // kPartial: keep the best improving columns from the last full refresh.
  // Deterministic: sorted by (score desc, index asc), capped at
  // partial_candidates (0 = max(64, n/8)).
  void rebuild_candidates() {
    const bool devex_score = opt_.pricing != Pricing::kDantzig;
    scratch_cand_.clear();
    for (int j = 0; j < n_; ++j) {
      const VStat st = vstat_[static_cast<std::size_t>(j)];
      if (st == VStat::kBasic) continue;
      const double d = d_[static_cast<std::size_t>(j)];
      const bool improving =
          ((st == VStat::kAtLower || st == VStat::kFree) &&
           d < -opt_.opt_tol) ||
          ((st == VStat::kAtUpper || st == VStat::kFree) && d > opt_.opt_tol);
      if (!improving) continue;
      const double score = devex_score
                               ? d * d / devex_w_[static_cast<std::size_t>(j)]
                               : std::abs(d);
      scratch_cand_.emplace_back(score, j);
    }
    std::sort(scratch_cand_.begin(), scratch_cand_.end(),
              [](const std::pair<double, int>& a,
                 const std::pair<double, int>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const std::size_t cap = static_cast<std::size_t>(
        opt_.partial_candidates > 0 ? opt_.partial_candidates
                                    : std::max(64, n_ / 8));
    if (scratch_cand_.size() > cap) scratch_cand_.resize(cap);
    cand_.clear();
    for (const auto& sc : scratch_cand_) cand_.push_back(sc.second);
  }

  LpStatus iterate(int phase) {
    int degenerate_streak = 0;
    IndexedVector w;  // entering column, B^{-1} A_q (position space)
    IndexedVector rho;  // pivot row of B^{-1}, B^{-T} e_p (row space)
    w.reset(m_);
    rho.reset(m_);
    int stall_refactors = 0;
    const bool devex_score = opt_.pricing != Pricing::kDantzig;
    // Incremental reduced costs only work in phase 2: the phase-1 composite
    // costs mutate with every pivot, so phase 1 always full-prices (cheaply,
    // through the row mirror — the phase-1 dual vector is typically sparse).
    const bool inc_mode = phase == 2 &&
                          (opt_.pricing == Pricing::kIncremental ||
                           opt_.pricing == Pricing::kPartial);
    const bool partial = phase == 2 && opt_.pricing == Pricing::kPartial;
    devex_w_.assign(static_cast<std::size_t>(n_), 1.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    d_.assign(static_cast<std::size_t>(n_), 0.0);
    alpha_work_.assign(static_cast<std::size_t>(n_), 0.0);
    touched_mark_.assign(static_cast<std::size_t>(n_), 0);
    bool dual_fresh = false;    // inc_mode: d_ valid for the current basis
    int pivots_since_refresh = 0;
    // Deadline checks happen at the loop head, every deadline_check_interval
    // passes (plus once on entry). The clock is only read when a deadline is
    // actually set, so unbudgeted solves never touch the clock seam and stay
    // bit-identical with or without a fake clock installed.
    int passes_since_deadline_check = opt_.deadline_check_interval;

    while (true) {
      if (opt_.deadline.is_set() &&
          ++passes_since_deadline_check >= opt_.deadline_check_interval) {
        passes_since_deadline_check = 0;
        if (opt_.deadline.expired()) return LpStatus::kTimedOut;
      }
      if (iterations_ >= max_iter_) return LpStatus::kIterationLimit;
      if (inv_.updates_since_factorize() >= opt_.refactor_interval ||
          (inv_.updates_since_factorize() > 0 &&
           inv_.work_nnz() > 2 * inv_.factor_nnz() +
                                40u * static_cast<std::size_t>(m_) + 1000u)) {
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;  // refresh bounds incremental drift
      }
      if (phase == 1 && total_infeasibility() <= feas_total_tol()) {
        return LpStatus::kOptimal;  // feasible; caller moves to phase 2
      }

      const bool bland = degenerate_streak > opt_.bland_threshold;

      // Pricing. Non-incremental modes recompute every reduced cost;
      // incremental mode refreshes on basis-refactorization, on the partial
      // schedule, and whenever Bland's rule needs exact values everywhere.
      bool refreshed = false;
      if (!inc_mode) {
        full_price(phase);
        refreshed = true;
      } else if (!dual_fresh ||
                 (partial &&
                  (bland ||
                   pivots_since_refresh >= opt_.partial_refresh_interval))) {
        full_price(phase);
        dual_fresh = true;
        pivots_since_refresh = 0;
        if (partial) rebuild_candidates();
        refreshed = true;
      }

      const bool use_list = partial && !bland;
      int dir = 0;
      int entering = select_entering(phase, bland, use_list, &dir);
      if (entering < 0 && inc_mode) {
        // Maintained (or truncated-list) reduced costs claim optimality:
        // confirm against an exact full pass before believing them.
        if (!refreshed) {
          full_price(phase);
          dual_fresh = true;
          pivots_since_refresh = 0;
          if (partial) rebuild_candidates();
        }
        if (!refreshed || use_list) {
          entering = select_entering(phase, bland, /*use_list=*/false, &dir);
        }
      }
      if (entering < 0) {
        // Phase 1: stalled with residual infeasibility => infeasible (checked
        // by the caller). Phase 2: optimal.
        return LpStatus::kOptimal;
      }

      // FTRAN: w = B^{-1} A_entering (in basis-position space). The
      // ratio test, the step and the eta update below loop over w's
      // nonzero list only, in ascending position order.
      w.clear();
      for (int k = lp_.a.col_start[entering];
           k < lp_.a.col_start[entering + 1]; ++k) {
        const int i = lp_.a.row_index[k];
        w.values[static_cast<std::size_t>(i)] =
            lp_.a.value[static_cast<std::size_t>(k)];
        w.index.push_back(i);
      }
      inv_.ftran(w);
      const std::vector<double>& wv = w.values;

      // Ratio test. The entering variable moves by t >= 0 in direction
      // `dir`; basic variable at position p changes at rate -dir * w[p].
      const double kNone = kInf;
      double limit = kNone;
      int leave_pos = -1;
      double leave_target = 0.0;
      // Entering variable's own bound-flip breakpoint.
      double flip_limit = kNone;
      if (vstat_[static_cast<std::size_t>(entering)] != VStat::kFree) {
        const double lo = lp_.lower[static_cast<std::size_t>(entering)];
        const double hi = lp_.upper[static_cast<std::size_t>(entering)];
        if (std::isfinite(lo) && std::isfinite(hi)) flip_limit = hi - lo;
      }

      const double negdir = -static_cast<double>(dir);

      // Pass 1: tightest breakpoint.
      double min_ratio = kNone;
      if (phase == 2) {
        // Branchless over the nonzeros of w: an infinite target or a
        // sub-tolerance pivot (a zero of w among them) yields ratio = +inf,
        // which never tightens the minimum — identical selection to the
        // guarded loop over every position.
        for (int p : w.index) {
          const double alpha = negdir * wv[static_cast<std::size_t>(p)];
          const double target = alpha > 0.0
                                    ? ub_basic_[static_cast<std::size_t>(p)]
                                    : lb_basic_[static_cast<std::size_t>(p)];
          const double r = (target - xb_[static_cast<std::size_t>(p)]) / alpha;
          const double ratio =
              std::abs(alpha) < opt_.pivot_tol ? kInf : (r > 0.0 ? r : 0.0);
          min_ratio = ratio < min_ratio ? ratio : min_ratio;
        }
      } else {
        for (int p : w.index) {
          const double alpha = negdir * wv[static_cast<std::size_t>(p)];
          if (std::abs(alpha) < opt_.pivot_tol) continue;
          const double v = xb_[static_cast<std::size_t>(p)];
          const double lo = lb_basic_[static_cast<std::size_t>(p)];
          const double hi = ub_basic_[static_cast<std::size_t>(p)];
          double target;
          if (alpha > 0.0) {
            // Value increasing: a below-lower infeasible variable first
            // reaches its lower bound; otherwise it blocks at its upper.
            if (v < lo - opt_.feas_tol) {
              target = lo;
            } else if (std::isfinite(hi)) {
              target = hi;
            } else {
              continue;
            }
            if (v > hi + opt_.feas_tol) continue;  // worsening leg
          } else {
            if (v > hi + opt_.feas_tol) {
              target = hi;
            } else if (std::isfinite(lo)) {
              target = lo;
            } else {
              continue;
            }
            if (v < lo - opt_.feas_tol) continue;
          }
          const double ratio = std::max(0.0, (target - v) / alpha);
          if (ratio < min_ratio) min_ratio = ratio;
        }
      }

      // Pass 2: among near-minimal breakpoints pick the largest pivot (the
      // first position on ties, hence the ascending index) or the lowest
      // variable index under Bland's rule.
      if (min_ratio < kNone) {
        const double cutoff = min_ratio + opt_.feas_tol;
        double best_pivot = 0.0;
        for (int p : w.index) {
          const double alpha = negdir * wv[static_cast<std::size_t>(p)];
          if (std::abs(alpha) < opt_.pivot_tol) continue;
          const double v = xb_[static_cast<std::size_t>(p)];
          const double lo = lb_basic_[static_cast<std::size_t>(p)];
          const double hi = ub_basic_[static_cast<std::size_t>(p)];
          double target;
          if (alpha > 0.0) {
            if (phase == 1 && v < lo - opt_.feas_tol) {
              target = lo;
            } else if (std::isfinite(hi)) {
              target = hi;
            } else {
              continue;
            }
            if (phase == 1 && v > hi + opt_.feas_tol) continue;
          } else {
            if (phase == 1 && v > hi + opt_.feas_tol) {
              target = hi;
            } else if (std::isfinite(lo)) {
              target = lo;
            } else {
              continue;
            }
            if (phase == 1 && v < lo - opt_.feas_tol) continue;
          }
          const double ratio = std::max(0.0, (target - v) / alpha);
          if (ratio > cutoff) continue;
          if (bland) {
            if (leave_pos < 0 ||
                basis_[static_cast<std::size_t>(p)] <
                    basis_[static_cast<std::size_t>(leave_pos)]) {
              leave_pos = p;
              leave_target = target;
              limit = ratio;
            }
          } else if (std::abs(alpha) > best_pivot) {
            best_pivot = std::abs(alpha);
            leave_pos = p;
            leave_target = target;
            limit = ratio;
          }
        }
      }

      const bool flip_first = flip_limit < limit;
      double step = flip_first ? flip_limit : limit;
      if (!std::isfinite(step)) {
        if (phase == 2) return LpStatus::kUnbounded;
        // An improving phase-1 direction must hit a breakpoint; not finding
        // one is numerical trouble. Refactor once and retry, then give up.
        if (++stall_refactors > 3) return LpStatus::kNumericalError;
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;
        continue;
      }
      stall_refactors = 0;
      ++iterations_;
      if (phase == 1) ++phase1_iterations_;
      degenerate_streak = step < 1e-10 ? degenerate_streak + 1 : 0;

      // Apply the step to the basic values. Positions off w's list hold
      // w == 0 and would only add an exact +-0.
      {
        const double scale = negdir * step;
        for (int p : w.index) {
          xb_[static_cast<std::size_t>(p)] +=
              wv[static_cast<std::size_t>(p)] * scale;
        }
      }

      if (flip_first) {
        // Entering variable travels bound-to-bound; basis, duals and reduced
        // costs are all unchanged.
        vstat_[static_cast<std::size_t>(entering)] =
            dir > 0 ? VStat::kAtUpper : VStat::kAtLower;
        continue;
      }

      // Basis change.
      const int leaving = basis_[static_cast<std::size_t>(leave_pos)];
      const double entering_start =
          vstat_[static_cast<std::size_t>(entering)] == VStat::kFree
              ? 0.0
              : nonbasic_value(entering);

      // One sparse pivot-row pass (rho = B^{-T} e_p under the *outgoing*
      // basis, alpha_j = rho . A_j through the row mirror) serves both the
      // incremental reduced-cost update d_j -= theta_d * alpha_j and the
      // Devex reference-weight update — the latter previously cost a full
      // O(n * nnz) column sweep per pivot.
      const bool weights = devex_score && !bland;
      const bool need_alpha = (inc_mode && dual_fresh) || weights;
      bool devex_reset = false;
      if (need_alpha) {
        rho.clear();
        rho.values[static_cast<std::size_t>(leave_pos)] = 1.0;
        rho.index.push_back(leave_pos);
        inv_.btran(rho);
        const double alpha_q = wv[static_cast<std::size_t>(leave_pos)];
        const double wq = devex_w_[static_cast<std::size_t>(entering)];
        const double inv_aq2 = 1.0 / (alpha_q * alpha_q);
        const bool update_d = inc_mode && dual_fresh;
        const double theta_d =
            update_d ? d_[static_cast<std::size_t>(entering)] / alpha_q : 0.0;
        touched_.clear();
        // Rows in ascending order, so each alpha_j sums as the dense pass.
        for (int i : rho.index) {
          const double ri = rho.values[static_cast<std::size_t>(i)];
          if (ri == 0.0) continue;
          const int end = row_start_[static_cast<std::size_t>(i) + 1];
          for (int k = row_start_[static_cast<std::size_t>(i)]; k < end; ++k) {
            const int j = row_col_[static_cast<std::size_t>(k)];
            if (!touched_mark_[static_cast<std::size_t>(j)]) {
              touched_mark_[static_cast<std::size_t>(j)] = 1;
              touched_.push_back(j);
            }
            alpha_work_[static_cast<std::size_t>(j)] +=
                ri * row_val_[static_cast<std::size_t>(k)];
          }
        }
        for (int j : touched_) {
          const double alpha_j = alpha_work_[static_cast<std::size_t>(j)];
          alpha_work_[static_cast<std::size_t>(j)] = 0.0;
          touched_mark_[static_cast<std::size_t>(j)] = 0;
          if (alpha_j == 0.0) continue;
          if (vstat_[static_cast<std::size_t>(j)] == VStat::kBasic ||
              j == entering) {
            continue;
          }
          if (update_d) {
            d_[static_cast<std::size_t>(j)] -= theta_d * alpha_j;
            ++pricing_candidates_;
          }
          if (weights) {
            const double cand = alpha_j * alpha_j * inv_aq2 * wq;
            if (cand > devex_w_[static_cast<std::size_t>(j)]) {
              devex_w_[static_cast<std::size_t>(j)] = cand;
              if (cand > 1e10) devex_reset = true;
            }
          }
        }
        if (weights) {
          devex_w_[static_cast<std::size_t>(leaving)] =
              std::max(wq * inv_aq2, 1.0);
        }
        if (update_d) {
          // alpha_leaving = rho . B e_p = 1 exactly, so d_leaving = -theta_d.
          d_[static_cast<std::size_t>(leaving)] = -theta_d;
          d_[static_cast<std::size_t>(entering)] = 0.0;
          ++pricing_candidates_;
        }
      }

      if (!inv_.update(leave_pos, w, opt_.pivot_tol)) {
        // Stale factorization made the pivot look acceptable when it is not;
        // rebuild and retry the whole iteration. (The refresh also discards
        // the incremental d updates applied above for a pivot that never
        // happened.)
        const double scale = negdir * step;
        for (int p : w.index) {
          xb_[static_cast<std::size_t>(p)] -=
              wv[static_cast<std::size_t>(p)] * scale;
        }
        if (++stall_refactors > 3) return LpStatus::kNumericalError;
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;
        continue;
      }
      basis_[static_cast<std::size_t>(leave_pos)] = entering;
      vstat_[static_cast<std::size_t>(entering)] = VStat::kBasic;
      xb_[static_cast<std::size_t>(leave_pos)] =
          entering_start + static_cast<double>(dir) * step;
      lb_basic_[static_cast<std::size_t>(leave_pos)] =
          lp_.lower[static_cast<std::size_t>(entering)];
      ub_basic_[static_cast<std::size_t>(leave_pos)] =
          lp_.upper[static_cast<std::size_t>(entering)];
      const double leave_lo = lp_.lower[static_cast<std::size_t>(leaving)];
      vstat_[static_cast<std::size_t>(leaving)] =
          std::abs(leave_target - leave_lo) <= opt_.feas_tol ? VStat::kAtLower
                                                             : VStat::kAtUpper;
      if (inc_mode) ++pivots_since_refresh;
      if (devex_reset) {
        // Reference framework degraded: restart the weights.
        devex_w_.assign(static_cast<std::size_t>(n_), 1.0);
      }
    }
  }

  LpSolution extract(LpStatus st) {
    LpSolution sol;
    sol.status = st;
    sol.iterations = iterations_;
    sol.phase1_iterations = phase1_iterations_;
    sol.refactorizations = refactorizations_;
    sol.phase1_seconds = phase1_seconds_;
    sol.phase2_seconds = phase2_seconds_;
    sol.warm_started = warm_started_;
    sol.pricing_candidates = pricing_candidates_;
    sol.x.assign(static_cast<std::size_t>(n_), 0.0);
    sol.basis.status.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      BasisStatus bs = BasisStatus::kNonbasicLower;
      switch (vstat_[static_cast<std::size_t>(j)]) {
        case VStat::kBasic: bs = BasisStatus::kBasic; break;
        case VStat::kAtLower: bs = BasisStatus::kNonbasicLower; break;
        case VStat::kAtUpper: bs = BasisStatus::kNonbasicUpper; break;
        case VStat::kFree: bs = BasisStatus::kNonbasicFree; break;
      }
      sol.basis.status[static_cast<std::size_t>(j)] = bs;
    }
    // kTimedOut (and kIterationLimit) deliberately fall through to full
    // extraction: the point reached so far is the "best basis" a retry can
    // warm-start from, even if it is not yet feasible or optimal.
    if (st == LpStatus::kInfeasible || st == LpStatus::kNumericalError) {
      return sol;
    }
    for (int j = 0; j < n_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] != VStat::kBasic) {
        sol.x[static_cast<std::size_t>(j)] = nonbasic_value(j);
      }
    }
    for (int p = 0; p < m_; ++p) {
      sol.x[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])] =
          xb_[static_cast<std::size_t>(p)];
    }
    for (int j = 0; j < n_; ++j) {
      sol.objective += lp_.cost[static_cast<std::size_t>(j)] *
                       sol.x[static_cast<std::size_t>(j)];
    }
    // Duals and reduced costs from the final basis.
    std::vector<double> y(static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p) {
      y[static_cast<std::size_t>(p)] =
          lp_.cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])];
    }
    inv_.btran(y);
    sol.dual = y;
    sol.reduced_cost.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      double d = lp_.cost[static_cast<std::size_t>(j)];
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        d -= y[static_cast<std::size_t>(lp_.a.row_index[k])] *
             lp_.a.value[static_cast<std::size_t>(k)];
      }
      sol.reduced_cost[static_cast<std::size_t>(j)] = d;
    }
    return sol;
  }

  const Lp& lp_;
  SimplexOptions opt_;
  const Basis* warm_ = nullptr;
  bool warm_started_ = false;
  int m_ = 0;
  int n_ = 0;
  int max_iter_ = 0;
  int iterations_ = 0;
  int phase1_iterations_ = 0;
  int refactorizations_ = 0;
  long long pricing_candidates_ = 0;
  double phase1_seconds_ = 0.0;
  double phase2_seconds_ = 0.0;
  std::vector<int> basis_;
  std::vector<VStat> vstat_;
  std::vector<double> xb_;
  std::vector<double> lb_basic_;   // bounds of basic variables by position
  std::vector<double> ub_basic_;
  std::vector<double> devex_w_;
  std::vector<double> y_;          // dual work vector for pricing
  std::vector<double> d_;          // reduced costs (maintained in inc mode)
  std::vector<double> alpha_work_; // pivot-row scatter workspace (zeroed)
  std::vector<char> touched_mark_;
  std::vector<int> touched_;
  std::vector<int> cand_;          // kPartial candidate list
  std::vector<std::pair<double, int>> scratch_cand_;
  std::vector<int> row_start_;     // row-major mirror of lp_.a
  std::vector<int> row_col_;
  std::vector<double> row_val_;
  LuBasis inv_;
};

thread_local const SimplexOptions* active_simplex_override = nullptr;
thread_local SolveObserver* active_solve_observer = nullptr;
thread_local ScopedWarmStartCache* active_warm_cache = nullptr;
thread_local ScopedSolveDeadline* active_solve_deadline = nullptr;
thread_local std::uint64_t active_basis_tag = 0;

// Runs the simplex with the standard warm-retry contract: a warm-started
// solve that ends in numerical error is retried cold from the all-slack
// basis, and the failed attempt's iterations, refactorizations AND wall
// clock are summed into the final stats (the cold retry used to overwrite
// the seconds, under-reporting warm failures).
LpSolution run_simplex(const Lp& lp, const SimplexOptions& opt,
                       const Basis* warm) {
  Simplex s(lp, opt, warm);
  LpSolution sol = s.run();
  if (s.warm_started() && sol.status == LpStatus::kNumericalError) {
    static obs::Counter& warm_retries =
        obs::Registry::global().counter("arrow_solver_warm_retries_total");
    warm_retries.add();
    const int warm_iterations = sol.iterations;
    const int warm_phase1_iterations = sol.phase1_iterations;
    const int warm_refactorizations = sol.refactorizations;
    const long long warm_candidates = sol.pricing_candidates;
    const double warm_phase1_seconds = sol.phase1_seconds;
    const double warm_phase2_seconds = sol.phase2_seconds;
    Simplex cold(lp, opt);
    sol = cold.run();
    sol.iterations += warm_iterations;
    sol.phase1_iterations += warm_phase1_iterations;
    sol.refactorizations += warm_refactorizations;
    sol.pricing_candidates += warm_candidates;
    sol.phase1_seconds += warm_phase1_seconds;
    sol.phase2_seconds += warm_phase2_seconds;
  }
  return sol;
}

}  // namespace

ScopedSimplexOverride::ScopedSimplexOverride(const SimplexOptions& options)
    : options_(options), previous_(active_simplex_override) {
  active_simplex_override = &options_;
}

ScopedSimplexOverride::~ScopedSimplexOverride() {
  active_simplex_override = previous_;
}

const SimplexOptions* ScopedSimplexOverride::active() {
  return active_simplex_override;
}

ScopedSolveObserver::ScopedSolveObserver(SolveObserver observer)
    : observer_(std::move(observer)), previous_(active_solve_observer) {
  active_solve_observer = observer_ ? &observer_ : nullptr;
}

ScopedSolveObserver::~ScopedSolveObserver() {
  active_solve_observer = previous_;
}

SolveObserver* ScopedSolveObserver::active() { return active_solve_observer; }

ScopedWarmStartCache::ScopedWarmStartCache() : previous_(active_warm_cache) {
  active_warm_cache = this;
}

ScopedWarmStartCache::~ScopedWarmStartCache() {
  active_warm_cache = previous_;
}

ScopedWarmStartCache* ScopedWarmStartCache::active() {
  return active_warm_cache;
}

ScopedSolveDeadline::ScopedSolveDeadline(const util::Deadline& deadline)
    : deadline_(deadline), previous_(active_solve_deadline) {
  active_solve_deadline = this;
}

ScopedSolveDeadline::~ScopedSolveDeadline() {
  active_solve_deadline = previous_;
}

util::Deadline ScopedSolveDeadline::active_deadline() {
  util::Deadline d;
  for (ScopedSolveDeadline* g = active_solve_deadline; g != nullptr;
       g = g->previous_) {
    d = util::Deadline::earlier(d, g->deadline_);
  }
  return d;
}

void ScopedSolveDeadline::note_timeout() {
  for (ScopedSolveDeadline* g = active_solve_deadline; g != nullptr;
       g = g->previous_) {
    ++g->timeouts_;
  }
}

bool ScopedSolveDeadline::any_active() {
  return active_solve_deadline != nullptr;
}

ScopedBasisTag::ScopedBasisTag(std::uint64_t tag) : previous_(active_basis_tag) {
  active_basis_tag = tag;
}

ScopedBasisTag::~ScopedBasisTag() { active_basis_tag = previous_; }

std::uint64_t ScopedBasisTag::active() { return active_basis_tag; }

const Basis* ScopedWarmStartCache::find(int rows, int cols,
                                        std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(WarmKey{rows, cols, tag});
  if (it == entries_.end()) return nullptr;
  ++hits_;
  // Map nodes are stable under inserts of other keys, and distinct
  // (shape, tag) keys are never overwritten concurrently in our use, so the
  // pointer stays valid past the lock.
  return &it->second;
}

bool ScopedWarmStartCache::lookup(int rows, int cols, std::uint64_t tag,
                                  Basis* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(WarmKey{rows, cols, tag});
  if (it == entries_.end()) return false;
  ++hits_;
  *out = it->second;
  return true;
}

void ScopedWarmStartCache::store(int rows, int cols, Basis basis,
                                 std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[WarmKey{rows, cols, tag}] = std::move(basis);
  ++stores_;
}

void ScopedWarmStartCache::preload(int rows, int cols, Basis basis,
                                   std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[WarmKey{rows, cols, tag}] = std::move(basis);
}

LpSolution solve_lp(const Lp& lp, const SimplexOptions& options,
                    const Basis* warm_start) {
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.cost.size()), "cost size");
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.lower.size()), "lower size");
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.upper.size()), "upper size");
  ARROW_CHECK(lp.a.rows == static_cast<int>(lp.rhs.size()), "rhs size");
  const SimplexOptions* override = ScopedSimplexOverride::active();
  SimplexOptions opt = override ? *override : options;
  // The binding deadline is the earliest of the caller's and every ambient
  // guard's — an override (which replaces the caller's options wholesale)
  // can therefore never loosen a budget imposed by an enclosing scope.
  opt.deadline = util::Deadline::earlier(opt.deadline,
                                         ScopedSolveDeadline::active_deadline());
  ScopedWarmStartCache* cache = ScopedWarmStartCache::active();
  const Basis* warm = warm_start;
  if (warm == nullptr && cache != nullptr) {
    warm = cache->find(lp.a.rows, lp.a.cols, ScopedBasisTag::active());
  }
  OBS_SPAN("lp_solve");
  const auto solve_t0 = std::chrono::steady_clock::now();

  LpSolution sol;
  bool solved = false;
  if (opt.presolve && lp.a.rows > 0) {
    Presolved pre = presolve_lp(lp, opt);
    if (pre.status == Presolved::Status::kInfeasible) {
      sol.status = LpStatus::kInfeasible;
      sol.x.assign(static_cast<std::size_t>(lp.a.cols), 0.0);
      // Structurally valid all-slack basis, matching the shape contract of a
      // simplex-detected infeasibility.
      sol.basis.status.assign(static_cast<std::size_t>(lp.a.cols),
                              BasisStatus::kNonbasicLower);
      for (int i = 0; i < lp.a.rows; ++i) {
        sol.basis.status[static_cast<std::size_t>(lp.a.cols - lp.a.rows + i)] =
            BasisStatus::kBasic;
      }
      sol.presolve_rows_removed = pre.rows_removed;
      sol.presolve_cols_removed = pre.cols_removed;
      solved = true;
    } else if (!pre.is_identity()) {
      // Map the full-space warm basis down to the reduced space; a basis
      // whose basic count no longer matches is rejected by the simplex and
      // the solve falls back to cold, exactly as in full space.
      Basis reduced_warm;
      const Basis* rw = nullptr;
      if (warm != nullptr &&
          static_cast<int>(warm->status.size()) == lp.a.cols) {
        reduced_warm.status.reserve(pre.col_map.size());
        for (int oc : pre.col_map) {
          reduced_warm.status.push_back(
              warm->status[static_cast<std::size_t>(oc)]);
        }
        rw = &reduced_warm;
      }
      LpSolution reduced_sol = run_simplex(pre.reduced, opt, rw);
      sol = postsolve_solution(lp, pre, reduced_sol, opt);
      sol.presolve_rows_removed = pre.rows_removed;
      sol.presolve_cols_removed = pre.cols_removed;
      solved = true;
    }
  }
  if (!solved) {
    sol = run_simplex(lp, opt, warm);
  }

  if (cache != nullptr &&
      (sol.status == LpStatus::kOptimal ||
       sol.status == LpStatus::kTimedOut) &&
      !sol.basis.empty()) {
    // A timed-out basis is the furthest vertex the budget bought; storing it
    // lets the retry (or the next period's solve) resume from there instead
    // of repeating the pivots already paid for.
    cache->store(lp.a.rows, lp.a.cols, sol.basis, ScopedBasisTag::active());
  }
  if (sol.status == LpStatus::kTimedOut) {
    static obs::Counter& timeouts =
        obs::Registry::global().counter("arrow_solver_timeouts_total");
    timeouts.add();
    ScopedSolveDeadline::note_timeout();
  }
  // Metrics record what the solver *returned* — reads only, after the
  // result is final, so instrumented and uninstrumented runs pivot
  // identically.
  {
    auto& reg = obs::Registry::global();
    static obs::Counter& solves = reg.counter("arrow_solver_solves_total");
    static obs::Counter& iters =
        reg.counter("arrow_solver_simplex_iterations_total");
    static obs::Counter& p1_iters =
        reg.counter("arrow_solver_phase1_iterations_total");
    static obs::Counter& refactors =
        reg.counter("arrow_solver_refactorizations_total");
    static obs::Counter& warm_starts =
        reg.counter("arrow_solver_warm_starts_total");
    static obs::Counter& cold_starts =
        reg.counter("arrow_solver_cold_starts_total");
    static obs::Counter& presolve_rows =
        reg.counter("arrow_solver_presolve_rows_removed_total");
    static obs::Counter& presolve_cols =
        reg.counter("arrow_solver_presolve_cols_removed_total");
    static obs::Counter& pricing_cands =
        reg.counter("arrow_solver_pricing_candidates");
    static obs::Histogram& solve_seconds =
        reg.histogram("arrow_solver_solve_seconds");
    static obs::Histogram& phase1_seconds =
        reg.histogram("arrow_solver_phase1_seconds");
    static obs::Histogram& phase2_seconds =
        reg.histogram("arrow_solver_phase2_seconds");
    solves.add();
    iters.add(static_cast<std::uint64_t>(sol.iterations));
    p1_iters.add(static_cast<std::uint64_t>(sol.phase1_iterations));
    refactors.add(static_cast<std::uint64_t>(sol.refactorizations));
    (sol.warm_started ? warm_starts : cold_starts).add();
    presolve_rows.add(static_cast<std::uint64_t>(sol.presolve_rows_removed));
    presolve_cols.add(static_cast<std::uint64_t>(sol.presolve_cols_removed));
    pricing_cands.add(static_cast<std::uint64_t>(sol.pricing_candidates));
    solve_seconds.observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - solve_t0)
                              .count());
    phase1_seconds.observe(sol.phase1_seconds);
    phase2_seconds.observe(sol.phase2_seconds);
  }
  if (SolveObserver* observer = ScopedSolveObserver::active()) {
    (*observer)(lp, sol);
  }
  return sol;
}

}  // namespace arrow::solver
