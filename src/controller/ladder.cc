#include "controller/ladder.h"

#include "te/basic.h"
#include "te/ffc.h"
#include "util/clock.h"

namespace arrow::ctrl {

solver::SimplexOptions relaxed_simplex_options() {
  solver::SimplexOptions opt;
  opt.pricing = solver::Pricing::kDantzig;
  opt.max_iterations = 500000;
  opt.bland_threshold = 25;
  return opt;
}

te::TeSolution carry_forward(const te::TeSolution& last_good,
                             const te::TeInput& input) {
  te::TeSolution sol = last_good;
  sol.scheme = "CarryForward(" + last_good.scheme + ")";
  sol.optimal = true;  // feasible by construction, not an optimum
  sol.solve_seconds = 0.0;
  sol.simplex_iterations = 0;
  // Carry the per-flow *splitting ratios* forward and let admission follow
  // demand (what the installed router config does between TE runs: split
  // weights stay, traffic volume changes). Oversubscription this may cause
  // on a shifted matrix is resolved by the delivery model's per-link
  // scaling.
  const auto& flows = input.flows();
  for (std::size_t f = 0; f < sol.alloc.size() && f < flows.size(); ++f) {
    const double demand = flows[f].demand_gbps;
    double total = 0.0;
    for (double a : sol.alloc[f]) total += a;
    if (total > 1e-9) {
      const double scale = demand / total;
      for (double& a : sol.alloc[f]) a *= scale;
      if (f < sol.admitted.size()) sol.admitted[f] = demand;
    } else if (f < sol.admitted.size()) {
      sol.admitted[f] = 0.0;
    }
  }
  return sol;
}

std::string rung_metric_name(Rung r) {
  std::string name = to_string(r);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

LadderOutcome solve_with_ladder(schemes::Scheme& scheme,
                                const te::TeInput& input,
                                const te::ArrowPrepared& prepared,
                                const te::TeSolution* last_good,
                                const te::RestorabilityCache* cache,
                                util::ThreadPool& pool,
                                const util::Deadline& deadline,
                                util::Backoff* backoff) {
  LadderOutcome out;
  solver::ScopedSolveDeadline run_guard(deadline);
  const bool budgeted = deadline.is_set();
  const double t0 = budgeted ? util::mono_now_s() : 0.0;
  const double budget = deadline.remaining_s();  // +inf when unset
  // Wall clock (not the sum of per-solve timings): backoff sleeps and
  // model-build time count against the period too. Falls back to the solver
  // timings when unbudgeted, avoiding clock reads on the default path.
  const auto elapsed = [&](double lp_seconds) {
    return budgeted ? util::mono_now_s() - t0 : lp_seconds;
  };
  double lp_seconds = 0.0;
  const auto account = [&]() {
    lp_seconds += out.sol.solve_seconds;
    out.iterations += out.sol.simplex_iterations;
    out.presolve_rows += out.sol.presolve_rows_removed;
    out.presolve_cols += out.sol.presolve_cols_removed;
    out.pricing_candidates += out.sol.pricing_candidates;
  };

  if (!deadline.expired()) {
    util::Deadline rung_deadline;
    if (budgeted) {
      rung_deadline = util::Deadline::after(budget * kPrimaryBudgetShare);
    }
    solver::ScopedSolveDeadline guard(rung_deadline);
    out.sol = scheme.solve(input, prepared, pool, cache);
    account();
    if (out.sol.optimal) {
      out.seconds = elapsed(lp_seconds);
      out.timeouts = run_guard.timeouts();
      return out;
    }
  }

  out.rung = Rung::kRelaxedRetry;
  if (!deadline.expired()) {
    if (backoff != nullptr && backoff->sleep(deadline) > 0.0) {
      ++out.backoff_retries;
    }
    util::Deadline rung_deadline;
    if (budgeted) {
      rung_deadline = util::Deadline::after(budget * kRelaxedBudgetShare);
    }
    solver::ScopedSolveDeadline guard(rung_deadline);
    solver::ScopedSimplexOverride relax(relaxed_simplex_options());
    // The override is thread-local: the retry must not fan model builds
    // onto pool workers that would escape it.
    util::ThreadPool inline_pool(1);
    out.sol = scheme.solve(input, prepared, inline_pool, cache);
    account();
    if (out.sol.optimal) {
      out.seconds = elapsed(lp_seconds);
      out.timeouts = run_guard.timeouts();
      return out;
    }
  }

  // FFC runs under the remainder of the period budget (run_guard alone).
  if (scheme.name() != "FFC-1" &&  // pointless to retry the same LP
      !deadline.expired()) {
    if (backoff != nullptr && backoff->sleep(deadline) > 0.0) {
      ++out.backoff_retries;
    }
    out.sol = te::solve_ffc(input, te::FfcParams{1, 0});
    account();
    out.rung = Rung::kFfcFallback;
    if (out.sol.optimal) {
      out.seconds = elapsed(lp_seconds);
      out.timeouts = run_guard.timeouts();
      return out;
    }
  }

  out.timeouts = run_guard.timeouts();
  if (last_good != nullptr) {
    out.sol = carry_forward(*last_good, input);
    out.rung = Rung::kCarryForward;
    out.seconds = elapsed(lp_seconds);
    return out;
  }
  out.sol = te::solve_ecmp(input);
  out.rung = Rung::kEcmp;
  out.seconds = elapsed(lp_seconds);
  return out;
}

}  // namespace arrow::ctrl
