// The degradation ladder: one TE period on the planning core.
//
// PlanningCore::solve (core.h) — and through it both control loops,
// run_controller and the serve daemon's TickEngine — lands every TE period
// on *some* plan inside its wall-clock budget, no matter what the solver, a
// fault injector, or the deadline does. One call walks the Rung ladder (see
// controller.h) from the run's scheme down to closed-form ECMP, enforcing
// per-rung deadline shares and backoff, and reports which rung served the
// period plus the solver-internals accounting the core folds into the run's
// ControllerReport. The primary and relaxed rungs call the run's one
// schemes::Scheme instance; the registry adapters make the te:: calls.
#pragma once

#include "controller/controller.h"
#include "schemes/scheme.h"
#include "solver/lp.h"
#include "te/input.h"
#include "util/deadline.h"
#include "util/parallel.h"

namespace arrow::ctrl {

// Shares of the period budget the LP rungs may spend. The primary attempt
// gets half, the relaxed retry 30%, FFC whatever is left — so even when
// every LP rung burns its full share, the closed-form bottom rungs still
// land a plan inside the period's deadline.
inline constexpr double kPrimaryBudgetShare = 0.5;
inline constexpr double kRelaxedBudgetShare = 0.3;

// Solver settings for the ladder's second rung: Dantzig pricing takes a
// different pivot trajectory than the default kIncremental (sidesteps
// cycling / stalling failures), the raised iteration cap outlasts
// kIterationLimit faults, and the low Bland threshold engages the
// anti-cycling rule early.
solver::SimplexOptions relaxed_simplex_options();

// Projects the last successfully solved TeSolution onto the current traffic
// matrix: per-flow *splitting ratios* are carried forward and admission
// follows the new demand (what the installed router config does between TE
// runs). Feasible by construction; never over-admits a shrunken flow.
te::TeSolution carry_forward(const te::TeSolution& last_good,
                             const te::TeInput& input);

struct LadderOutcome {
  te::TeSolution sol;
  Rung rung = Rung::kPrimary;
  double seconds = 0.0;      // wall clock across all attempts this period
  long long iterations = 0;  // simplex pivots across all attempts
  // Solver-internals totals across all attempts (presolve reductions and
  // columns priced), same accounting discipline as `iterations`.
  long long presolve_rows = 0;
  long long presolve_cols = 0;
  long long pricing_candidates = 0;
  int timeouts = 0;          // LP solves that returned kTimedOut
  int backoff_retries = 0;   // backoff sleeps taken between rungs
};

// Rung name with the metric-safe spelling (dashes are not legal in
// Prometheus metric names).
std::string rung_metric_name(Rung r);

// Walks the degradation ladder until some rung yields a usable solution.
// The FFC-1 rung is skipped when `scheme` is FFC-1 itself (the same LP).
// kEcmp is closed-form (no LP anywhere in solve_ecmp), so the ladder cannot
// come back empty no matter what the solver or a fault injector does.
//
// `deadline` is this period's whole budget; each LP rung additionally runs
// under its share of it (ScopedSolveDeadline nests, earliest expiry wins).
// A rung whose solve times out — or whose turn comes after the period
// deadline already passed — degrades to the next rung. `last_good`
// (nullable) seeds the carry-forward rung; without it the ladder bottoms
// out at ECMP. `backoff` (nullable) spaces the retry rungs with capped
// jittered delays, never sleeping past the deadline.
LadderOutcome solve_with_ladder(schemes::Scheme& scheme,
                                const te::TeInput& input,
                                const te::ArrowPrepared& prepared,
                                const te::TeSolution* last_good,
                                const te::RestorabilityCache* cache,
                                util::ThreadPool& pool,
                                const util::Deadline& deadline,
                                util::Backoff* backoff);

}  // namespace arrow::ctrl
