// Pricing-mode parity, presolve round-trips, and warm-retry accounting on
// TE-derived LPs.
//
// The corpus is captured with a ScopedSolveObserver during a real
// solve_arrow run (Phase I + Phase II LPs included), so every pricing mode
// and the presolve round-trip are exercised on the exact LPs the paper's
// pipeline produces, not synthetic toys. kDantzig is the oracle: it keeps
// no incremental state, so agreement with it validates the maintained
// reduced costs of kIncremental/kPartial and the Devex weights.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

namespace arrow::solver {
namespace {

// Small TE instance whose solve_arrow run donates its LPs.
class PricingCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (corpus_ != nullptr) return;
    corpus_ = new std::vector<Lp>();
    const topo::Network net = topo::build_b4();
    util::Rng rng(77);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    const auto ms = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.002;
    auto set = scenario::generate_scenarios(net, sp, rng);
    const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);
    te::TunnelParams tun;
    tun.tunnels_per_flow = 4;
    te::TeInput input(net, ms[0], scenarios, tun);
    input.scale_demands(te::max_satisfiable_scale(input));
    input.scale_demands(0.9);
    te::ArrowParams params;
    params.tickets.num_tickets = 3;
    const auto prepared = te::prepare_arrow(input, params, rng);
    {
      ScopedSolveObserver capture([](const Lp& lp, LpSolution& sol) {
        (void)sol;
        if (corpus_->size() < 8) corpus_->push_back(lp);
      });
      const auto sol = te::solve_arrow(input, prepared, params);
      ASSERT_TRUE(sol.optimal);
    }
    ASSERT_FALSE(corpus_->empty());
  }

  static std::vector<Lp>* corpus_;
};

std::vector<Lp>* PricingCorpus::corpus_ = nullptr;

TEST_F(PricingCorpus, AllPricingModesReachTheSameOptimum) {
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    const Lp& lp = (*corpus_)[i];
    SimplexOptions base;
    const LpSolution oracle = solve_lp(lp, [&] {
      SimplexOptions o = base;
      o.pricing = Pricing::kDantzig;
      return o;
    }());
    ASSERT_EQ(oracle.status, LpStatus::kOptimal) << "lp " << i;
    for (Pricing p : {Pricing::kDevex, Pricing::kIncremental,
                      Pricing::kPartial}) {
      SimplexOptions opt = base;
      opt.pricing = p;
      const LpSolution sol = solve_lp(lp, opt);
      ASSERT_EQ(sol.status, LpStatus::kOptimal)
          << "lp " << i << " pricing " << static_cast<int>(p);
      const double scale = 1.0 + std::abs(oracle.objective);
      EXPECT_LT(std::abs(sol.objective - oracle.objective), 1e-6 * scale)
          << "lp " << i << " pricing " << static_cast<int>(p);
      EXPECT_LT(primal_violation(lp, sol.x), 1e-6)
          << "lp " << i << " pricing " << static_cast<int>(p);
      // The returned basis must be a genuine vertex of the full-space LP.
      EXPECT_EQ(sol.basis.num_basic(), lp.a.rows)
          << "lp " << i << " pricing " << static_cast<int>(p);
    }
  }
}

// Pivot-sequence pin. The basis kernels (FTRAN/BTRAN, eta updates, LU
// refactorization) may change how they reach a result, never the result:
// every corpus LP must take exactly the pivots, phase-1 pivots and
// refactorizations it took when these constants were recorded, and land on
// the bit-identical objective. The variants cover every pricing mode, the
// unpresolved LP, and a warm re-solve after a demand change (the serve-tick
// shape: phase 1 from a primal-infeasible basis, then phase 2).
struct PivotPin {
  int iterations;
  int phase1_iterations;
  int refactorizations;
  std::uint64_t objective_bits;
};

constexpr int kPinVariants = 6;

// Rows: corpus LP. Columns: kDantzig, kDevex, kIncremental, kPartial,
// kIncremental without presolve, warm kIncremental re-solve at 0.8x rhs.
constexpr PivotPin kPivotPins[][kPinVariants] = {
    {{551, 0, 9, 0xc0bec3159a50a91a},
     {522, 0, 9, 0xc0bec3159a50a917},
     {498, 0, 8, 0xc0bec3159a50a918},
     {567, 0, 9, 0xc0bec3159a50a918},
     {498, 0, 8, 0xc0bec3159a50a918},
     {152, 63, 3, 0xc0bcf697455e4bd9}},
    {{351, 0, 6, 0xc0b867d5978dbeda},
     {344, 0, 6, 0xc0b867d5978dbed8},
     {337, 0, 6, 0xc0b867d5978dbed8},
     {335, 0, 6, 0xc0b867d5978dbed9},
     {337, 0, 6, 0xc0b867d5978dbed8},
     {62, 46, 1, 0xc0b57a66e7780227}},
};

LpSolution solve_pin_variant(const Lp& lp, int variant) {
  constexpr Pricing kModes[] = {Pricing::kDantzig, Pricing::kDevex,
                                Pricing::kIncremental, Pricing::kPartial};
  SimplexOptions opt;
  if (variant < 4) {
    opt.pricing = kModes[variant];
    return solve_lp(lp, opt);
  }
  if (variant == 4) {
    opt.presolve = false;
    return solve_lp(lp, opt);
  }
  const LpSolution cold = solve_lp(lp, opt);
  Lp shifted = lp;
  for (double& r : shifted.rhs) r *= 0.8;
  return solve_lp(shifted, opt, &cold.basis);
}

TEST_F(PricingCorpus, PivotSequencesMatchTheRecordedPins) {
  const std::size_t pinned = sizeof(kPivotPins) / sizeof(kPivotPins[0]);
  EXPECT_EQ(corpus_->size(), pinned);
  bool all_match = corpus_->size() == pinned;
  std::string actual;
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    actual += "    {";
    for (int v = 0; v < kPinVariants; ++v) {
      const LpSolution sol = solve_pin_variant((*corpus_)[i], v);
      ASSERT_EQ(sol.status, LpStatus::kOptimal) << "lp " << i;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &sol.objective, sizeof(bits));
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{%d, %d, %d, 0x%016" PRIx64 "}",
                    sol.iterations, sol.phase1_iterations,
                    sol.refactorizations, bits);
      actual += buf;
      actual += v + 1 < kPinVariants ? ",\n     " : "},\n";
      if (i >= pinned) continue;
      const PivotPin& pin = kPivotPins[i][v];
      const bool match = sol.iterations == pin.iterations &&
                         sol.phase1_iterations == pin.phase1_iterations &&
                         sol.refactorizations == pin.refactorizations &&
                         bits == pin.objective_bits;
      EXPECT_TRUE(match) << "lp " << i << " variant " << v << ": got " << buf;
      all_match = all_match && match;
    }
  }
  if (!all_match) std::printf("actual pins:\n%s", actual.c_str());
}

TEST_F(PricingCorpus, PartialPricingDoesLessWorkThanDantzig) {
  // The candidate-list mode must not price more columns than the
  // full-recomputation oracle on the corpus in aggregate — that is its
  // reason to exist.
  long long dantzig = 0, partial = 0;
  for (const Lp& lp : *corpus_) {
    SimplexOptions opt;
    opt.pricing = Pricing::kDantzig;
    dantzig += solve_lp(lp, opt).pricing_candidates;
    opt.pricing = Pricing::kPartial;
    partial += solve_lp(lp, opt).pricing_candidates;
  }
  EXPECT_GT(dantzig, 0);
  EXPECT_LT(partial, dantzig);
}

TEST_F(PricingCorpus, PresolveRoundTripPreservesTheOptimum) {
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    const Lp& lp = (*corpus_)[i];
    SimplexOptions on, off;
    on.presolve = true;
    off.presolve = false;
    const LpSolution a = solve_lp(lp, on);
    const LpSolution b = solve_lp(lp, off);
    ASSERT_EQ(a.status, LpStatus::kOptimal) << "lp " << i;
    ASSERT_EQ(b.status, LpStatus::kOptimal) << "lp " << i;
    const double scale = 1.0 + std::abs(b.objective);
    EXPECT_LT(std::abs(a.objective - b.objective), 1e-7 * scale) << "lp " << i;
    // Postsolve must return full-space artifacts regardless of reductions.
    EXPECT_EQ(static_cast<int>(a.x.size()), lp.a.cols) << "lp " << i;
    EXPECT_EQ(static_cast<int>(a.dual.size()), lp.a.rows) << "lp " << i;
    EXPECT_EQ(static_cast<int>(a.reduced_cost.size()), lp.a.cols)
        << "lp " << i;
    EXPECT_EQ(a.basis.num_basic(), lp.a.rows) << "lp " << i;
    EXPECT_LT(primal_violation(lp, a.x), 1e-6) << "lp " << i;
  }
}

// Hand-built computational-form LP: structural columns first, one identity
// slack per row appended last (the invariant Model::build_lp guarantees and
// presolve_lp checks for).
Lp single_row_lp(double x_lb, double x_ub, double cost, double rhs) {
  Lp lp;
  lp.a.rows = 1;
  lp.a.cols = 2;
  lp.a.col_start = {0, 1, 2};
  lp.a.row_index = {0, 0};
  lp.a.value = {1.0, 1.0};
  lp.cost = {cost, 0.0};
  lp.lower = {x_lb, 0.0};
  lp.upper = {x_ub, kInf};
  lp.rhs = {rhs};
  return lp;
}

TEST(Presolve, AllRowsEliminatedStillYieldsFullSpaceSolution) {
  // min -x, x in [0,5], x + s = 10 with s >= 0 (i.e. x <= 10, redundant).
  // The singleton row is dropped and the then-empty column is parked at its
  // cost-preferred bound: the whole LP dissolves in presolve and postsolve
  // must still reconstruct x, duals, reduced costs and a valid basis.
  const Lp lp = single_row_lp(0.0, 5.0, -1.0, 10.0);
  SimplexOptions opt;
  opt.presolve = true;
  const LpSolution sol = solve_lp(lp, opt);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(sol.objective, -5.0);
  ASSERT_EQ(sol.x.size(), 2u);
  EXPECT_DOUBLE_EQ(sol.x[0], 5.0);
  EXPECT_DOUBLE_EQ(sol.x[1], 5.0);  // slack absorbs the remainder
  ASSERT_EQ(sol.dual.size(), 1u);
  ASSERT_EQ(sol.reduced_cost.size(), 2u);
  EXPECT_EQ(sol.basis.num_basic(), 1);
  EXPECT_LT(primal_violation(lp, sol.x), 1e-9);
  EXPECT_EQ(sol.presolve_rows_removed, 1);
  EXPECT_GT(sol.presolve_cols_removed, 0);
}

TEST(Presolve, DetectsInfeasibilityFromImpliedBounds) {
  // x in [0,10] but x + s = -1 with s >= 0 forces x <= -1: infeasible, and
  // the singleton-row bound tightening must catch it before any pivot.
  const Lp lp = single_row_lp(0.0, 10.0, 1.0, -1.0);
  for (bool presolve : {true, false}) {
    SimplexOptions opt;
    opt.presolve = presolve;
    const LpSolution sol = solve_lp(lp, opt);
    EXPECT_EQ(sol.status, LpStatus::kInfeasible) << "presolve=" << presolve;
  }
  SimplexOptions opt;
  opt.presolve = true;
  EXPECT_EQ(solve_lp(lp, opt).iterations, 0);
}

TEST(WarmRetry, FailedWarmAttemptSecondsAreSummedIntoTheRetry) {
  // A warm-started solve that collapses with numerical error is retried
  // cold; the retry must ADD the failed attempt's phase clocks (1.0 s each,
  // injected) instead of overwriting them.
  const Lp lp = single_row_lp(0.0, 5.0, -1.0, 3.0);
  SimplexOptions opt;
  opt.presolve = false;
  const LpSolution cold = solve_lp(lp, opt);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  opt.fail_warm_start_for_test = true;
  const LpSolution retried = solve_lp(lp, opt, &cold.basis);
  EXPECT_EQ(retried.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(retried.objective, cold.objective);
  EXPECT_GE(retried.phase1_seconds, 1.0);
  EXPECT_GE(retried.phase2_seconds, 1.0);
  // The retry ran cold, so the result must not claim a warm start.
  EXPECT_FALSE(retried.warm_started);
}

TEST(PresolveSweep, SweepResultsAreIdenticalWithPresolveOnAndOff) {
  // The acceptance bar for default-on presolve: the TE pipeline's sweep
  // output must be byte-identical either way — not merely close — so the
  // reductions can never move a published curve.
  const topo::Network net = topo::build_testbed();
  util::Rng rng(11);
  traffic::TrafficParams tp;
  tp.num_matrices = 2;
  tp.min_share = 0.0;
  const auto matrices = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);

  sim::SweepParams params;
  params.scales = {1.0, 2.0, 3.0};
  params.run_ffc1 = false;
  params.run_ffc2 = false;
  params.run_teavar = false;
  params.tunnels.tunnels_per_flow = 3;
  params.arrow.tickets.num_tickets = 3;

  // A 1-thread pool executes inline on the caller, so the thread-local
  // ScopedSimplexOverride below reaches every solve in the sweep. (The sweep
  // itself is bit-identical at any thread count; 1 thread loses nothing.)
  util::ThreadPool pool(1);
  auto run = [&](bool presolve) {
    SimplexOptions opt;
    opt.presolve = presolve;
    ScopedSimplexOverride guard(opt);
    util::Rng sweep_rng(123);  // same seed both runs
    return sim::run_sweep(net, matrices, scenarios, params, sweep_rng, pool);
  };
  const sim::SweepResult on = run(true);
  const sim::SweepResult off = run(false);

  // Guard against a vacuous pass: the sweep must have actually run schemes
  // over the scale grid.
  ASSERT_FALSE(on.schemes.empty());
  ASSERT_FALSE(on.availability.empty());
  EXPECT_EQ(on.scales.size(), params.scales.size());

  EXPECT_EQ(on.total_solve_failures(), 0);
  EXPECT_EQ(off.total_solve_failures(), 0);
  EXPECT_EQ(on.schemes, off.schemes);
  EXPECT_EQ(on.availability, off.availability);  // exact FP equality
  EXPECT_EQ(on.throughput, off.throughput);
  EXPECT_EQ(on.solve_failures, off.solve_failures);
}

}  // namespace
}  // namespace arrow::solver
