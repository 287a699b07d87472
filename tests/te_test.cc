// Tests for the TE family: common input construction, ECMP, the
// max-throughput LP, FFC-k, TeaVaR, and ARROW's two-phase formulation
// (including the exact binary-ILP cross-check on small instances and the
// order-independent Phase I winner selection).
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "sim/availability.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "te/joint.h"
#include "te/teavar.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow::te {
namespace {

// Shared small-but-real setup: B4, one matrix, probabilistic scenarios.
class TeFixture : public ::testing::Test {
 protected:
  TeFixture() : net_(topo::build_b4()) {
    util::Rng rng(2021);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices_ = traffic::generate_traffic(net_, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.001;
    auto set = scenario::generate_scenarios(net_, sp, rng);
    scenarios_ = scenario::remove_disconnecting(net_, set.scenarios);
    TunnelParams tun;
    tun.tunnels_per_flow = 6;
    input_ = std::make_unique<TeInput>(net_, matrices_[0], scenarios_, tun);
    calibration_ = max_satisfiable_scale(*input_);
    input_->scale_demands(calibration_);
  }

  topo::Network net_;
  std::vector<traffic::TrafficMatrix> matrices_;
  std::vector<scenario::Scenario> scenarios_;
  std::unique_ptr<TeInput> input_;
  double calibration_ = 0.0;
};

TEST_F(TeFixture, InputCachesMatchDirectComputation) {
  const TeInput& in = *input_;
  ASSERT_GT(in.num_flows(), 50);
  ASSERT_GT(in.num_scenarios(), 10);
  for (int q = 0; q < in.num_scenarios(); ++q) {
    const auto failed = net_.failed_ip_links(in.scenarios()[static_cast<std::size_t>(q)].cuts);
    EXPECT_EQ(failed, in.failed_links(q));
    std::vector<char> down(net_.ip_links.size(), 0);
    for (auto e : failed) down[static_cast<std::size_t>(e)] = 1;
    for (int f = 0; f < std::min(10, in.num_flows()); ++f) {
      for (std::size_t ti = 0; ti < in.tunnels()[static_cast<std::size_t>(f)].size(); ++ti) {
        bool alive = true;
        for (int e : in.tunnels()[static_cast<std::size_t>(f)][ti].links) {
          if (down[static_cast<std::size_t>(e)]) alive = false;
        }
        EXPECT_EQ(alive, in.tunnel_alive(f, static_cast<int>(ti), q));
      }
    }
  }
}

TEST_F(TeFixture, EveryFlowKeepsAResidualTunnelPerScenario) {
  // The §6 tunnel-selection guarantee (after the top-up pass).
  const TeInput& in = *input_;
  for (int q = 0; q < in.num_scenarios(); ++q) {
    for (int f = 0; f < in.num_flows(); ++f) {
      bool any = false;
      for (std::size_t ti = 0; ti < in.tunnels()[static_cast<std::size_t>(f)].size(); ++ti) {
        any |= in.tunnel_alive(f, static_cast<int>(ti), q);
      }
      EXPECT_TRUE(any) << "flow " << f << " scenario " << q;
    }
  }
}

TEST_F(TeFixture, TunnelsAreLooplessPathsBetweenEndpoints) {
  const TeInput& in = *input_;
  for (int f = 0; f < in.num_flows(); ++f) {
    const auto& flow = in.flows()[static_cast<std::size_t>(f)];
    for (const auto& t : in.tunnels()[static_cast<std::size_t>(f)]) {
      int at = flow.src;
      std::set<int> visited{at};
      for (int e : t.links) {
        const auto& link = net_.ip_links[static_cast<std::size_t>(e)];
        ASSERT_TRUE(link.src == at || link.dst == at);
        at = link.src == at ? link.dst : link.src;
        EXPECT_TRUE(visited.insert(at).second) << "tunnel revisits a site";
      }
      EXPECT_EQ(at, flow.dst);
    }
  }
}

TEST_F(TeFixture, CalibrationMakesScaleOneExactlySatisfiable) {
  EXPECT_GT(calibration_, 0.0);
  const TeSolution sol = solve_max_throughput(*input_);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.total_admitted() / input_->total_demand(), 1.0, 1e-5);
  // At 1.5x it can no longer fully satisfy.
  TeInput stressed = *input_;
  stressed.scale_demands(1.5);
  const TeSolution s2 = solve_max_throughput(stressed);
  ASSERT_TRUE(s2.optimal);
  EXPECT_LT(s2.total_admitted() / stressed.total_demand(), 0.999);
}

TEST_F(TeFixture, EcmpSplitsEqually) {
  const TeSolution sol = solve_ecmp(*input_);
  ASSERT_TRUE(sol.optimal);
  for (int f = 0; f < input_->num_flows(); ++f) {
    const auto& alloc = sol.alloc[static_cast<std::size_t>(f)];
    const double d = input_->flows()[static_cast<std::size_t>(f)].demand_gbps;
    for (double a : alloc) {
      EXPECT_NEAR(a, d / static_cast<double>(alloc.size()), 1e-9);
    }
  }
  const auto ratios = sol.splitting_ratios();
  for (const auto& r : ratios) {
    double sum = 0.0;
    for (double x : r) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(TeFixture, LpSolutionsRespectLinkCapacities) {
  input_->scale_demands(0.8);
  for (const TeSolution& sol :
       {solve_max_throughput(*input_), solve_ffc(*input_, FfcParams{1, 0}),
        solve_teavar(*input_, TeaVarParams{})}) {
    ASSERT_TRUE(sol.optimal) << sol.scheme;
    std::vector<double> load(net_.ip_links.size(), 0.0);
    for (int f = 0; f < input_->num_flows(); ++f) {
      for (std::size_t ti = 0; ti < sol.alloc[static_cast<std::size_t>(f)].size(); ++ti) {
        for (int e : input_->tunnels()[static_cast<std::size_t>(f)][ti].links) {
          load[static_cast<std::size_t>(e)] +=
              sol.alloc[static_cast<std::size_t>(f)][ti];
        }
      }
    }
    for (std::size_t e = 0; e < load.size(); ++e) {
      EXPECT_LE(load[e], net_.ip_links[e].capacity_gbps() + 1e-5)
          << sol.scheme;
    }
  }
}

TEST_F(TeFixture, FfcOneGuaranteesZeroLossUnderSingleCuts) {
  input_->scale_demands(0.7);
  const TeSolution sol = solve_ffc(*input_, FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  // For every single-cut scenario, admitted traffic survives on residual
  // tunnels: satisfaction >= total_admitted / total_demand.
  const double admitted_fraction =
      sol.total_admitted() / input_->total_demand();
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    if (input_->scenarios()[static_cast<std::size_t>(q)].cuts.size() != 1) {
      continue;
    }
    const double sat = sim::scenario_satisfaction(*input_, sol, q);
    EXPECT_GE(sat, admitted_fraction - 1e-5) << "scenario " << q;
  }
}

TEST_F(TeFixture, FfcHierarchy) {
  input_->scale_demands(0.8);
  const double mt = solve_max_throughput(*input_).total_admitted();
  const double f1 = solve_ffc(*input_, FfcParams{1, 0}).total_admitted();
  const double f2 = solve_ffc(*input_, FfcParams{2, 0}).total_admitted();
  EXPECT_LE(f1, mt + 1e-5);
  EXPECT_LE(f2, f1 + 1e-5);  // protecting more scenarios costs throughput
}

TEST_F(TeFixture, TeaVarRespectsHeadroomCap) {
  TeaVarParams p;
  p.allocation_headroom = 1.6;
  const TeSolution sol = solve_teavar(*input_, p);
  ASSERT_TRUE(sol.optimal);
  for (int f = 0; f < input_->num_flows(); ++f) {
    double total = 0.0;
    for (double a : sol.alloc[static_cast<std::size_t>(f)]) total += a;
    EXPECT_LE(total,
              1.6 * input_->flows()[static_cast<std::size_t>(f)].demand_gbps +
                  1e-5);
  }
}

TEST_F(TeFixture, TeaVarServesDemandAtLowLoad) {
  input_->scale_demands(0.4);
  const TeSolution sol = solve_teavar(*input_, TeaVarParams{});
  ASSERT_TRUE(sol.optimal);
  EXPECT_GT(sol.total_admitted() / input_->total_demand(), 0.95);
}

class ArrowFixture : public TeFixture {
 protected:
  ArrowFixture() {
    params_.tickets.num_tickets = 8;
    util::Rng rng(99);
    prepared_ = prepare_arrow(*input_, params_, rng);
  }
  ArrowParams params_;
  ArrowPrepared prepared_;
};

TEST_F(ArrowFixture, PreparedCoversEveryScenario) {
  ASSERT_EQ(prepared_.rwa.size(),
            static_cast<std::size_t>(input_->num_scenarios()));
  ASSERT_EQ(prepared_.tickets.size(), prepared_.rwa.size());
  for (std::size_t q = 0; q < prepared_.tickets.size(); ++q) {
    // Ticket link lists match the scenario's failed links.
    EXPECT_EQ(prepared_.tickets[q].failed_links.size(),
              prepared_.rwa[q].links.size());
  }
}

TEST_F(ArrowFixture, SolutionSatisfiesPhase2Constraints) {
  input_->scale_demands(0.6);
  const TeSolution sol = solve_arrow(*input_, prepared_, params_);
  ASSERT_TRUE(sol.optimal);
  // (10)/(11): per scenario, admitted traffic is covered and restored links
  // are not over-filled.
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const auto& restored = sol.restored[static_cast<std::size_t>(q)];
    // (11): load of surviving-by-restoration tunnels fits r*.
    std::map<int, double> load;
    for (int f = 0; f < input_->num_flows(); ++f) {
      for (std::size_t ti = 0; ti < sol.alloc[static_cast<std::size_t>(f)].size(); ++ti) {
        if (input_->tunnel_alive(f, static_cast<int>(ti), q)) continue;
        // Dead tunnel: carries only if every failed link restored.
        bool carries = true;
        for (int e : input_->tunnels()[static_cast<std::size_t>(f)][ti].links) {
          const auto it = restored.find(e);
          if (it != restored.end() && it->second <= 1e-9) carries = false;
          bool failed = false;
          for (int fe : input_->failed_links(q)) failed |= fe == e;
          if (failed && it == restored.end()) carries = false;
        }
        if (!carries) continue;
        for (int e : input_->tunnels()[static_cast<std::size_t>(f)][ti].links) {
          if (restored.count(e)) {
            load[e] += sol.alloc[static_cast<std::size_t>(f)][ti];
          }
        }
      }
    }
    for (const auto& [e, l] : load) {
      const auto it = restored.find(e);
      ASSERT_NE(it, restored.end());
      EXPECT_LE(l, it->second + 1e-4) << "scenario " << q << " link " << e;
    }
  }
}

TEST_F(ArrowFixture, RestorationLiftsThroughputOverFfcStyleNoRestoration) {
  // ARROW with restoration vs the same scenario set with zero restoration
  // (an FFC over the probabilistic set): restoration can only help.
  input_->scale_demands(0.6);
  const TeSolution with = solve_arrow(*input_, prepared_, params_);
  // Zero-restoration prepared: empty RWA results.
  ArrowPrepared none;
  none.rwa.resize(prepared_.rwa.size());
  none.tickets.resize(prepared_.tickets.size());
  for (std::size_t q = 0; q < none.tickets.size(); ++q) {
    none.tickets[q].failed_links = prepared_.tickets[q].failed_links;
    ticket::LotteryTicket zero;
    zero.waves.assign(none.tickets[q].failed_links.size(), 0);
    zero.gbps.assign(none.tickets[q].failed_links.size(), 0.0);
    zero.path_waves.resize(none.tickets[q].failed_links.size());
    none.tickets[q].tickets.push_back(zero);
    // naive_ticket(empty rwa) would drop links; keep rwa aligned:
    none.rwa[q].links.resize(prepared_.rwa[q].links.size());
    for (std::size_t li = 0; li < none.rwa[q].links.size(); ++li) {
      none.rwa[q].links[li].link = prepared_.rwa[q].links[li].link;
      none.rwa[q].links[li].lost_waves = prepared_.rwa[q].links[li].lost_waves;
      none.rwa[q].links[li].original_gbps =
          prepared_.rwa[q].links[li].original_gbps;
    }
  }
  const TeSolution without = solve_arrow(*input_, none, params_);
  ASSERT_TRUE(with.optimal);
  ASSERT_TRUE(without.optimal);
  EXPECT_GE(with.total_admitted(), without.total_admitted() - 1e-4);
}

TEST_F(ArrowFixture, WinnersAreValidTicketIndices) {
  const TeSolution sol = solve_arrow(*input_, prepared_, params_);
  ASSERT_TRUE(sol.optimal);
  ASSERT_EQ(sol.winner.size(),
            static_cast<std::size_t>(input_->num_scenarios()));
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const int z = sol.winner[static_cast<std::size_t>(q)];
    EXPECT_GE(z, -1);
    EXPECT_LT(z, static_cast<int>(
                     prepared_.tickets[static_cast<std::size_t>(q)].tickets.size()));
  }
}

TEST(ArrowSmall, IlpMatchesOrBeatsTwoPhase) {
  // Tiny instance so the binary ILP (Table 9) finishes: testbed network.
  const topo::Network net = topo::build_testbed();
  util::Rng rng(4);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  tp.min_share = 0.0;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  // Single-cut scenarios 0,1,3 (fiber 2 disconnects the IP layer).
  std::vector<scenario::Scenario> scenarios{
      {{0}, 0.01}, {{1}, 0.01}, {{3}, 0.01}};
  TunnelParams tun;
  tun.tunnels_per_flow = 3;
  TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(max_satisfiable_scale(input));
  input.scale_demands(0.8);

  ArrowParams ap;
  ap.tickets.num_tickets = 4;
  const auto prepared = prepare_arrow(input, ap, rng);
  const TeSolution lp2 = solve_arrow(input, prepared, ap);
  const TeSolution ilp = solve_arrow_ilp(input, prepared, ap);
  ASSERT_TRUE(lp2.optimal);
  ASSERT_TRUE(ilp.optimal);
  // The ILP optimizes ticket choice jointly: it can only do better.
  EXPECT_GE(ilp.total_admitted(), lp2.total_admitted() - 1e-4);
}

TEST_F(TeFixture, JointFormulationSizeIsAstronomical) {
  const JointFormulationSize size = joint_formulation_size(*input_, 4);
  EXPECT_GT(size.binary_vars, 1000000);  // Table 8's "millions" scale
  EXPECT_GT(size.constraints, 1000000);
  EXPECT_GT(size.continuous_vars, 100);
  // More surrogate paths => strictly more variables.
  const JointFormulationSize bigger = joint_formulation_size(*input_, 8);
  EXPECT_GT(bigger.binary_vars, size.binary_vars);
}

TEST_F(TeFixture, SplittingRatiosAreADistribution) {
  const TeSolution sol = solve_ffc(*input_, FfcParams{1, 0});
  ASSERT_TRUE(sol.optimal);
  for (const auto& r : sol.splitting_ratios()) {
    double sum = 0.0;
    for (double x : r) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}


TEST_F(TeFixture, CoverDoubleCutsGuaranteesResidualTunnels) {
  TunnelParams tun;
  tun.tunnels_per_flow = 4;
  tun.cover_double_cuts = true;
  TeInput covered(net_, matrices_[0], scenarios_, tun);
  const auto nf = static_cast<int>(net_.optical.fibers.size());
  // For every double cut that keeps the IP layer connected, every flow must
  // retain at least one alive tunnel.
  util::Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int i = rng.uniform_int(0, nf - 1);
    const int j = rng.uniform_int(0, nf - 1);
    if (i == j) continue;
    std::vector<scenario::Scenario> probe{{{i, j}, 0.1}};
    if (scenario::remove_disconnecting(net_, std::move(probe)).empty()) {
      continue;  // partitions the IP layer: no tunnel set can help
    }
    const auto failed = net_.failed_ip_links({i, j});
    std::vector<char> down(net_.ip_links.size(), 0);
    for (auto e : failed) down[static_cast<std::size_t>(e)] = 1;
    for (int f = 0; f < covered.num_flows(); ++f) {
      bool any = false;
      for (const auto& t : covered.tunnels()[static_cast<std::size_t>(f)]) {
        bool alive = true;
        for (int e : t.links) {
          if (down[static_cast<std::size_t>(e)]) alive = false;
        }
        if (alive) {
          any = true;
          break;
        }
      }
      EXPECT_TRUE(any) << "flow " << f << " cut {" << i << "," << j << "}";
    }
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST_F(TeFixture, FfcDoubleScenarioCapLimitsRows) {
  input_->scale_demands(0.6);
  const TeSolution uncapped = solve_ffc(*input_, FfcParams{2, 0});
  const TeSolution capped = solve_ffc(*input_, FfcParams{2, 10});
  ASSERT_TRUE(uncapped.optimal);
  ASSERT_TRUE(capped.optimal);
  // Fewer protected combinations can only admit more traffic.
  EXPECT_GE(capped.total_admitted(), uncapped.total_admitted() - 1e-5);
}

TEST_F(TeFixture, TeaVarObjectiveIsTheCvarOfLosses) {
  input_->scale_demands(0.8);
  TeaVarParams p;
  p.allocation_penalty = 0.0;  // pure CVaR objective for this check
  const TeSolution sol = solve_teavar(*input_, p);
  ASSERT_TRUE(sol.optimal);
  // Reconstruct: per-scenario demand-weighted loss from the allocations.
  const double total_demand = input_->total_demand();
  std::vector<std::pair<double, double>> loss_prob;  // (loss, probability)
  double mass = 0.0;
  const auto loss_for = [&](int q) {
    double lost = 0.0;
    for (int f = 0; f < input_->num_flows(); ++f) {
      const double d = input_->flows()[static_cast<std::size_t>(f)].demand_gbps;
      double got = 0.0;
      for (std::size_t ti = 0;
           ti < sol.alloc[static_cast<std::size_t>(f)].size(); ++ti) {
        if (q < 0 || input_->tunnel_alive(f, static_cast<int>(ti), q)) {
          got += sol.alloc[static_cast<std::size_t>(f)][ti];
        }
      }
      lost += std::max(0.0, d - got);
    }
    return lost / total_demand;
  };
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const double pr =
        input_->scenarios()[static_cast<std::size_t>(q)].probability;
    loss_prob.push_back({loss_for(q), pr});
    mass += pr;
  }
  loss_prob.push_back({loss_for(-1), std::max(0.0, 1.0 - mass)});
  // CVaR_beta via the Rockafellar-Uryasev program evaluated at the optimum:
  // objective = min_alpha alpha + 1/(1-beta) sum p max(0, loss - alpha).
  // Evaluate the RHS on a fine alpha grid; the LP objective can never beat
  // the true minimum and should match it closely.
  double best = 1e18;
  for (int i = 0; i <= 1000; ++i) {
    const double alpha = static_cast<double>(i) / 1000.0;
    double v = alpha;
    for (const auto& [l, pr] : loss_prob) {
      v += pr * std::max(0.0, l - alpha) / (1.0 - p.beta);
    }
    best = std::min(best, v);
  }
  EXPECT_NEAR(sol.objective, best, 1e-3 + 0.01 * best);
}

TEST_F(ArrowFixture, RestoredMapMatchesWinnerTicket) {
  const TeSolution sol = solve_arrow(*input_, prepared_, params_);
  ASSERT_TRUE(sol.optimal);
  for (int q = 0; q < input_->num_scenarios(); ++q) {
    const auto& ts = prepared_.tickets[static_cast<std::size_t>(q)];
    const int w = sol.winner[static_cast<std::size_t>(q)];
    if (w < 0) continue;  // naive fallback checked elsewhere
    const auto& ticket = ts.tickets[static_cast<std::size_t>(w)];
    for (std::size_t li = 0; li < ts.failed_links.size(); ++li) {
      const auto it =
          sol.restored[static_cast<std::size_t>(q)].find(ts.failed_links[li]);
      ASSERT_NE(it, sol.restored[static_cast<std::size_t>(q)].end());
      EXPECT_NEAR(it->second, ticket.gbps[li], 1e-9);
    }
  }
}

TEST_F(ArrowFixture, TelemetryTotalsEqualTheSumOverEveryLpAttempt) {
  util::ThreadPool pool(1);  // inline: the observer sees every solve_lp
  const RestorabilityCache cache(*input_, prepared_, pool);

  long long iterations = 0, presolve_rows = 0, presolve_cols = 0, pricing = 0;
  int solves = 0;
  TeSolution sol;
  {
    solver::ScopedSolveObserver observer(
        [&](const solver::Lp&, solver::LpSolution& solution) {
          ++solves;
          iterations += solution.iterations;
          presolve_rows += solution.presolve_rows_removed;
          presolve_cols += solution.presolve_cols_removed;
          pricing += solution.pricing_candidates;
        });
    sol = solve_arrow(*input_, prepared_, params_, pool, &cache);
  }
  ASSERT_TRUE(sol.optimal);
  // Phase I + Phase II, and nothing else: the totals the solution reports
  // are the exact sum of what the solver returned per attempt — not
  // approximately, exactly.
  EXPECT_EQ(static_cast<long long>(sol.simplex_iterations), iterations);
  EXPECT_EQ(static_cast<long long>(sol.presolve_rows_removed), presolve_rows);
  EXPECT_EQ(static_cast<long long>(sol.presolve_cols_removed), presolve_cols);
  EXPECT_EQ(sol.pricing_candidates, pricing);
  EXPECT_EQ(solves, 2);
}

// ---- select_phase1_winner: the order-dependence regression ----------------

TEST(WinnerSelection, NonTransitiveSlackChainIsResolvedSetWise) {
  // The chain that broke the old incumbent scan: adjacent slacks are within
  // the 1e-9 tie tolerance but the endpoints are not. Scanning forward the
  // incumbent walked 0 -> 1 -> 2 and crowned candidate 2, whose slack is
  // OUTSIDE the true tie set around the minimum. The set-wise rule fixes the
  // tie set {0, 1} first and only then maximizes restored capacity.
  const std::vector<double> slack = {0.0, 0.9e-9, 1.8e-9};
  const std::vector<double> gbps = {1.0, 2.0, 3.0};
  const std::vector<double> budget = {100.0, 100.0, 100.0};
  EXPECT_EQ(te::select_phase1_winner(slack, gbps, budget), 1);

  // Reversed candidate order must pick the same candidate (now at index 1 by
  // symmetry: slack 0.9e-9, gbps 2).
  const std::vector<double> rslack = {1.8e-9, 0.9e-9, 0.0};
  const std::vector<double> rgbps = {3.0, 2.0, 1.0};
  const int rwin = te::select_phase1_winner(rslack, rgbps, budget);
  ASSERT_GE(rwin, 0);
  EXPECT_EQ(rslack[static_cast<std::size_t>(rwin)], 0.9e-9);
  EXPECT_EQ(rgbps[static_cast<std::size_t>(rwin)], 2.0);
}

TEST(WinnerSelection, BudgetRestrictsTheCandidateSetWhenAnyoneIsInside) {
  // Candidate 0 blows its budget; candidate 1 is inside. The in-budget set
  // wins even though 0 has strictly less slack.
  EXPECT_EQ(te::select_phase1_winner({1.0, 2.0}, {9.0, 1.0}, {0.5, 3.0}), 1);
  // Nobody in budget: fall back to the full set, minimum slack wins.
  EXPECT_EQ(te::select_phase1_winner({1.0, 2.0}, {9.0, 1.0}, {0.1, 0.1}), 0);
  EXPECT_EQ(te::select_phase1_winner({}, {}, {}), -1);
}

TEST(WinnerSelection, ExactDuplicateOfTheWinnerNeverStealsTheSlot) {
  const std::vector<double> slack = {3.0, 1.0, 2.0};
  const std::vector<double> gbps = {5.0, 7.0, 6.0};
  const std::vector<double> budget = {10.0, 10.0, 10.0};
  const int base = te::select_phase1_winner(slack, gbps, budget);
  ASSERT_EQ(base, 1);
  // Append a byte-for-byte copy of the winner: exact ties break toward the
  // lowest index, so the original keeps the slot at every thread count and
  // candidate order.
  std::vector<double> slack2 = slack, gbps2 = gbps, budget2 = budget;
  slack2.push_back(slack[1]);
  gbps2.push_back(gbps[1]);
  budget2.push_back(budget[1]);
  EXPECT_EQ(te::select_phase1_winner(slack2, gbps2, budget2), base);
}

TEST(WinnerSelection, RandomizedSetInvariantsHold) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_u64() % 8);
    std::vector<double> slack, gbps, budget;
    for (int i = 0; i < n; ++i) {
      // Mix exact ties and near-ties into the slack values.
      const double s = rng.bernoulli(0.3)
                           ? 0.5e-9 * static_cast<double>(rng.next_u64() % 4)
                           : rng.uniform(0.0, 2.0);
      slack.push_back(s);
      gbps.push_back(rng.uniform(0.0, 10.0));
      budget.push_back(rng.uniform(0.0, 2.0));
    }
    const int w = te::select_phase1_winner(slack, gbps, budget);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, n);
    // The candidate set the rule restricted itself to.
    bool any_in_budget = false;
    for (int i = 0; i < n; ++i) {
      any_in_budget = any_in_budget || slack[static_cast<std::size_t>(i)] <=
                                           budget[static_cast<std::size_t>(i)];
    }
    auto in_set = [&](int i) {
      return !any_in_budget || slack[static_cast<std::size_t>(i)] <=
                                   budget[static_cast<std::size_t>(i)];
    };
    ASSERT_TRUE(in_set(w)) << "trial " << trial;
    double min_slack = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      if (in_set(i)) {
        min_slack = std::min(min_slack, slack[static_cast<std::size_t>(i)]);
      }
    }
    // Winner sits inside the tie window of the set minimum...
    EXPECT_LE(slack[static_cast<std::size_t>(w)], min_slack + 1e-9)
        << "trial " << trial;
    // ...and no tie-set member strictly beats its restored capacity.
    for (int i = 0; i < n; ++i) {
      if (in_set(i) && slack[static_cast<std::size_t>(i)] <= min_slack + 1e-9) {
        EXPECT_LE(gbps[static_cast<std::size_t>(i)],
                  gbps[static_cast<std::size_t>(w)] + 1e-9)
            << "trial " << trial << " candidate " << i;
      }
    }
  }
}

}  // namespace
}  // namespace arrow::te
