// LP assembly against its oracles: Model's flat-CSR row store and sort-free
// merge against the std::map merge kept in model_oracle.h (rows,
// fingerprint and build_lp output, bit for bit), the row view Model::lp
// hands the solver against a transpose of its CSC, and presolve's no-op exit
// against the full reduction fixpoint.
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "model_oracle.h"
#include "solver/lp.h"
#include "solver/model.h"
#include "solver/presolve.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace arrow::solver {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(bits(a[k]), bits(b[k])) << what << "[" << k << "]";
  }
}

void expect_same_csc(const SparseMatrix& a, const SparseMatrix& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.col_start, b.col_start);
  EXPECT_EQ(a.row_index, b.row_index);
  expect_same_doubles(a.value, b.value, "csc value");
}

void expect_same_rows(const SparseRows& a, const SparseRows& b) {
  EXPECT_EQ(a.row_start, b.row_start);
  EXPECT_EQ(a.col_index, b.col_index);
  expect_same_doubles(a.value, b.value, "row value");
}

// Everything but the row view, bit for bit.
void expect_same_lp(const Lp& a, const Lp& b) {
  expect_same_csc(a.a, b.a);
  expect_same_doubles(a.cost, b.cost, "cost");
  expect_same_doubles(a.lower, b.lower, "lower");
  expect_same_doubles(a.upper, b.upper, "upper");
  expect_same_doubles(a.rhs, b.rhs, "rhs");
}

// One random row, drawn from the shapes the merge must get right.
LinExpr random_row(util::Rng& rng, const std::vector<VarId>& vars) {
  const int nv = static_cast<int>(vars.size());
  const auto var = [&](int j) { return vars[static_cast<std::size_t>(j)]; };
  const auto coeff = [&] {
    switch (rng.uniform_int(0, 5)) {
      case 0: return -0.0;
      case 1: return 0.0;
      case 2: return static_cast<double>(rng.uniform_int(-3, 3));
      default: return rng.uniform(-4.0, 4.0);
    }
  };
  LinExpr e;
  switch (rng.uniform_int(0, 7)) {
    case 0:  // empty
      break;
    case 1:  // one term
      e.add_term(var(rng.uniform_int(0, nv - 1)), coeff());
      break;
    case 2:  // strictly ascending
      for (int j = 0; j < nv; ++j) {
        if (rng.bernoulli(0.4)) e.add_term(var(j), coeff());
      }
      break;
    case 3:  // strictly descending
      for (int j = nv - 1; j >= 0; --j) {
        if (rng.bernoulli(0.4)) e.add_term(var(j), coeff());
      }
      break;
    case 4: {  // exact cancellation: c then -c on one variable, interleaved
      const int j = rng.uniform_int(0, nv - 1);
      const double c = rng.uniform(-4.0, 4.0);
      e.add_term(var(j), c);
      e.add_term(var(rng.uniform_int(0, nv - 1)), coeff());
      e.add_term(var(j), -c);
      break;
    }
    case 5: {  // order-sensitive sum: 0.1 + 0.2 - 0.3 != 0.3 - 0.1 - 0.2
      const int j = rng.uniform_int(0, nv - 1);
      const double parts[3] = {0.1, 0.2, -0.3};
      const int first = rng.uniform_int(0, 2);
      for (int k = 0; k < 3; ++k) e.add_term(var(j), parts[(first + k) % 3]);
      break;
    }
    default: {  // interleaved with duplicates
      const int terms = rng.uniform_int(1, 3 * nv);
      for (int k = 0; k < terms; ++k) {
        e.add_term(var(rng.uniform_int(0, nv - 1)), coeff());
      }
      break;
    }
  }
  if (rng.bernoulli(0.2)) e += rng.uniform(-2.0, 2.0);  // constant to fold
  return e;
}

TEST(ModelAssembly, MergeMatchesMapOracleBitForBit) {
  int rows_seen = 0, tail_rows = 0;
  for (int seed = 0; seed < 40; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
    Model model;
    testing::ModelOracle oracle;
    if (rng.bernoulli(0.5)) {
      model.set_maximize();
      oracle.set_maximize();
    }
    const int nv = rng.uniform_int(1, 14);
    std::vector<VarId> vars;
    for (int j = 0; j < nv; ++j) {
      const double lo = rng.bernoulli(0.2) ? -kInf : rng.uniform(-3.0, 0.0);
      const double hi = rng.bernoulli(0.2) ? kInf : rng.uniform(0.0, 5.0);
      const double obj = rng.uniform(-2.0, 2.0);
      vars.push_back(model.add_var(lo, hi, obj));
      ASSERT_EQ(oracle.add_var(lo, hi, obj).index, vars.back().index);
    }
    const int m = rng.uniform_int(0, 25);
    for (int i = 0; i < m; ++i) {
      const LinExpr lhs = random_row(rng, vars);
      const Sense sense = static_cast<Sense>(rng.uniform_int(0, 2));
      const double rhs = rng.uniform(-5.0, 5.0);
      if (rng.bernoulli(0.25)) {
        // Head plus a two-term tail, against the oracle's concatenation.
        const VarId t0 = vars[static_cast<std::size_t>(rng.uniform_int(0, nv - 1))];
        const VarId t1 = vars[static_cast<std::size_t>(rng.uniform_int(0, nv - 1))];
        const double c0 = rng.uniform(-1.0, 1.0), c1 = -0.0;
        model.add_constr(lhs, {{t0, c0}, {t1, c1}}, sense, rhs);
        LinExpr joined = lhs;
        joined.add_term(t0, c0);
        joined.add_term(t1, c1);
        oracle.add_constr(joined, sense, rhs);
        ++tail_rows;
      } else {
        model.add_constr(lhs, sense, rhs);
        oracle.add_constr(lhs, sense, rhs);
      }
      ++rows_seen;
    }
    ASSERT_EQ(model.num_constrs(), m);
    EXPECT_EQ(model.fingerprint(), oracle.fingerprint()) << "seed " << seed;

    const Lp lp = model.lp();
    const Lp want = oracle.build_lp();
    expect_same_lp(lp, want);
    // The row view is the transpose of the oracle's CSC, and its structural
    // part of row i is the oracle's merged row i.
    expect_same_rows(lp.a_rows, transpose_to_rows(want.a));
    for (int i = 0; i < m; ++i) {
      const auto& terms = oracle.rows()[static_cast<std::size_t>(i)].terms;
      const int begin = lp.a_rows.row_start[static_cast<std::size_t>(i)];
      ASSERT_EQ(lp.a_rows.row_start[static_cast<std::size_t>(i) + 1] - begin,
                static_cast<int>(terms.size()) + 1);
      for (std::size_t k = 0; k < terms.size(); ++k) {
        EXPECT_EQ(lp.a_rows.col_index[begin + k], terms[k].first);
        EXPECT_EQ(bits(lp.a_rows.value[begin + k]), bits(terms[k].second));
      }
    }
  }
  EXPECT_GT(rows_seen, 300);
  EXPECT_GT(tail_rows, 50);
}

TEST(ModelAssembly, UnknownVariableIsRejected) {
  Model model;
  const VarId x = model.add_var(0.0, 1.0, 1.0);
  EXPECT_THROW(model.add_constr(LinExpr(VarId{3}), Sense::kLe, 1.0),
               std::logic_error);
  EXPECT_THROW(model.add_constr(LinExpr(x), {{VarId{}, 1.0}}, Sense::kLe, 1.0),
               std::logic_error);
  EXPECT_EQ(model.num_constrs(), 0);
}

// --- presolve no-op exit ---------------------------------------------------

void expect_same_presolved(const Presolved& a, const Presolved& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.is_identity(), b.is_identity());
  EXPECT_EQ(a.rows_removed, b.rows_removed);
  EXPECT_EQ(a.cols_removed, b.cols_removed);
  EXPECT_EQ(a.col_map, b.col_map);
  EXPECT_EQ(a.row_map, b.row_map);
  EXPECT_EQ(a.row_kept, b.row_kept);
  EXPECT_EQ(a.col_kept, b.col_kept);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t k = 0; k < a.log.size(); ++k) {
    EXPECT_EQ(a.log[k].kind, b.log[k].kind);
    EXPECT_EQ(a.log[k].index, b.log[k].index);
    EXPECT_EQ(a.log[k].col, b.log[k].col);
    EXPECT_EQ(bits(a.log[k].coeff), bits(b.log[k].coeff));
    EXPECT_EQ(bits(a.log[k].value), bits(b.log[k].value));
  }
  expect_same_lp(a.reduced, b.reduced);
}

// presolve_lp (exit first) and the bare fixpoint agree, with the LP's row
// view and with none (presolve then transposes the CSC itself); a true
// no-op test means an identity fixpoint. Returns whether the exit fired.
bool check_presolve(const Lp& lp) {
  const SimplexOptions opt;
  const Presolved full = presolve_fixpoint(lp, opt);
  const bool noop = presolve_is_noop(lp);
  if (noop) {
    EXPECT_TRUE(full.is_identity());
  }
  expect_same_presolved(presolve_lp(lp, opt), full);
  Lp bare = lp;
  bare.a_rows = SparseRows{};
  expect_same_presolved(presolve_fixpoint(bare, opt), full);
  expect_same_presolved(presolve_lp(bare, opt), full);
  return noop;
}

TEST(PresolveNoop, ExitAgreesWithFixpointOnRandomLps) {
  int exits = 0, reduced = 0, infeasible = 0;
  for (int seed = 0; seed < 300; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    Model model;
    const int nv = rng.uniform_int(2, 10);
    std::vector<VarId> vars;
    for (int j = 0; j < nv; ++j) {
      double lo = rng.uniform(-3.0, 0.0);
      double hi = lo + rng.uniform(0.5, 5.0);
      if (rng.bernoulli(0.03)) hi = lo;  // fixed column
      vars.push_back(model.add_var(lo, hi, rng.uniform(-2.0, 2.0)));
    }
    const int m = rng.uniform_int(1, 8);
    for (int i = 0; i < m; ++i) {
      LinExpr e;
      const bool sparse = rng.bernoulli(0.05);  // singleton or empty row
      for (int j = 0; j < nv; ++j) {
        if (sparse ? rng.bernoulli(0.1) : rng.bernoulli(0.7)) {
          e.add_term(vars[static_cast<std::size_t>(j)], rng.uniform(-3.0, 3.0));
        }
      }
      model.add_constr(e, static_cast<Sense>(rng.uniform_int(0, 2)),
                       rng.uniform(-4.0, 6.0));
    }
    const Lp lp = model.lp();
    const bool exit = check_presolve(lp);
    const Presolved pre = presolve_fixpoint(lp, SimplexOptions{});
    exits += exit ? 1 : 0;
    reduced += pre.status == Presolved::Status::kReduced && !pre.is_identity();
    infeasible += pre.status == Presolved::Status::kInfeasible;
  }
  // Every branch was exercised: the exit, a fixpoint that reduced and one
  // that proved infeasibility.
  EXPECT_GT(exits, 50);
  EXPECT_GT(reduced, 20);
  EXPECT_GT(infeasible, 0);
}

TEST(PresolveNoop, ExitFiresOnlyWhenTheFixpointIsIdentity) {
  // A hand-built LP with identity slacks: two structural columns, one row
  // with both. The exit fires; fixing a column or dropping an entry makes
  // it defer to the fixpoint, and so does a missing row view.
  Lp lp;
  lp.a.rows = 1;
  lp.a.cols = 3;
  lp.a.col_start = {0, 1, 2, 3};
  lp.a.row_index = {0, 0, 0};
  lp.a.value = {1.0, 2.0, 1.0};
  lp.cost = {-1.0, -1.0, 0.0};
  lp.lower = {0.0, 0.0, 0.0};
  lp.upper = {4.0, 4.0, kInf};
  lp.rhs = {6.0};
  EXPECT_FALSE(check_presolve(lp));
  lp.a_rows = transpose_to_rows(lp.a);
  EXPECT_TRUE(check_presolve(lp));
  Lp fixed = lp;
  fixed.upper[1] = 0.0;
  EXPECT_FALSE(check_presolve(fixed));
  Lp singleton = lp;
  singleton.a.col_start = {0, 1, 1, 2};
  singleton.a.row_index = {0, 0};
  singleton.a.value = {1.0, 1.0};
  singleton.a_rows = transpose_to_rows(singleton.a);
  EXPECT_FALSE(check_presolve(singleton));
}

// LPs solve_arrow hands the solver on a small B4 instance (Phase I and
// Phase II), as in pricing_test. With 4 tunnels per flow some links carry a
// single tunnel, so presolve drops singleton rows; with 6 it finds nothing.
std::vector<Lp> solve_arrow_corpus(int tunnels_per_flow) {
  std::vector<Lp> corpus;
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
  tun.tunnels_per_flow = tunnels_per_flow;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.9);
  te::ArrowParams params;
  params.tickets.num_tickets = 3;
  const auto prepared = te::prepare_arrow(input, params, rng);
  ScopedSolveObserver capture(
      [&](const Lp& lp, LpSolution&) { corpus.push_back(lp); });
  EXPECT_TRUE(te::solve_arrow(input, prepared, params).optimal);
  return corpus;
}

TEST(PresolveNoop, ExitAgreesWithFixpointOnSolveArrowCorpus) {
  for (const int tunnels : {4, 6}) {
    const std::vector<Lp> corpus = solve_arrow_corpus(tunnels);
    ASSERT_GE(corpus.size(), 2u);
    int exits = 0;
    for (const Lp& lp : corpus) {
      ASSERT_FALSE(lp.a_rows.empty());
      exits += check_presolve(lp) ? 1 : 0;
    }
    // Phase I and Phase II both take the exit at 6 tunnels, neither at 4.
    EXPECT_EQ(exits, tunnels == 6 ? static_cast<int>(corpus.size()) : 0)
        << tunnels << " tunnels per flow";
  }
}

TEST(RowView, ModelViewEqualsTransposeOfCsc) {
  for (const Lp& lp : solve_arrow_corpus(4)) {
    expect_same_rows(lp.a_rows, transpose_to_rows(lp.a));
  }
}

TEST(RowView, SolvesMatchWithAndWithoutTheView) {
  // The simplex reads the Model's view or transposes the CSC itself; both
  // must pivot identically.
  for (const Lp& lp : solve_arrow_corpus(4)) {
    Lp bare = lp;
    bare.a_rows = SparseRows{};
    const LpSolution a = solve_lp(lp);
    const LpSolution b = solve_lp(bare);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(bits(a.objective), bits(b.objective));
    expect_same_doubles(a.x, b.x, "x");
    expect_same_doubles(a.dual, b.dual, "dual");
  }
}

}  // namespace
}  // namespace arrow::solver
