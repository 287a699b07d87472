// Direct tests of the LU basis engine against dense linear algebra and,
// bit for bit, against the pre-rewrite elimination kept in lu_oracle.h;
// plus LinExpr/model-building edge cases.
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "lu_oracle.h"
#include "solver/basis.h"
#include "solver/linexpr.h"
#include "solver/lp.h"
#include "solver/model.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace arrow::solver {
namespace {

// Dense solve of A x = b via Gaussian elimination (reference).
std::vector<double> dense_solve(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const int n = static_cast<int>(b.size());
  for (int c = 0; c < n; ++c) {
    int piv = c;
    for (int r = c + 1; r < n; ++r) {
      if (std::abs(a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) >
          std::abs(a[static_cast<std::size_t>(piv)][static_cast<std::size_t>(c)])) {
        piv = r;
      }
    }
    std::swap(a[static_cast<std::size_t>(c)], a[static_cast<std::size_t>(piv)]);
    std::swap(b[static_cast<std::size_t>(c)], b[static_cast<std::size_t>(piv)]);
    for (int r = 0; r < n; ++r) {
      if (r == c) continue;
      const double f = a[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] /
                       a[static_cast<std::size_t>(c)][static_cast<std::size_t>(c)];
      for (int k = c; k < n; ++k) {
        a[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)] -=
            f * a[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
      }
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(c)];
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        b[static_cast<std::size_t>(i)] /
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
  }
  return x;
}

using testing::LuOracle;
using Column = LuOracle::Column;

// The nonzeros of a dense vector as an IndexedVector (ascending index), the
// form LuBasis::update takes.
IndexedVector indexed(const std::vector<double>& dense) {
  IndexedVector v;
  v.values = dense;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) v.index.push_back(static_cast<int>(i));
  }
  return v;
}

// CSC matrix whose column j is cols[j].
SparseMatrix from_columns(int rows, const std::vector<Column>& cols) {
  SparseMatrix a;
  a.rows = rows;
  a.cols = static_cast<int>(cols.size());
  a.col_start.push_back(0);
  for (const Column& col : cols) {
    for (const auto& [r, v] : col) {
      a.row_index.push_back(r);
      a.value.push_back(v);
    }
    a.col_start.push_back(a.nnz());
  }
  return a;
}

std::vector<int> identity_positions(int n) {
  std::vector<int> cols(static_cast<std::size_t>(n));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

SparseMatrix to_matrix(const std::vector<std::vector<double>>& dense) {
  const int n = static_cast<int>(dense.size());
  std::vector<Column> cols(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      if (dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] !=
          0.0) {
        cols[static_cast<std::size_t>(j)].emplace_back(
            i, dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    }
  }
  return from_columns(n, cols);
}

TEST(LuBasis, IdentityFactorization) {
  LuBasis basis;
  const SparseMatrix a = from_columns(3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  ASSERT_TRUE(basis.factorize(a, identity_positions(3), 1e-10));
  std::vector<double> x = {3.0, -1.0, 2.0};
  basis.ftran(x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
  std::vector<double> y = {1.0, 2.0, 3.0};
  basis.btran(y);
  EXPECT_NEAR(y[1], 2.0, 1e-12);
}

TEST(LuBasis, DetectsSingularMatrix) {
  LuBasis basis;
  // Two identical columns.
  const SparseMatrix a =
      from_columns(2, {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}});
  EXPECT_FALSE(basis.factorize(a, identity_positions(2), 1e-10));
}

class LuBasisRandom : public ::testing::TestWithParam<int> {};

TEST_P(LuBasisRandom, FtranBtranMatchDenseSolves) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 3);
  const int n = rng.uniform_int(3, 25);
  std::vector<std::vector<double>> dense(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  // Random sparse nonsingular-ish matrix: diagonal + random off-diagonals.
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1 : -1);
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.2)) {
        dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rng.uniform(-2.0, 2.0);
      }
    }
  }
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(to_matrix(dense), identity_positions(n), 1e-10));

  // FTRAN: solve B x = b.
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = b;
  basis.ftran(x);
  const auto x_ref = dense_solve(dense, b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_ref[static_cast<std::size_t>(i)],
                1e-8 * (1.0 + std::abs(x_ref[static_cast<std::size_t>(i)])));
  }

  // BTRAN: solve B' y = c  <=>  y = dense_solve(transpose, c).
  std::vector<double> c(static_cast<std::size_t>(n));
  for (auto& v : c) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y = c;
  basis.btran(y);
  std::vector<std::vector<double>> transposed(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      transposed[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    }
  }
  const auto y_ref = dense_solve(transposed, c);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref[static_cast<std::size_t>(i)],
                1e-8 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(i)])));
  }
}

TEST_P(LuBasisRandom, UpdateMatchesRefactorization) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  const int n = rng.uniform_int(4, 15);
  std::vector<std::vector<double>> dense(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        rng.uniform(1.0, 3.0);
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.25)) {
        dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rng.uniform(-1.5, 1.5);
      }
    }
  }
  LuBasis basis;
  ASSERT_TRUE(basis.factorize(to_matrix(dense), identity_positions(n), 1e-10));

  // Replace a column via update(); verify B_new^{-1} b against a fresh
  // factorization of the modified matrix.
  const int pos = rng.uniform_int(0, n - 1);
  std::vector<double> newcol(static_cast<std::size_t>(n));
  for (auto& v : newcol) v = rng.bernoulli(0.4) ? rng.uniform(-2.0, 2.0) : 0.0;
  newcol[static_cast<std::size_t>(pos)] += 2.5;  // keep it nonsingular-ish

  std::vector<double> w = newcol;
  basis.ftran(w);
  if (!basis.update(pos, indexed(w), 1e-8)) GTEST_SKIP() << "tiny pivot";

  auto modified = dense;
  for (int i = 0; i < n; ++i) {
    modified[static_cast<std::size_t>(i)][static_cast<std::size_t>(pos)] =
        newcol[static_cast<std::size_t>(i)];
  }
  LuBasis fresh;
  ASSERT_TRUE(
      fresh.factorize(to_matrix(modified), identity_positions(n), 1e-10));

  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  std::vector<double> x_updated = b;
  basis.ftran(x_updated);
  std::vector<double> x_fresh = b;
  fresh.ftran(x_fresh);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x_updated[static_cast<std::size_t>(i)],
                x_fresh[static_cast<std::size_t>(i)],
                1e-7 * (1.0 + std::abs(x_fresh[static_cast<std::size_t>(i)])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuBasisRandom, ::testing::Range(0, 10));

// --- bit-identity against the pre-rewrite elimination ----------------------

constexpr double kPivotTol = 1e-8;  // SimplexOptions::pivot_tol's default

std::vector<Column> oracle_columns(const SparseMatrix& a,
                                   const std::vector<int>& positions) {
  std::vector<Column> cols;
  for (int j : positions) {
    Column& col = cols.emplace_back();
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      col.emplace_back(a.row_index[static_cast<std::size_t>(k)],
                       a.value[static_cast<std::size_t>(k)]);
    }
  }
  return cols;
}

// Counts entries whose bit patterns differ (so -0.0 vs 0.0 counts too).
int bit_mismatches(const std::vector<double>& got,
                   const std::vector<double>& want) {
  int n = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    n += std::bit_cast<std::uint64_t>(got[i]) !=
                 std::bit_cast<std::uint64_t>(want[i])
             ? 1
             : 0;
  }
  return n;
}

// FTRAN and BTRAN of unit vectors and of sparse random vectors through both
// factorizations must agree bit for bit.
void expect_same_solves(LuBasis& lu, LuOracle& oracle, int m, util::Rng& rng) {
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> v(static_cast<std::size_t>(m), 0.0);
    if (trial < 2) {
      v[static_cast<std::size_t>(rng.uniform_int(0, m - 1))] = 1.0;
    } else {
      for (double& x : v) x = rng.bernoulli(0.3) ? rng.uniform(-4.0, 4.0) : 0.0;
    }
    std::vector<double> x = v, x_ref = v;
    lu.ftran(x);
    oracle.ftran(x_ref);
    ASSERT_EQ(x.size(), x_ref.size());
    EXPECT_EQ(bit_mismatches(x, x_ref), 0) << "ftran, trial " << trial;
    std::vector<double> y = v, y_ref = v;
    lu.btran(y);
    oracle.btran(y_ref);
    ASSERT_EQ(y.size(), y_ref.size());
    EXPECT_EQ(bit_mismatches(y, y_ref), 0) << "btran, trial " << trial;
  }
}

// Hypersparse result against the oracle's dense one: every entry compares
// equal (a zero may differ in sign), every nonzero is bit-identical, and the
// index is strictly ascending and lists every nonzero.
void expect_matches_dense(const IndexedVector& got,
                          const std::vector<double>& want, const char* what,
                          int trial) {
  ASSERT_EQ(got.values.size(), want.size()) << what << ", trial " << trial;
  int unequal = 0;
  int bit_diffs = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    unequal += got.values[i] == want[i] ? 0 : 1;
    if (want[i] != 0.0) {
      bit_diffs += std::bit_cast<std::uint64_t>(got.values[i]) !=
                           std::bit_cast<std::uint64_t>(want[i])
                       ? 1
                       : 0;
    }
  }
  EXPECT_EQ(unequal, 0) << what << ", trial " << trial;
  EXPECT_EQ(bit_diffs, 0) << what << ", trial " << trial;
  std::vector<char> listed(want.size(), 0);
  for (std::size_t k = 0; k < got.index.size(); ++k) {
    const int i = got.index[k];
    ASSERT_TRUE(i >= 0 && i < static_cast<int>(want.size()))
        << what << ", trial " << trial;
    if (k > 0) {
      EXPECT_LT(got.index[k - 1], i) << what << ": index not ascending";
    }
    listed[static_cast<std::size_t>(i)] = 1;
  }
  int unlisted = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    unlisted += got.values[i] != 0.0 && !listed[i] ? 1 : 0;
  }
  EXPECT_EQ(unlisted, 0) << what << ", trial " << trial;
}

// Hypersparse FTRAN of columns of `a` (the entering-column shape) and of
// sparse random vectors, and hypersparse BTRAN of unit vectors (the pivot-
// row shape) and sparse random vectors, through LuBasis and through the
// dense oracle. One IndexedVector is reused across all calls, as the simplex
// does, so a leftover nonzero in a swapped buffer would show.
void expect_same_sparse_solves(LuBasis& lu, const LuOracle& oracle,
                               const SparseMatrix& a, util::Rng& rng) {
  const int m = a.rows;
  IndexedVector v;
  v.reset(m);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> dense(static_cast<std::size_t>(m), 0.0);
    v.clear();
    if (trial < 4) {
      const int j = rng.uniform_int(0, a.cols - 1);
      for (int k = a.col_start[static_cast<std::size_t>(j)];
           k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
        const int r = a.row_index[static_cast<std::size_t>(k)];
        dense[static_cast<std::size_t>(r)] = a.value[static_cast<std::size_t>(k)];
      }
    } else {
      for (double& x : dense) {
        x = rng.bernoulli(0.1) ? rng.uniform(-4.0, 4.0) : 0.0;
      }
    }
    for (int i = 0; i < m; ++i) {
      if (dense[static_cast<std::size_t>(i)] != 0.0) {
        v.values[static_cast<std::size_t>(i)] = dense[static_cast<std::size_t>(i)];
        v.index.push_back(i);
      }
    }
    oracle.ftran(dense);
    lu.ftran(v);
    expect_matches_dense(v, dense, "sparse ftran", trial);

    std::fill(dense.begin(), dense.end(), 0.0);
    v.clear();
    if (trial < 4) {
      const int p = rng.uniform_int(0, m - 1);
      dense[static_cast<std::size_t>(p)] = 1.0;
      v.values[static_cast<std::size_t>(p)] = 1.0;
      v.index.push_back(p);
    } else {
      for (int i = 0; i < m; ++i) {
        if (rng.bernoulli(0.1)) {
          const double x = rng.uniform(-4.0, 4.0);
          dense[static_cast<std::size_t>(i)] = x;
          v.values[static_cast<std::size_t>(i)] = x;
          v.index.push_back(i);
        }
      }
    }
    oracle.btran(dense);
    lu.btran(v);
    expect_matches_dense(v, dense, "sparse btran", trial);
  }
}

// Factorizes the basis (position p = column positions[p] of a) with LuBasis
// and with the oracle and requires the same outcome: success flag, factor
// and work nnz, bit-identical solves — straight after the factorization and
// after each of `updates` eta updates with columns drawn from `a`.
void expect_same_as_oracle(const SparseMatrix& a,
                           const std::vector<int>& positions,
                           std::uint64_t seed, int updates) {
  const int m = static_cast<int>(positions.size());
  LuBasis lu;
  LuOracle oracle;
  const bool ok = lu.factorize(a, positions, kPivotTol);
  ASSERT_EQ(ok, oracle.factorize(m, oracle_columns(a, positions), kPivotTol));
  EXPECT_EQ(lu.factor_nnz(), oracle.factor_nnz());
  EXPECT_EQ(lu.work_nnz(), oracle.work_nnz());
  if (!ok) return;
  util::Rng rng(seed);
  expect_same_solves(lu, oracle, m, rng);
  util::Rng sparse_rng(seed ^ 0x5eed);
  expect_same_sparse_solves(lu, oracle, a, sparse_rng);
  for (int u = 0; u < updates; ++u) {
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    const int j = rng.uniform_int(0, a.cols - 1);
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      w[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])] =
          a.value[static_cast<std::size_t>(k)];
    }
    std::vector<double> w_ref = w;
    lu.ftran(w);
    oracle.ftran(w_ref);
    ASSERT_EQ(bit_mismatches(w, w_ref), 0) << "entering column, update " << u;
    int pos = 0;
    for (int p = 1; p < m; ++p) {
      if (std::abs(w[static_cast<std::size_t>(p)]) >
          std::abs(w[static_cast<std::size_t>(pos)])) {
        pos = p;
      }
    }
    // The simplex's path: hypersparse FTRAN of the entering column, then an
    // eta from its index. It must build the same eta as the dense one.
    IndexedVector ws;
    ws.reset(m);
    for (int k = a.col_start[static_cast<std::size_t>(j)];
         k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      const int r = a.row_index[static_cast<std::size_t>(k)];
      ws.values[static_cast<std::size_t>(r)] = a.value[static_cast<std::size_t>(k)];
      ws.index.push_back(r);
    }
    LuBasis lu_sparse = lu;
    lu_sparse.ftran(ws);
    expect_matches_dense(ws, w_ref, "entering column", u);
    const bool up = lu.update(pos, indexed(w), kPivotTol);
    ASSERT_EQ(up, oracle.update(pos, w_ref, kPivotTol));
    ASSERT_EQ(up, lu_sparse.update(pos, ws, kPivotTol));
    if (!up) return;
    EXPECT_EQ(lu.updates_since_factorize(), oracle.updates_since_factorize());
    EXPECT_EQ(lu.work_nnz(), oracle.work_nnz());
    EXPECT_EQ(lu_sparse.work_nnz(), oracle.work_nnz());
    expect_same_solves(lu, oracle, m, rng);
    util::Rng copy_rng(seed + static_cast<std::uint64_t>(u));
    expect_same_solves(lu_sparse, oracle, m, copy_rng);
    expect_same_sparse_solves(lu, oracle, a, sparse_rng);
  }
}

// A simplex-shaped problem: `m` identity slack columns plus `structurals`
// sparse columns, the basis a shuffled mix of both. Each row gets one basic
// column with a (usually dominant) entry in it, so most bases factorize.
// Integer-valued entries make exact cancellations (and so fill -> cancel
// -> refill) common.
struct RandomBasis {
  SparseMatrix a;
  std::vector<int> positions;
};

RandomBasis random_basis(util::Rng& rng, bool integer_values,
                         double tiny_frac) {
  const int m = rng.uniform_int(2, 60);
  const int structurals = rng.uniform_int(1, 2 * m);
  const double density = rng.uniform(0.02, 0.3);
  std::vector<Column> cols;
  auto value = [&] {
    if (rng.bernoulli(tiny_frac)) {
      const double tiny[] = {0.0, 1e-13, -1e-12, 1e-12, 5e-13};
      return tiny[rng.uniform_int(0, 4)];
    }
    if (integer_values) {
      const double v = static_cast<double>(rng.uniform_int(1, 3));
      return rng.bernoulli(0.5) ? v : -v;
    }
    return rng.uniform(-3.0, 3.0);
  };
  for (int j = 0; j < structurals; ++j) {
    Column& col = cols.emplace_back();
    const int diag = j % m;
    for (int i = 0; i < m; ++i) {
      if (i == diag) {
        col.emplace_back(i, value() + (rng.bernoulli(0.8) ? 4.0 : 0.0));
      } else if (rng.bernoulli(density)) {
        col.emplace_back(i, value());
      }
    }
  }
  for (int i = 0; i < m; ++i) cols.push_back({{i, 1.0}});
  RandomBasis b{from_columns(m, cols), {}};
  // Row i's basic column: its slack or one of the structurals j with
  // j % m == i. Positions are then shuffled.
  for (int i = 0; i < m; ++i) {
    const int choices = 1 + (structurals - i + m - 1) / m;
    const int pick = rng.uniform_int(0, choices - 1);
    b.positions.push_back(pick == 0 ? structurals + i : i + (pick - 1) * m);
  }
  for (std::size_t i = b.positions.size(); i > 1; --i) {
    std::swap(b.positions[i - 1],
              b.positions[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  return b;
}

class LuBasisOracle : public ::testing::TestWithParam<int> {};

TEST_P(LuBasisOracle, RandomSparseBasesMatchBitForBit) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  for (int round = 0; round < 8; ++round) {
    const RandomBasis b = random_basis(rng, round % 2 == 1, 0.0);
    expect_same_as_oracle(b.a, b.positions, rng.next_u64(), 4);
  }
}

TEST_P(LuBasisOracle, TinyInputEntriesMatchBitForBit) {
  // Entries of magnitude <= 1e-12 (and explicit zeros) count towards the
  // initial column/row counts but are dropped by the first elimination that
  // touches them — including singleton eliminations.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  for (int round = 0; round < 8; ++round) {
    const RandomBasis b = random_basis(rng, round % 2 == 0, 0.25);
    expect_same_as_oracle(b.a, b.positions, rng.next_u64(), 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuBasisOracle, ::testing::Range(0, 12));

TEST(LuBasisOracle, SingularBasesFailLikeTheOracle) {
  const std::vector<std::vector<Column>> cases = {
      // Duplicate columns.
      {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}, {{2, 1.0}}},
      // Empty column.
      {{{0, 1.0}}, {}, {{1, 1.0}, {2, 1.0}}},
      // Column of input entries below the drop tolerance.
      {{{0, 1.0}}, {{1, 1e-13}, {2, -1e-12}}, {{1, 1.0}, {2, 1.0}}},
      // Third column = first + second: singular only after elimination.
      {{{0, 1.0}, {1, 2.0}},
       {{1, 1.0}, {2, 3.0}},
       {{0, 1.0}, {1, 3.0}, {2, 3.0}}},
      // Structurally singular: two columns confined to one row.
      {{{0, 1.0}}, {{0, 2.0}}, {{1, 1.0}, {2, 1.0}}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    const SparseMatrix a = from_columns(3, cases[i]);
    LuBasis lu;
    EXPECT_FALSE(lu.factorize(a, identity_positions(3), kPivotTol));
    expect_same_as_oracle(a, identity_positions(3), i, 0);
  }
  // Random bases with rank-deficient structure: some must fail, and every
  // outcome must match the oracle's.
  util::Rng rng(2024);
  int failures = 0;
  for (int round = 0; round < 40; ++round) {
    RandomBasis b = random_basis(rng, true, 0.0);
    const int m = b.a.rows;
    if (m < 3) continue;
    // Repeat a basic column at another position.
    b.positions[static_cast<std::size_t>(rng.uniform_int(1, m - 1))] =
        b.positions[0];
    LuBasis lu;
    failures += lu.factorize(b.a, b.positions, kPivotTol) ? 0 : 1;
    expect_same_as_oracle(b.a, b.positions, rng.next_u64(), 2);
  }
  EXPECT_GT(failures, 0);
}

// Regression: rows_cols[3] lists column 4 twice. Step 0 (pivot col 0, row
// 0) fills column 4 at row 3; step 1 (col 1, row 1) cancels that entry
// exactly; step 2 (col 2, row 2) fills it again and pushes column 4 onto
// row 3's list a second time. Step 3 pivots row 3 and visits column 4 twice:
// the second visit must find nothing left to eliminate. With a tiny entry
// in column 3 the step-3 elimination is a singleton (no L multipliers) and
// runs in place; with a regular one it goes through the accumulator.
TEST(LuBasisOracle, FillCancelRefillVisitsColumnOnce) {
  for (const double col3_row4 : {1e-13, 1.0}) {
    SCOPED_TRACE(col3_row4);
    const std::vector<Column> cols = {
        {{0, 1.0}, {3, 1.0}},
        {{1, 1.0}, {3, 1.0}},
        {{2, 1.0}, {3, 1.0}},
        {{3, 1.0}, {4, col3_row4}},
        {{0, 1.0}, {1, -1.0}, {2, 1.0}, {4, 1.0}},
    };
    const SparseMatrix a = from_columns(5, cols);
    expect_same_as_oracle(a, identity_positions(5), 7, 3);

    // And the factors still solve the system.
    std::vector<std::vector<double>> dense(5, std::vector<double>(5, 0.0));
    for (int j = 0; j < 5; ++j) {
      for (const auto& [r, v] : cols[static_cast<std::size_t>(j)]) {
        dense[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] = v;
      }
    }
    LuBasis lu;
    ASSERT_TRUE(lu.factorize(a, identity_positions(5), kPivotTol));
    const std::vector<double> b = {1.0, -2.0, 0.5, 3.0, -1.0};
    std::vector<double> x = b;
    lu.ftran(x);
    const auto x_ref = dense_solve(dense, b);
    for (int i = 0; i < 5; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  x_ref[static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

// The lazy singleton elimination in LuBasis::factorize leaves a clean
// column's pivot-row entry in place as a zero tombstone and finds a row's
// entry through a position hint that a rewrite can make stale. Each matrix
// below drives one of those paths; the comments give the elimination order
// (column popped -> pivot row).
TEST(LuBasisOracle, LazyEliminationCasesMatchBitForBit) {
  struct Case {
    const char* name;
    int m;
    std::vector<Column> cols;
  };
  const std::vector<Case> cases = {
      // c0 -> r0 skips c3 (its row-0 entry is tiny, c3 stays dirty);
      // c1 -> r1 filters dirty c3 in full (drops the stale row-0 entry and
      // the tiny row-4 one); c2 -> r2 then tombstones the now clean c3, and
      // c3 -> r3 pivots past that tombstone and tombstones c4.
      {"dirty column touched by several singleton steps",
       5,
       {{{0, 1.0}},
        {{1, 1.0}},
        {{2, 1.0}},
        {{0, 1e-13}, {1, 2.0}, {2, 3.0}, {3, 4.0}, {4, 1e-13}},
        {{3, 1.0}, {4, 1.0}}}},
      // Steps 0-2 (c0 -> r0, c1 -> r1, c2 -> r2) fill c4 at row 3, cancel
      // it and refill it, so row 3's list names c4 twice. Step 3 (c3 -> r3;
      // its row-4 entry is tiny, so no multipliers) tombstones c4's clean
      // row-3 entry on the first visit; the second visit's hint, taken at
      // the refill, lands on that zero and must do nothing.
      {"duplicate visit after a tombstone",
       5,
       {{{0, 1.0}, {3, 1.0}},
        {{1, 1.0}, {3, 1.0}},
        {{2, 1.0}, {3, 1.0}},
        {{3, 1.0}, {4, 1e-13}},
        {{0, 1.0}, {1, -1.0}, {2, 1.0}, {4, 1.0}}}},
      // c0 -> r0 tombstones c2's row-0 entry; c1 -> r1 has a multiplier
      // (row 2), so c2 is rebuilt through the accumulator with the
      // tombstone still in it. The rebuild moves c2's row-2/3/4 entries
      // to slots 0-2, so row 2's hint (slot 2) now points at row 4's entry
      // and the next step must notice and scan.
      {"multiplier step on a tombstoned column, stale hint after it",
       5,
       {{{0, 1.0}},
        {{1, 2.0}, {2, 1.0}},
        {{0, 1.0}, {1, 1.0}, {2, 3.0}, {3, 1.0}, {4, 1.0}},
        {{2, 1.0}, {3, 2.0}},
        {{3, 1.0}, {4, 3.0}}}},
      // The same with the dirty filter as the rewrite: c0 -> r0 filters
      // dirty c2 (tiny row-4 entry), moving its rows 1-3 down one slot, so
      // row 1's hint (slot 1) points at row 2's entry when c1 -> r1.
      {"stale hint after a dirty filter",
       5,
       {{{0, 1.0}},
        {{1, 1.0}, {4, 2.0}},
        {{0, 2.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1e-13}},
        {{2, 1.0}, {3, 1.0}, {4, 1.0}},
        {{3, 1.0}, {4, 1.0}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SparseMatrix a = from_columns(c.m, c.cols);
    expect_same_as_oracle(a, identity_positions(c.m), 13, 3);
    std::vector<std::vector<double>> dense(
        static_cast<std::size_t>(c.m),
        std::vector<double>(static_cast<std::size_t>(c.m), 0.0));
    for (int j = 0; j < c.m; ++j) {
      for (const auto& [r, v] : c.cols[static_cast<std::size_t>(j)]) {
        dense[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] = v;
      }
    }
    LuBasis lu;
    ASSERT_TRUE(lu.factorize(a, identity_positions(c.m), kPivotTol));
    std::vector<double> b(static_cast<std::size_t>(c.m));
    for (int i = 0; i < c.m; ++i) b[static_cast<std::size_t>(i)] = 1.0 + i;
    std::vector<double> x = b;
    lu.ftran(x);
    const auto x_ref = dense_solve(dense, b);
    for (int i = 0; i < c.m; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  x_ref[static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

// Optimal bases of the LPs a B4 ARROW solve hands the simplex: hundreds of
// rows, a mix of structural and slack columns, the bases every warm re-solve
// starts from.
TEST(LuBasisOracle, CapturedArrowBasesMatchBitForBit) {
  const topo::Network net = topo::build_b4();
  util::Rng rng(404);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.002;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = 4;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.9);
  te::ArrowParams params;
  params.tickets.num_tickets = 3;
  const auto prepared = te::prepare_arrow(input, params, rng);

  std::vector<std::pair<SparseMatrix, std::vector<int>>> bases;
  {
    ScopedSolveObserver capture([&](const Lp& lp, LpSolution& sol) {
      if (bases.size() >= 6 || sol.basis.num_basic() != lp.a.rows) return;
      std::vector<int> positions;
      for (int j = 0; j < lp.a.cols; ++j) {
        if (sol.basis.status[static_cast<std::size_t>(j)] ==
            BasisStatus::kBasic) {
          positions.push_back(j);
        }
      }
      bases.emplace_back(lp.a, std::move(positions));
    });
    ASSERT_TRUE(te::solve_arrow(input, prepared, params).optimal);
  }
  ASSERT_FALSE(bases.empty());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [a, positions] = bases[i];
    const int first_slack = a.cols - a.rows;  // Model appends the slacks
    int structural = 0;
    for (int j : positions) structural += j < first_slack ? 1 : 0;
    EXPECT_GT(structural, 0) << "an all-slack basis tests nothing here";
    LuBasis lu;
    EXPECT_TRUE(lu.factorize(a, positions, kPivotTol));
    expect_same_as_oracle(a, positions, 31 + i, 6);
  }
}

TEST(LinExpr, OperatorAlgebra) {
  const VarId x{0}, y{1};
  LinExpr e = 2.0 * LinExpr(x) + LinExpr(y) * 3.0 - LinExpr(x) + 1.5;
  double cx = 0.0, cy = 0.0;
  for (const auto& [v, c] : e.terms()) {
    if (v == x) cx += c;
    if (v == y) cy += c;
  }
  EXPECT_DOUBLE_EQ(cx, 1.0);
  EXPECT_DOUBLE_EQ(cy, 3.0);
  EXPECT_DOUBLE_EQ(e.constant(), 1.5);
}

TEST(Model, DuplicateTermsAreMerged) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 10, 1);
  LinExpr e;
  e.add_term(x, 1.0);
  e.add_term(x, 1.0);  // 2x <= 10 total
  m.add_constr(e, Sense::kLe, 10);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 5.0, 1e-7);
}

TEST(Model, ConstantsFoldIntoRhs) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 100, 1);
  m.add_constr(LinExpr(x) + 3.0, Sense::kLe, 10);  // x <= 7
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 7.0, 1e-7);
}

TEST(Model, IterationLimitSurfaces) {
  Model m;
  m.set_maximize();
  m.simplex_options().max_iterations = 1;
  std::vector<VarId> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(m.add_var(0, 1, 1));
  LinExpr sum;
  for (const auto& v : xs) sum.add_term(v, 1.0);
  m.add_constr(sum, Sense::kLe, 5);
  EXPECT_EQ(m.solve().status, SolveStatus::kIterationLimit);
}

TEST(Model, SetBoundsTightensSolution) {
  Model m;
  m.set_maximize();
  const auto x = m.add_var(0, 10, 1);
  m.add_constr(LinExpr(x), Sense::kLe, 8);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 8.0, 1e-7);
  m.set_bounds(x, 0, 3);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.value(x), 3.0, 1e-7);
}

TEST(Model, MinimizeDualSign) {
  // min x st x >= 4: dual of the >= row is 1 (cost decreases as rhs drops).
  Model m;
  const auto x = m.add_var(0, kInf, 1);
  m.add_constr(LinExpr(x), Sense::kGe, 4);
  ASSERT_EQ(m.solve().status, SolveStatus::kOptimal);
  EXPECT_NEAR(m.dual(0), 1.0, 1e-7);
}

}  // namespace
}  // namespace arrow::solver
