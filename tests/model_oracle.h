// Test-only oracle: solver::Model's row store as it stood before the flat
// CSR rewrite of solver/model.cc — one RowData per constraint, terms merged
// through a std::map (sum per variable in insertion order, exact zeros
// dropped), the fingerprint folded over those rows, and the CSC assembled
// by a counting pass over them. The production Model must reproduce its
// rows, its fingerprint and its LP bit for bit; tests/model_assembly_test.cc
// checks that on seeded random rows. Do not "fix" or speed up this file:
// its value is that it is the old arithmetic, unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "solver/linexpr.h"
#include "solver/lp.h"
#include "util/check.h"
#include "util/hash.h"

namespace arrow::solver::testing {

class ModelOracle {
 public:
  struct RowData {
    std::vector<std::pair<int, double>> terms;  // (var index, coeff), merged
    Sense sense;
    double rhs;
  };

  VarId add_var(double lb, double ub, double obj_coeff) {
    ARROW_CHECK(lb <= ub, "variable bounds crossed");
    vars_.push_back(VarData{lb, ub, obj_coeff});
    return VarId{static_cast<std::int32_t>(vars_.size() - 1)};
  }

  void add_constr(const LinExpr& lhs, Sense sense, double rhs) {
    RowData row;
    row.sense = sense;
    row.rhs = rhs - lhs.constant();
    // Merge duplicate variables.
    std::map<int, double> merged;
    for (const auto& [v, c] : lhs.terms()) {
      ARROW_CHECK(v.valid() && v.index < static_cast<int>(vars_.size()),
                  "constraint references unknown variable");
      merged[v.index] += c;
    }
    row.terms.reserve(merged.size());
    for (const auto& [v, c] : merged) {
      if (c != 0.0) row.terms.emplace_back(v, c);
    }
    rows_.push_back(std::move(row));
  }

  void set_maximize() { maximize_ = true; }
  const std::vector<RowData>& rows() const { return rows_; }

  std::uint64_t fingerprint() const {
    util::Fnv1a h;
    h.u64(maximize_ ? 1 : 0);
    h.i64(static_cast<std::int64_t>(vars_.size()));
    for (const auto& v : vars_) {
      // The oracle only declares continuous variables (VarType 0).
      h.f64(v.lb).f64(v.ub).f64(v.obj).i32(0);
    }
    h.i64(static_cast<std::int64_t>(rows_.size()));
    for (const auto& r : rows_) {
      h.i64(static_cast<std::int64_t>(r.terms.size()));
      for (const auto& [vi, c] : r.terms) h.i32(vi).f64(c);
      h.i32(static_cast<std::int32_t>(r.sense)).f64(r.rhs);
    }
    return h.value();
  }

  // The CSC-only LP (no row view), at the declared bounds.
  Lp build_lp() const {
    const int nv = static_cast<int>(vars_.size());
    const int m = static_cast<int>(rows_.size());
    const int n = nv + m;  // structural + one slack per row
    Lp lp;
    lp.a.rows = m;
    lp.a.cols = n;
    lp.cost.assign(static_cast<std::size_t>(n), 0.0);
    lp.lower.assign(static_cast<std::size_t>(n), 0.0);
    lp.upper.assign(static_cast<std::size_t>(n), 0.0);
    lp.rhs.resize(static_cast<std::size_t>(m));

    const double sign = maximize_ ? -1.0 : 1.0;
    for (int j = 0; j < nv; ++j) {
      const VarData& v = vars_[static_cast<std::size_t>(j)];
      lp.cost[static_cast<std::size_t>(j)] = sign * v.obj;
      lp.lower[static_cast<std::size_t>(j)] = v.lb;
      lp.upper[static_cast<std::size_t>(j)] = v.ub;
    }
    for (int i = 0; i < m; ++i) {
      const RowData& row = rows_[static_cast<std::size_t>(i)];
      lp.rhs[static_cast<std::size_t>(i)] = row.rhs;
      const std::size_t slack = static_cast<std::size_t>(nv + i);
      switch (row.sense) {
        case Sense::kLe:
          lp.lower[slack] = 0.0;
          lp.upper[slack] = kInf;
          break;
        case Sense::kGe:
          lp.lower[slack] = -kInf;
          lp.upper[slack] = 0.0;
          break;
        case Sense::kEq:
          lp.lower[slack] = 0.0;
          lp.upper[slack] = 0.0;
          break;
      }
    }

    // CSC assembly: structural columns from the rows, then identity slacks.
    std::vector<int> col_count(static_cast<std::size_t>(n), 0);
    for (const RowData& row : rows_) {
      for (const auto& [v, c] : row.terms) {
        (void)c;
        ++col_count[static_cast<std::size_t>(v)];
      }
    }
    for (int i = 0; i < m; ++i) col_count[static_cast<std::size_t>(nv + i)] = 1;
    lp.a.col_start.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int j = 0; j < n; ++j) {
      lp.a.col_start[static_cast<std::size_t>(j) + 1] =
          lp.a.col_start[static_cast<std::size_t>(j)] +
          col_count[static_cast<std::size_t>(j)];
    }
    const int nnz = lp.a.col_start.back();
    lp.a.row_index.assign(static_cast<std::size_t>(nnz), 0);
    lp.a.value.assign(static_cast<std::size_t>(nnz), 0.0);
    std::vector<int> fill(lp.a.col_start.begin(), lp.a.col_start.end() - 1);
    for (int i = 0; i < m; ++i) {
      for (const auto& [v, c] : rows_[static_cast<std::size_t>(i)].terms) {
        const int k = fill[static_cast<std::size_t>(v)]++;
        lp.a.row_index[static_cast<std::size_t>(k)] = i;
        lp.a.value[static_cast<std::size_t>(k)] = c;
      }
      const int k = fill[static_cast<std::size_t>(nv + i)]++;
      lp.a.row_index[static_cast<std::size_t>(k)] = i;
      lp.a.value[static_cast<std::size_t>(k)] = 1.0;
    }
    return lp;
  }

 private:
  struct VarData {
    double lb, ub, obj;
  };

  std::vector<VarData> vars_;
  std::vector<RowData> rows_;
  bool maximize_ = false;
};

}  // namespace arrow::solver::testing
