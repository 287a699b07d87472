// LP presolve/postsolve for the computational-form LP (see lp.h).
//
// presolve_lp() applies a fixpoint of cheap reductions before the simplex
// ever sees the problem:
//   * fixed structural columns (lower == upper): substituted into the rhs;
//   * empty rows (no live structural entry): feasibility-checked and dropped
//     together with their slack;
//   * singleton rows (one live structural entry): turned into implied bounds
//     on that variable — the forcing/dominated-bound tightening — then
//     dropped with their slack; a variable forced to a point becomes a fixed
//     column on the next pass;
//   * structural columns with no live row: moved to their cost-preferred
//     bound and dropped.
//
// The reductions never touch the slack of a surviving row, so the reduced LP
// keeps the Model invariant the simplex relies on (its last m' columns are
// the identity slacks of the m' surviving rows).
//
// postsolve_solution() is exact: it reconstructs full-space x, duals, reduced
// costs and a structurally valid full-space Basis (removed rows re-enter the
// basis through their slack, or through their singleton variable when that
// variable ended at an implied bound strictly inside its original bounds).
// Warm-start chaining and the BasisStore therefore keep working unchanged on
// presolved solves.
#pragma once

#include <vector>

#include "solver/lp.h"

namespace arrow::solver {

struct Presolved {
  enum class Status {
    kReduced,     // `reduced` is ready to solve (possibly a no-op copy)
    kInfeasible,  // a reduction proved the LP infeasible; `reduced` is unset
  };

  Status status = Status::kReduced;
  Lp reduced;

  int rows_removed = 0;  // rows dropped
  int cols_removed = 0;  // structural columns + slacks of dropped rows

  // True when no reduction fired: callers should solve the original LP
  // directly and skip postsolve entirely (and, because the reduced problem
  // would be bit-identical to the original, doing so costs nothing).
  bool is_identity() const { return rows_removed == 0 && cols_removed == 0; }

  // Mapping: reduced column/row index -> original index. Reduced columns are
  // the surviving structural columns in original order followed by the
  // surviving rows' slacks in row order.
  std::vector<int> col_map;
  std::vector<int> row_map;

  // --- internal reduction log (exposed for postsolve + tests) --------------
  enum class Kind : char { kFixedCol, kEmptyRow, kSingletonRow };
  struct Reduction {
    Kind kind;
    int index = -1;     // column (kFixedCol) or row (the row kinds)
    int col = -1;       // kSingletonRow: the singleton structural column
    double coeff = 0.0; // kSingletonRow: its coefficient in the row
    double value = 0.0; // kFixedCol: the value the column was pinned to
  };
  std::vector<Reduction> log;
  std::vector<char> row_kept;  // size original rows
  std::vector<char> col_kept;  // size original structural columns
};

// Reduces `lp`. `lp` must be in Model computational form: the last `rows`
// columns are the per-row identity slacks. (If that invariant does not hold
// the function returns an identity Presolved and the caller solves the
// original.) Tolerances come from `opt` (feas_tol guards the feasibility
// checks). Runs presolve_is_noop first and returns an identity Presolved
// without building anything when it holds; otherwise presolve_fixpoint.
Presolved presolve_lp(const Lp& lp, const SimplexOptions& opt);

// Exact, O(n + nnz) no-op test: true when no structural column has
// lower >= upper or no entries and every row has at least two structural
// entries, read off lp.a_rows (an LP without a row view answers false).
// Then no reduction can fire on the fixpoint's first pass, so the fixpoint
// changes nothing. False does not imply a reduction: the fixpoint decides.
bool presolve_is_noop(const Lp& lp);

// The reduction fixpoint alone, without presolve_lp's no-op exit (exposed
// so tests can check that the exit never changes the answer).
Presolved presolve_fixpoint(const Lp& lp, const SimplexOptions& opt);

// Lifts the reduced-space solution back to the original space. Copies every
// scalar stat from `reduced_sol` and rebuilds x / dual / reduced_cost /
// basis in full space. When `reduced_sol` carries no duals (infeasible or
// numerical-error exits) the lifted solution carries none either, matching
// the un-presolved solver's contract.
LpSolution postsolve_solution(const Lp& original, const Presolved& pre,
                              const LpSolution& reduced_sol,
                              const SimplexOptions& opt);

}  // namespace arrow::solver
