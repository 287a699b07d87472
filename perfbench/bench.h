// Shared pieces of the benchmark binary: options, timing, sample
// statistics, benchmark-side trace spans, the read-only solver probe, and
// the result it prints.
//
// Everything here measures the library from outside: spans wrap calls into
// its public functions, and solver counters come from a
// solver::ScopedSolveObserver that only reads the returned LpSolution.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "solver/lp.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for scratch files (sockets, journals) and the Chrome trace.
  std::string work_dir = ".bench_build/perfbench-run";
  // Committed reference outputs (the binary runs from the repository root).
  std::string reference_dir = "perfbench/reference";
  // Writes the reference for the workload's whole input pool to stdout
  // instead of measuring.
  bool make_reference = false;
};

// Monotonic seconds.
double now_s();

// Peak resident set size of this process so far (getrusage ru_maxrss).
double peak_rss_mb();

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> v, double q);

// Shuffles 0..n-1 with a generator seeded from `seed`.
std::vector<int> permutation(int n, std::uint64_t seed);

// ---- benchmark-side trace spans -------------------------------------------

struct SpanRecord {
  std::string name;     // "<layer>.<call>", e.g. "te.phase1"
  double start_s = 0.0;
  double end_s = 0.0;
  int id = -1;
  int parent = -1;      // enclosing span, -1 for a root
  long long group = -1;  // plan / tick / chain id the span belongs to
  int tid = 0;
};

// Process-wide span recorder. Off unless enabled; a disabled Span costs one
// branch. Each thread keeps its own stack of open spans, so a span's parent
// is the innermost span open on the same thread unless one is given.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int open(const std::string& name, long long group, int parent);
  void close(int id);
  // Records an already-finished span (the solver probe's LP spans). Its
  // parent is the innermost span open on the calling thread or, when none
  // is, the span adopted below.
  void record(const std::string& name, double start_s, double end_s);
  // Parent for spans recorded on threads with no open span: a client
  // thread adopts its request span while the server thread does the work.
  void adopt_remote(int parent, long long group);

  // Innermost open span on the calling thread (-1 when none).
  static int current();
  // Group of the innermost open span on the calling thread (-1 when none).
  static long long current_group();

  std::vector<SpanRecord> spans() const;
  // Chrome trace_event JSON ("ph":"X" events, args carry id/parent/group).
  bool write_chrome(const std::string& path) const;
  // Self time per layer (the span name up to its first '.'), in seconds: a
  // span's duration minus the part of its interval its children cover.
  std::map<std::string, double> layer_self_s() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> remote_parent_{-1};
  std::atomic<long long> remote_group_{-1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  double epoch_s_ = now_s();
};

class Span {
 public:
  // group < 0 inherits the enclosing span's group; parent < 0 uses the
  // innermost span open on this thread.
  explicit Span(const char* name, long long group = -1, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  int id_ = -1;
};

// ---- solver probe -----------------------------------------------------------

// What the solver returned, summed over the LPs one probe saw.
struct SolverTally {
  long long lps = 0;
  long long pivots = 0;
  long long refactorizations = 0;
  long long warm = 0;
  long long presolve_rows_removed = 0;
  long long pricing_candidates = 0;
  double feasibility_s = 0.0;  // LpSolution::phase1_seconds
  double optimality_s = 0.0;   // LpSolution::phase2_seconds

  void add(const arrow::solver::LpSolution& sol);
  void merge(const SolverTally& other);
};

// Installs a solver::ScopedSolveObserver on the calling thread for its
// lifetime. The observer takes the solution by const reference, so it
// cannot change what the caller receives. With tracing on, each LP also
// becomes a "solver.lp" span ending when the solve returned and lasting its
// phase 1 + phase 2 time.
class SolverProbe {
 public:
  SolverProbe();
  ~SolverProbe();
  SolverProbe(const SolverProbe&) = delete;
  SolverProbe& operator=(const SolverProbe&) = delete;

  // Everything seen so far. Safe to call from another thread.
  SolverTally tally() const;
  // Tally since the last take() (or construction), then reset.
  SolverTally take();

 private:
  mutable std::mutex mu_;
  SolverTally tally_;
  SolverTally since_take_;
  arrow::solver::ScopedSolveObserver observer_;
};

// ---- result -------------------------------------------------------------------

class Result {
 public:
  // One operation attempted; `ok` false counts it failed and prints `why`
  // to stderr.
  void op(bool ok, const std::string& why = {});
  // A check that is not itself an operation: a failure marks the run
  // incorrect.
  void check(bool ok, const std::string& why);

  // Records a metric (the last value recorded under a name wins).
  void metric(const std::string& name, const std::string& unit, double value);
  const std::map<std::string, std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }
  // 1 - failed / attempted (1 before any operation).
  double ok_rate() const;

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
  std::map<std::string, std::pair<std::string, double>> metrics_;
};

// Per-operation solver metrics (solver.*) from the probe's total over `ops`
// operations.
void emit_solver_metrics(const SolverTally& total, long long ops,
                         Result* result);

// Layer self times (layer.<name>.self_ms, per operation) and the trace file.
void emit_trace(const Options& options, long long ops, Result* result);

// Relative closeness used by the reference checks.
bool matches(double a, double b, double rel = 1e-6);

// Reads and parses a JSON file; false (with a message on stderr) on error.
bool read_json(const std::string& path, arrow::obs::JsonValue* out);

// The workloads. Each fills `result` with its end-to-end metrics (and, with
// options.trace, its per-layer metrics) and its operation counts.
void run_plan_ibm(const Options& options, Result* result);
void run_serve_b4(const Options& options, Result* result);
void run_sweep_b4(const Options& options, Result* result);

}  // namespace perfbench
