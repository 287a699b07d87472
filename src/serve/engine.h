// The daemon's control loop: ctrl::PlanningCore (controller/core.h) driven
// by a socket instead of a simulated clock.
//
// run_controller gets every traffic matrix and failure up front and replays
// them against an event queue. A daemon gets them one socket message at a
// time, so TickEngine keeps the run's PlanningCore alive between messages:
// the core holds the offline stage, the degradation ladder with its
// last-good carry-forward state, the crash journal and the warm-start cache
// seeded from the BasisStore (tick N+1 starts from tick N's optimal vertex;
// drain merges it back with BasisStore::save_shared). The core is built at
// the first tick, which fixes the flow/tunnel shape, and drained when the
// daemon stops or the topology is replaced. What stays here is the socket
// clock: tick (set demands, solve), cut (immediate optical replay, or the
// localized-repair fast path for schemes that support it) and repair.
//
// Not thread-safe: the server calls it from its single poll loop.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/core.h"
#include "te/input.h"
#include "util/rng.h"

namespace arrow::serve {

struct EngineConfig {
  // Scheme, tunnel/ticket/scenario parameters, per-tick budget
  // (ctrl.te_budget_s — the daemon default is 50 ms, not the simulator's
  // 5 minutes), journal_dir, basis_dir/basis_store, retry_backoff,
  // demand_scale, latency model, cancel and obs all mean exactly what they
  // mean for run_controller (the same PlanningCore reads them).
  // horizon_s/te_interval_s are unused — the socket is the clock.
  ctrl::ControllerConfig ctrl;
  std::uint64_t seed = 42;  // scenario sampling + restoration replay rng

  EngineConfig() { ctrl.te_budget_s = 0.05; }
};

class TickEngine {
 public:
  // Throws std::logic_error (Registry::unknown_message) when
  // config.ctrl.scheme is not a registered scheme.
  explicit TickEngine(EngineConfig config);
  ~TickEngine();  // drains if the caller has not

  struct TopologyResult {
    bool ok = false;
    std::string error;
    int sites = 0;
    int fibers = 0;
    int scenarios = 0;
  };
  // Installs (or replaces) the network. Scenario sampling happens here;
  // tunnels, restoration plans, calibration and journal recovery are
  // deferred to the first tick, which fixes the flow/tunnel shape. Replacing
  // a topology drains the previous run (journal end_run, basis save) first.
  TopologyResult set_topology(topo::Network net);

  struct TickResult {
    bool ok = false;
    std::string error;
    int tick = 0;                  // 1-based tick sequence number
    ctrl::Rung rung = ctrl::Rung::kPrimary;
    double seconds = 0.0;          // wall clock of this tick's ladder
    bool deadline_overrun = false;
    // This tick landed on a worse (higher) rung than the previous tick —
    // the daemon's degradation alert.
    bool rung_regression = false;
    bool journal_recovered = false;  // first tick only: prior plan adopted
  };
  TickResult tick(const traffic::TrafficMatrix& tm);

  struct CutResult {
    bool ok = false;
    std::string error;
    bool planned = false;        // an exact precomputed plan existed
    double restored_gbps = 0.0;
    double latency_s = 0.0;      // optical convergence time of the plan
    // Localized-repair fast path (schemes whose registry capabilities set
    // supports_local_repair): the installed plan was rewoven around the cut
    // at the IP layer instead of restored optically.
    bool local_repair = false;
    bool fell_back_global = false;  // local LP insufficient; global re-solve
  };
  CutResult cut(topo::FiberId fiber);
  // Fiber spliced: the cut's own restored capacity reverts. False when the
  // fiber was not cut.
  bool repair(topo::FiberId fiber);

  // RunReport snapshot of everything served so far (same field meanings as
  // run_controller's, filled by the same ctrl::make_run_report; te_runs
  // counts ticks). Safe to call at any time.
  obs::RunReport report() const;

  // Ends the run: journal end_run, warm-start absorb, BasisStore
  // save_shared, RunReport artifacts (when obs is enabled). Idempotent;
  // called by the server on shutdown and by the destructor as a backstop.
  void drain();

  // --- status (the query op) ----------------------------------------------
  bool has_topology() const { return have_topo_; }
  int ticks() const { return acc_.te_runs; }
  int active_cuts() const { return static_cast<int>(active_cuts_.size()); }
  ctrl::Rung last_rung() const { return last_rung_; }
  bool drained() const { return drained_; }
  // p50/p99 of the per-tick ladder wall clock so far (0 before any tick).
  double tick_p50_s() const;
  double tick_p99_s() const;

 private:
  bool ensure_prepared(const traffic::TrafficMatrix& tm, std::string* error);
  void observe_delivery();

  EngineConfig config_;
  util::Rng rng_;

  bool have_topo_ = false;
  topo::Network net_;
  std::vector<scenario::Scenario> scenarios_;

  // The ladder, journal, basis and cut counters, in run_controller's
  // layout; lives across topology replacements (the daemon's lifetime).
  // Declared before core_, which accumulates into it.
  ctrl::ControllerReport acc_;

  // Per topology, built at its first tick.
  std::optional<te::TeInput> input_;
  std::unique_ptr<ctrl::PlanningCore> core_;
  std::optional<te::TeSolution> current_;  // plan serving traffic now

  // --- accounting ----------------------------------------------------------
  ctrl::Rung last_rung_ = ctrl::Rung::kPrimary;
  int local_repairs_ = 0;
  int local_repair_fallbacks_ = 0;
  long long local_repair_pivots_ = 0;
  double local_repair_seconds_ = 0.0;
  double delivered_sum_ = 0.0;  // instantaneous delivery sampled per event
  double offered_sum_ = 0.0;
  bool drained_ = false;

  std::set<topo::FiberId> active_cuts_;
  std::map<topo::IpLinkId, double> restored_;
  std::map<topo::FiberId, std::vector<std::pair<topo::IpLinkId, double>>>
      restored_by_cut_;
};

}  // namespace arrow::serve
