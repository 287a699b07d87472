// The planning core both control loops run on.
//
// The paper's controller (§5, Fig. 8) has one offline stage — RWA and
// LotteryTickets, computed once — and one periodic TE loop over those
// plans. This repo drives that loop from two clocks: run_controller
// (controller.h) replays a simulated horizon against an event queue, and
// serve::TickEngine (serve/engine.h) answers socket messages one at a time.
// Everything else is per-run state they share, and lives here:
//
//   * persistent warm starts: basis_dir / ARROW_BASIS_DIR resolution, the
//     BasisStore load, and a ScopedWarmStartCache seeded from it that lives
//     for the whole run (calibration included);
//   * the crash journal: ARROW_JOURNAL_DIR resolution, recovery of a prior
//     plan whose hashes and tunnel shape match this run, begin_run;
//   * the calibration mini-ladder (LP, relaxed LP, closed-form ECMP bound);
//   * the offline stage, for schemes whose capabilities need it:
//     prepare_arrow, per-scenario RWA repair retries, RestorabilityCache;
//   * solve(): one TE period on the degradation ladder (ladder.h), through
//     the run's one schemes::Scheme instance, folded into the run's
//     ControllerReport; plans from rungs <= ffc-fallback are journaled and
//     kept as the carry-forward seed;
//   * drain(): warm-start absorb, BasisStore::save_shared (sibling processes
//     sharing one basis_dir merge instead of clobbering), journal end_run;
//   * make_run_report(): the RunReport fields both loops account alike.
//
// What stays with each loop is its clock and its cut semantics: event-timed
// replay with emergency restoration in run_controller, immediate replay and
// the localized-repair fast path in the daemon.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "controller/controller.h"
#include "controller/journal.h"
#include "controller/ladder.h"
#include "obs/report.h"
#include "schemes/scheme.h"
#include "solver/basis_store.h"
#include "solver/lp.h"
#include "te/input.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow::ctrl {

class PlanningCore {
 public:
  // Builds the per-run state in the order run_controller always has: store
  // load/seed, journal recovery + begin_run, calibration, `first` scaled by
  // demand_factor(), offline stage, ladder backoff base. `first` is the
  // run's first TeInput — its tunnels fix the flow shape a journaled plan
  // must match. rng draws: prepare_arrow's, two RWA-repair stream bases
  // (needs_prepared schemes only), then the ladder backoff base.
  // Throws std::logic_error (Registry::unknown_message) on an unknown
  // config.scheme. `config` and `report` must outlive the core; counters
  // accumulate into `report`.
  PlanningCore(const ControllerConfig& config, te::TeInput& first,
               util::Rng& rng, ControllerReport& report);

  PlanningCore(const PlanningCore&) = delete;
  PlanningCore& operator=(const PlanningCore&) = delete;

  // Calibrated full-satisfaction scale times config.demand_scale: every
  // later input's demands are scaled by this.
  double demand_factor() const { return demand_factor_; }

  // One TE period: the degradation ladder (closed-form rungs only once
  // config.cancel has fired), folded into the report. The ladder's backoff
  // stream is keyed on the number of periods solved before this one.
  LadderOutcome solve(const te::TeInput& input);

  // Ends the run: absorb the warm-start cache into the store, save_shared
  // to basis_dir, journal end_run. Call once.
  void drain();

  schemes::Scheme& scheme() { return *scheme_; }
  // The scheme consumes the offline stage (and its plans drive optical
  // cut replay).
  bool restores() const { return restores_; }
  const te::ArrowPrepared& prepared() const { return prepared_; }

  // Inline pool while a thread-local solver hook (fault injector, options
  // override) is active, so every solve stays under the hook; the process
  // pool otherwise.
  util::ThreadPool& pool();

 private:
  void sync_live_counters();

  const ControllerConfig& config_;
  ControllerReport& report_;
  std::unique_ptr<schemes::Scheme> scheme_;
  bool restores_ = false;
  double demand_factor_ = 1.0;
  util::ThreadPool inline_pool_;

  std::optional<solver::BasisStore> local_store_;
  solver::BasisStore* store_ = nullptr;
  std::string basis_file_;
  std::optional<solver::ScopedWarmStartCache> warm_;
  std::optional<StateJournal> journal_;
  std::uint64_t topo_h_ = 0;
  std::uint64_t scen_h_ = 0;

  te::ArrowPrepared prepared_;
  std::optional<te::RestorabilityCache> rcache_;
  std::optional<te::TeSolution> last_good_;  // seeds carry-forward
  std::uint64_t te_backoff_base_ = 0;
};

// The RunReport fields both loops account alike, copied from `acc` (never
// re-derived from global metrics — see obs/report.h); run id and scheme come
// from `config`. Loop-specific fields (availability sampling, local repairs)
// are the caller's.
obs::RunReport make_run_report(const ControllerReport& acc,
                               const ControllerConfig& config, int scenarios);

}  // namespace arrow::ctrl
