#include "controller/core.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "obs/metrics.h"
#include "te/basic.h"
#include "topo/network.h"
#include "util/deadline.h"
#include "util/stats.h"

namespace arrow::ctrl {

namespace {

// Config field, else the environment variable.
std::string dir_or_env(const std::string& configured, const char* env_name) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

schemes::SchemeOptions scheme_options(const ControllerConfig& config) {
  schemes::SchemeOptions options;
  options.arrow = config.arrow;
  options.latency = config.latency;
  return options;
}

}  // namespace

PlanningCore::PlanningCore(const ControllerConfig& config, te::TeInput& first,
                           util::Rng& rng, ControllerReport& report)
    : config_(config),
      report_(report),
      scheme_(schemes::Registry::global().create(config.scheme,
                                                 scheme_options(config))),
      restores_(scheme_->capabilities().needs_prepared),
      inline_pool_(1) {
  // Persistent warm starts (opt-in): seed a scoped cache from the store's
  // bases for this exact (topology, scenario set) before any solve, absorb
  // the run's final bases back at drain. The hashes key on structure, not
  // demands, so runs over different traffic matrices share vertices as long
  // as the network and scenario set match. A basis directory extends the
  // store across processes; with no in-process store configured the disk
  // file gets a run-local one.
  const std::string basis_dir = dir_or_env(config.basis_dir, "ARROW_BASIS_DIR");
  store_ = config.basis_store;
  if (store_ == nullptr && !basis_dir.empty()) {
    local_store_.emplace();
    store_ = &*local_store_;
  }
  const std::string journal_dir =
      dir_or_env(config.journal_dir, "ARROW_JOURNAL_DIR");
  if (store_ != nullptr || !journal_dir.empty()) {
    topo_h_ = topo::structure_hash(first.net());
    scen_h_ = scenario::set_hash(first.scenarios());
  }
  if (store_ != nullptr) {
    if (!basis_dir.empty()) {
      basis_file_ = solver::BasisStore::file_in(basis_dir);
      store_->load(basis_file_);  // false = cold start
    }
    warm_.emplace();
    report_.basis_seeded = store_->seed(topo_h_, scen_h_, *warm_);
  }

  // Journal recovery + write-ahead in-flight marker. A journaled plan is
  // adopted as the ladder's initial last-good solution only when it was
  // written for this exact network structure and scenario set AND its shape
  // matches this run's flow/tunnel layout — anything else is a cold start.
  // The marker write happens before any solve: a crash from here on leaves
  // in_flight set, which the next process (and the chaos drills) can see.
  if (!journal_dir.empty()) {
    journal_.emplace(StateJournal::file_in(journal_dir));
    JournalState prior = journal_->load();
    report_.journal_prior_in_flight = prior.in_flight;
    bool adopted = false;
    if (prior.has_plan && prior.topo_hash == topo_h_ &&
        prior.scenario_hash == scen_h_) {
      const auto& tunnels = first.tunnels();
      adopted = prior.plan.alloc.size() == tunnels.size() &&
                prior.plan.admitted.size() == tunnels.size();
      for (std::size_t f = 0; adopted && f < tunnels.size(); ++f) {
        adopted = prior.plan.alloc[f].size() == tunnels[f].size();
      }
      if (adopted) {
        te::TeSolution sol;
        sol.scheme = "Journal(" + prior.plan.scheme + ")";
        sol.optimal = true;  // was a real plan for this exact structure
        sol.admitted = prior.plan.admitted;
        sol.alloc = prior.plan.alloc;
        last_good_ = std::move(sol);
        obs::Registry::global()
            .counter("arrow_journal_recoveries_total")
            .add();
      }
    }
    report_.journal_recovered = adopted;
    if (!adopted) {
      // Do not carry a plan we did not adopt: begin_run stamps OUR hashes
      // into the journal, and a stale foreign plan under them would be
      // trusted (wrongly) by the next recovery.
      prior.has_plan = false;
      prior.plan = JournalPlan{};
    }
    journal_->reset(std::move(prior));
    journal_->begin_run(config.obs.resolved().run_id, topo_h_, scen_h_);
  }

  // Calibration gets its own two-rung ladder: the LP, the LP under relaxed
  // solver settings, then the closed-form ECMP bound (conservative but
  // fault-immune). A faulted calibration must not take the run down.
  bool calib_ok = true;
  double calibration = te::max_satisfiable_scale(first, &calib_ok);
  if (!calib_ok) {
    solver::ScopedSimplexOverride relax(relaxed_simplex_options());
    calibration = te::max_satisfiable_scale(first, &calib_ok);
  }
  if (!calib_ok) {
    calibration = te::ecmp_satisfiable_scale(first);
    report_.calibration_degraded = true;
  }
  demand_factor_ = calibration * config.demand_scale;
  first.scale_demands(demand_factor_);

  util::ThreadPool& offline_pool = pool();
  if (restores_) {
    prepared_ = te::prepare_arrow(first, config.arrow, rng, offline_pool);
    // A solver fault inside one scenario's RWA silently strips that
    // scenario's restoration capacity (its tickets carry zero waves), so
    // failed scenarios are re-solved individually — relaxed solver settings
    // from the second attempt on — before the run relies on them. The base
    // for the retry streams is drawn whether or not anything failed, so the
    // rng trajectory downstream does not depend on how many scenarios a
    // fault happened to hit; attempt streams are counter-seeded per
    // (scenario, attempt), so repairs of different scenarios can run on the
    // pool concurrently and still reproduce bit-for-bit.
    constexpr int kRwaRetries = 5;
    const std::uint64_t repair_base = rng.next_u64();
    // Backoff streams are per scenario (counter-seeded like the retry
    // streams), drawn unconditionally for the same reason. Sleeps are real
    // time on the worker running that scenario's repairs — concurrent
    // repairs back off independently.
    const std::uint64_t rwa_backoff_base = rng.next_u64();
    std::atomic<int> rwa_backoff_retries{0};
    std::vector<int> failed;
    for (std::size_t q = 0; q < prepared_.rwa.size(); ++q) {
      if (!prepared_.rwa[q].optimal) failed.push_back(static_cast<int>(q));
    }
    std::vector<char> repaired(failed.size(), 0);
    offline_pool.parallel_for(0, static_cast<int>(failed.size()), [&](int i) {
      const int q = failed[static_cast<std::size_t>(i)];
      auto* rwa = &prepared_.rwa[static_cast<std::size_t>(q)];
      auto* tickets = &prepared_.tickets[static_cast<std::size_t>(q)];
      util::Backoff backoff(
          config.retry_backoff,
          util::Rng::stream_seed(rwa_backoff_base,
                                 static_cast<std::uint64_t>(q)));
      for (int attempt = 0; attempt < kRwaRetries; ++attempt) {
        if (attempt > 0 && backoff.sleep() > 0.0) {
          rwa_backoff_retries.fetch_add(1, std::memory_order_relaxed);
        }
        util::Rng retry_rng(util::Rng::stream_seed(
            repair_base,
            static_cast<std::uint64_t>(q) * kRwaRetries +
                static_cast<std::uint64_t>(attempt)));
        if (attempt == 0) {
          te::prepare_arrow_scenario(first, q, config.arrow, retry_rng, rwa,
                                     tickets);
        } else {
          solver::ScopedSimplexOverride relax(relaxed_simplex_options());
          te::prepare_arrow_scenario(first, q, config.arrow, retry_rng, rwa,
                                     tickets);
        }
        if (rwa->optimal) {
          repaired[static_cast<std::size_t>(i)] = 1;
          break;
        }
      }
    });
    for (char r : repaired) {
      if (r) ++report_.rwa_repairs; else ++report_.rwa_scenarios_lost;
    }
    report_.backoff_retries += rwa_backoff_retries.load();
    // Restorability flags are a function of (tunnels, tickets), both shared
    // across traffic matrices (demands differ, topology does not), so one
    // cache serves every period's ladder — including its retry rungs.
    rcache_.emplace(first, prepared_, offline_pool);
  }
  // Ladder backoff streams, one per period (counter-seeded, drawn whether or
  // not any rung retries — the rng trajectory downstream must not depend on
  // how many retries happened).
  te_backoff_base_ = rng.next_u64();
}

util::ThreadPool& PlanningCore::pool() {
  return (solver::ScopedSolveObserver::active() != nullptr ||
          solver::ScopedSimplexOverride::active() != nullptr)
             ? inline_pool_
             : util::global_pool();
}

LadderOutcome PlanningCore::solve(const te::TeInput& input) {
  ControllerReport& r = report_;
  if (!r.canceled && config_.cancel && config_.cancel()) r.canceled = true;
  // The journal-recovered plan seeds carry-forward until a real solve
  // supersedes it: a restarted controller whose first solves fault serves
  // the dead process's last-good plan, not cold ECMP.
  const te::TeSolution* last_good = last_good_ ? &*last_good_ : nullptr;
  LadderOutcome out;
  if (r.canceled) {
    // Graceful drain: no further LP work, the closed-form rungs only.
    if (last_good != nullptr) {
      out.sol = carry_forward(*last_good, input);
      out.rung = Rung::kCarryForward;
    } else {
      out.sol = te::solve_ecmp(input);
      out.rung = Rung::kEcmp;
    }
  } else {
    const util::Deadline deadline =
        config_.te_budget_s > 0.0 ? util::Deadline::after(config_.te_budget_s)
                                  : util::Deadline();
    util::Backoff backoff(
        config_.retry_backoff,
        util::Rng::stream_seed(te_backoff_base_,
                               static_cast<std::uint64_t>(r.te_runs)));
    out = solve_with_ladder(*scheme_, input, prepared_, last_good,
                            rcache_ ? &*rcache_ : nullptr, pool(), deadline,
                            &backoff);
  }
  r.solver_timeouts += out.timeouts;
  r.backoff_retries += out.backoff_retries;
  const bool solved = out.rung <= Rung::kFfcFallback;
  if (journal_ && solved) {
    JournalPlan plan;
    plan.scheme = out.sol.scheme;
    plan.admitted = out.sol.admitted;
    plan.alloc = out.sol.alloc;
    journal_->record_plan(plan);
  }
  r.fallback_counts[static_cast<std::size_t>(out.rung)] += 1;
  r.rung_by_matrix.push_back(out.rung);
  r.solve_seconds_by_matrix.push_back(out.seconds);
  r.simplex_iterations_by_matrix.push_back(out.iterations);
  r.te_simplex_iterations += out.iterations;
  r.te_presolve_rows_removed += out.presolve_rows;
  r.te_presolve_cols_removed += out.presolve_cols;
  r.te_pricing_candidates += out.pricing_candidates;
  if (config_.te_budget_s > 0.0 && out.seconds > config_.te_budget_s) {
    ++r.deadline_overruns;
  }
  if (solved) last_good_ = out.sol;
  ++r.te_runs;
  sync_live_counters();
  return out;
}

void PlanningCore::drain() {
  if (store_ != nullptr) {
    report_.basis_absorbed = store_->absorb(topo_h_, scen_h_, *warm_);
    // save_shared: merge-under-flock, so sibling processes sharing this
    // basis_dir all keep their entries (plain save is last-writer-wins). A
    // failed save keeps the previous file; the next run just warm-starts
    // from slightly older bases.
    if (!basis_file_.empty() && !store_->save_shared(basis_file_)) {
      ++report_.basis_save_errors;
    }
  }
  if (journal_) journal_->end_run();  // clears the in-flight marker
  sync_live_counters();
}

void PlanningCore::sync_live_counters() {
  if (store_ != nullptr) {
    report_.warm_start_hits = warm_->hits();
    report_.warm_start_stores = warm_->stores();
    report_.basis_evictions = store_->evictions();
  }
  if (journal_) {
    report_.journal_writes = journal_->writes();
    report_.journal_write_errors = journal_->write_errors();
  }
}

obs::RunReport make_run_report(const ControllerReport& acc,
                               const ControllerConfig& config, int scenarios) {
  obs::RunReport rr;
  rr.run_id = config.obs.resolved().run_id;
  rr.scheme = config.scheme;
  rr.traffic_matrices = acc.te_runs;  // one solve per matrix (or tick)
  rr.scenarios = scenarios;
  rr.te_runs = acc.te_runs;
  for (int r = 0; r < kNumRungs; ++r) {
    rr.ladder.emplace_back(to_string(static_cast<Rung>(r)),
                           acc.fallback_counts[static_cast<std::size_t>(r)]);
  }
  rr.degraded_periods = acc.degraded_periods;
  rr.deadline_overruns = acc.deadline_overruns;
  rr.solver_timeouts = acc.solver_timeouts;
  rr.backoff_retries = acc.backoff_retries;
  rr.canceled = acc.canceled;
  rr.journal_recovered = acc.journal_recovered;
  rr.journal_prior_in_flight = acc.journal_prior_in_flight;
  rr.journal_writes = acc.journal_writes;
  rr.journal_write_errors = acc.journal_write_errors;
  rr.simplex_iterations = acc.te_simplex_iterations;
  rr.presolve_rows_removed = acc.te_presolve_rows_removed;
  rr.presolve_cols_removed = acc.te_presolve_cols_removed;
  rr.pricing_candidates = acc.te_pricing_candidates;
  rr.warm_start_hits = acc.warm_start_hits;
  rr.warm_start_stores = acc.warm_start_stores;
  rr.basis_seeded = acc.basis_seeded;
  rr.basis_absorbed = acc.basis_absorbed;
  rr.basis_evictions = acc.basis_evictions;
  rr.basis_save_errors = acc.basis_save_errors;
  rr.cuts_handled = acc.cuts_handled;
  rr.cuts_with_plan = acc.cuts_with_plan;
  rr.unplanned_cuts = acc.unplanned_cuts;
  rr.emergency_restorations = acc.emergency_restorations;
  rr.rwa_repairs = acc.rwa_repairs;
  const auto& latency = acc.restoration_latency_s;
  rr.restorations = static_cast<int>(latency.size());
  if (!latency.empty()) {
    rr.restoration_p50_s = util::percentile(latency, 50);
    rr.restoration_p90_s = util::percentile(latency, 90);
    rr.restoration_p99_s = util::percentile(latency, 99);
    rr.restoration_max_s = *std::max_element(latency.begin(), latency.end());
  }
  rr.availability = acc.availability();
  return rr;
}

}  // namespace arrow::ctrl
