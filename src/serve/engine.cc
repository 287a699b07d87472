#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optical/latency.h"
#include "optical/rwa.h"
#include "schemes/reweave.h"
#include "schemes/scheme.h"
#include "sim/availability.h"
#include "ticket/ticket.h"
#include "util/stats.h"

namespace arrow::serve {

TickEngine::TickEngine(EngineConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // An unknown scheme fails here, not at the first tick inside the poll
  // loop; the diagnostic lists the registered names.
  const auto& registry = schemes::Registry::global();
  if (!registry.contains(config_.ctrl.scheme)) {
    throw std::logic_error(registry.unknown_message(config_.ctrl.scheme));
  }
}

TickEngine::~TickEngine() { drain(); }

TickEngine::TopologyResult TickEngine::set_topology(topo::Network net) {
  TopologyResult out;
  if (net.num_sites == 0 || net.ip_links.empty()) {
    out.error = "empty network";
    return out;
  }
  // Replacing a live topology ends the previous run cleanly first; the
  // daemon then behaves like a fresh start on the new network.
  if (core_ != nullptr) {
    drain();
    core_.reset();
    current_.reset();
    input_.reset();
    drained_ = false;
  }
  net_ = std::move(net);
  std::vector<scenario::Scenario> raw = config_.ctrl.explicit_scenarios;
  if (raw.empty()) {
    raw = scenario::generate_scenarios(net_, config_.ctrl.scenarios, rng_)
              .scenarios;
  }
  scenarios_ = scenario::remove_disconnecting(net_, std::move(raw));
  active_cuts_.clear();
  restored_.clear();
  restored_by_cut_.clear();
  have_topo_ = true;
  out.ok = true;
  out.sites = net_.num_sites;
  out.fibers = static_cast<int>(net_.optical.fibers.size());
  out.scenarios = static_cast<int>(scenarios_.size());
  return out;
}

bool TickEngine::ensure_prepared(const traffic::TrafficMatrix& tm,
                                 std::string* error) {
  if (!have_topo_) {
    *error = "no topology installed (send a topology op first)";
    return false;
  }
  if (core_ != nullptr) return true;
  OBS_SPAN("serve_prepare");
  input_.emplace(net_, tm, scenarios_, config_.ctrl.tunnels);
  core_ = std::make_unique<ctrl::PlanningCore>(config_.ctrl, *input_, rng_,
                                               acc_);
  return true;
}

TickEngine::TickResult TickEngine::tick(const traffic::TrafficMatrix& tm) {
  TickResult out;
  if (drained_) {
    out.error = "engine drained";
    return out;
  }
  if (tm.demands.empty()) {
    out.error = "empty traffic matrix";
    return out;
  }
  const bool first = core_ == nullptr;
  if (!ensure_prepared(tm, &out.error)) return out;
  if (!first) {
    // The TeInput keeps its tunnels and caches; only demands change.
    input_->set_demands(tm);
    input_->scale_demands(core_->demand_factor());
  }
  OBS_SPAN("serve_tick");
  ctrl::LadderOutcome lad = core_->solve(*input_);

  out.ok = true;
  out.tick = acc_.te_runs;
  out.rung = lad.rung;
  out.seconds = lad.seconds;
  out.journal_recovered = first && acc_.journal_recovered;
  out.deadline_overrun = config_.ctrl.te_budget_s > 0.0 &&
                         lad.seconds > config_.ctrl.te_budget_s;
  out.rung_regression = acc_.te_runs > 1 && lad.rung > last_rung_;
  if (lad.rung != ctrl::Rung::kPrimary || out.deadline_overrun) {
    ++acc_.degraded_periods;
  }
  last_rung_ = lad.rung;
  current_ = std::move(lad.sol);

  // SLO metrics: tick latency distribution + rolling p50/p99 gauges, rung
  // attribution, regression alerts. All on the global registry so /metrics
  // serves them without touching engine state.
  auto& reg = obs::Registry::global();
  reg.counter("arrow_serve_ticks_total").add();
  reg.histogram("arrow_serve_tick_seconds").observe(lad.seconds);
  reg.counter("arrow_serve_rung_" + ctrl::rung_metric_name(out.rung) +
              "_total")
      .add();
  if (out.rung_regression) {
    reg.counter("arrow_serve_rung_regressions_total").add();
  }
  if (out.deadline_overrun) {
    reg.counter("arrow_serve_deadline_overruns_total").add();
  }
  reg.gauge("arrow_serve_tick_p50_seconds").set(tick_p50_s());
  reg.gauge("arrow_serve_tick_p99_seconds").set(tick_p99_s());

  observe_delivery();
  return out;
}

TickEngine::CutResult TickEngine::cut(topo::FiberId fiber) {
  CutResult out;
  if (!current_) {
    out.error = "no plan installed yet (send a tick first)";
    return out;
  }
  if (fiber < 0 ||
      fiber >= static_cast<topo::FiberId>(net_.optical.fibers.size())) {
    out.error = "fiber id out of range";
    return out;
  }
  if (active_cuts_.count(fiber) != 0) {
    out.error = "fiber already cut";
    return out;
  }
  OBS_SPAN("serve_cut");
  active_cuts_.insert(fiber);
  ++acc_.cuts_handled;
  obs::Registry::global().counter("arrow_serve_cuts_total").add();
  obs::Registry::global()
      .gauge("arrow_serve_active_cuts")
      .set(static_cast<double>(active_cuts_.size()));
  out.ok = true;

  if (core_->restores()) {
    int q_match = -1;
    for (std::size_t q = 0; q < scenarios_.size(); ++q) {
      if (scenarios_[q].cuts.size() == 1 && scenarios_[q].cuts[0] == fiber) {
        q_match = static_cast<int>(q);
        break;
      }
    }
    if (q_match >= 0) {
      ++acc_.cuts_with_plan;
      out.planned = true;
      const auto q = static_cast<std::size_t>(q_match);
      const te::ArrowPrepared& prepared = core_->prepared();
      const auto& tickets = prepared.tickets[q];
      const int w = current_->winner.empty() ? -1 : current_->winner[q];
      const ticket::LotteryTicket ticket =
          (w >= 0 && w < static_cast<int>(tickets.tickets.size()))
              ? tickets.tickets[static_cast<std::size_t>(w)]
              : ticket::naive_ticket(prepared.rwa[q]);
      auto links = prepared.rwa[q].links;
      const std::vector<topo::FiberId> active(active_cuts_.begin(),
                                              active_cuts_.end());
      optical::assign_slots_first_fit(net_, active, links,
                                      ticket.path_waves);
      const auto plan = optical::plan_from_restoration(net_, links);
      if (!plan.empty()) {
        util::Rng replay = rng_.fork();
        const auto latency = optical::simulate_restoration(
            net_, active, plan, config_.ctrl.latency, replay);
        out.restored_gbps = latency.restored_gbps;
        out.latency_s = latency.total_s;
        acc_.restoration_latency_s.push_back(latency.total_s);
        // The daemon has no event clock; restored capacity counts from the
        // moment the plan converges (latency reported to the client).
        for (const auto& pt : latency.timeline) {
          if (pt.link < 0) continue;
          restored_[pt.link] += pt.wave_gbps;
          restored_by_cut_[fiber].emplace_back(pt.link, pt.wave_gbps);
        }
      }
    } else {
      ++acc_.unplanned_cuts;
    }
  } else if (core_->scheme().capabilities().supports_local_repair) {
    // Localized fast path: weave the installed plan around every active cut
    // at the IP layer. No optical restoration, no scenario lookup — the
    // repair LP is bounded by the failure's footprint, which is what lets
    // it run inside the cut request instead of waiting for the next tick.
    const std::vector<topo::FiberId> active(active_cuts_.begin(),
                                            active_cuts_.end());
    const auto outcome = schemes::local_repair(
        *input_, *current_, net_.failed_ip_links(active));
    local_repair_seconds_ += outcome.solve_seconds;
    local_repair_pivots_ += outcome.simplex_iterations;
    if (outcome.ok) {
      ++local_repairs_;
      out.local_repair = outcome.local;
      out.fell_back_global = outcome.fell_back_global;
      out.restored_gbps = outcome.recovered_gbps;
      const schemes::ReWeaveParams repair_params;
      out.latency_s = repair_params.detection_s + outcome.solve_seconds +
                      repair_params.rebalance_s;
      acc_.restoration_latency_s.push_back(out.latency_s);
      // Install the repaired plan as current (not last-good: it is shaped
      // for the failure state, and the next tick re-solves from scratch).
      current_ = outcome.plan;
      if (outcome.fell_back_global) {
        ++local_repair_fallbacks_;
        obs::Registry::global()
            .counter("arrow_serve_local_repair_fallbacks_total")
            .add();
      }
      obs::Registry::global()
          .counter("arrow_serve_local_repairs_total")
          .add();
    } else {
      ++acc_.unplanned_cuts;
    }
  } else {
    ++acc_.unplanned_cuts;
  }
  observe_delivery();
  return out;
}

bool TickEngine::repair(topo::FiberId fiber) {
  if (active_cuts_.erase(fiber) == 0) return false;
  auto it = restored_by_cut_.find(fiber);
  if (it != restored_by_cut_.end()) {
    for (const auto& [link, gbps] : it->second) {
      auto rit = restored_.find(link);
      if (rit == restored_.end()) continue;
      rit->second -= gbps;
      if (rit->second <= 1e-9) restored_.erase(rit);
    }
    restored_by_cut_.erase(it);
  }
  obs::Registry::global()
      .gauge("arrow_serve_active_cuts")
      .set(static_cast<double>(active_cuts_.size()));
  observe_delivery();
  return true;
}

void TickEngine::observe_delivery() {
  if (!current_) return;
  const std::vector<topo::FiberId> cuts(active_cuts_.begin(),
                                        active_cuts_.end());
  const auto d = sim::state_delivery(*input_, *current_, cuts, restored_);
  delivered_sum_ += d.delivered_gbps;
  offered_sum_ += d.offered_gbps;
  obs::Registry::global()
      .gauge("arrow_serve_delivered_gbps")
      .set(d.delivered_gbps);
}

double TickEngine::tick_p50_s() const {
  const auto& seconds = acc_.solve_seconds_by_matrix;
  return seconds.empty() ? 0.0 : util::percentile(seconds, 50);
}

double TickEngine::tick_p99_s() const {
  const auto& seconds = acc_.solve_seconds_by_matrix;
  return seconds.empty() ? 0.0 : util::percentile(seconds, 99);
}

obs::RunReport TickEngine::report() const {
  obs::RunReport rr = ctrl::make_run_report(
      acc_, config_.ctrl, static_cast<int>(scenarios_.size()));
  rr.local_repairs = local_repairs_;
  rr.local_repair_fallbacks = local_repair_fallbacks_;
  rr.local_repair_pivots = local_repair_pivots_;
  rr.local_repair_seconds = local_repair_seconds_;
  // Mean instantaneous delivered/offered sampled at every tick, cut, and
  // repair — the daemon has no simulated clock to integrate over.
  rr.availability =
      offered_sum_ > 0.0 ? delivered_sum_ / offered_sum_ : 1.0;
  return rr;
}

void TickEngine::drain() {
  if (drained_) return;
  drained_ = true;
  if (core_ == nullptr) return;
  core_->drain();
  obs::emit_run_artifacts(config_.ctrl.obs.resolved(), report());
}

}  // namespace arrow::serve
