// Phase I model-build cost: incidence-index + shared-RestorabilityCache +
// parallel row-generation path, timed serial vs parallel and with the cache
// shared vs rebuilt.
//
// The build reads the link->tunnel incidence index, shares one flag
// computation per (scenario, ticket), and generates per-scenario constraint
// rows on the pool. Every configuration must produce bit-identical models —
// verified here via Model::fingerprint at 1/2/8 threads with the cache
// shared and rebuilt — and a solve cross-check confirms the identical
// models also yield identical TE solutions.
//
// It also times the LP assembly stages each solve of that model pays after
// the build: Model::lp (CSC plus the row view, `build_lp_ms`), presolve_lp
// (`presolve_ms`) and one counting transpose of the CSC into a row view
// (`row_view_ms`: what presolve and the simplex each paid per solve before
// Model::lp handed them its own view, and what an LP without a view still
// pays). Stage times are min-of-5 and carry no gate.
//
// Environment knobs: ARROW_BENCH_FAST=1 shrinks to the IBM topology for
// CI-speed runs (bench-smoke). Results land in BENCH_phase1_build.json
// (bench_json.h).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_json.h"
#include "solver/model.h"
#include "solver/presolve.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;
using Clock = std::chrono::steady_clock;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

// Order-sensitive fold over everything that defines the TE outcome.
double solution_checksum(const te::TeSolution& sol) {
  double sum = sol.objective;
  for (std::size_t f = 0; f < sol.alloc.size(); ++f) {
    for (std::size_t ti = 0; ti < sol.alloc[f].size(); ++ti) {
      sum += static_cast<double>((f + 1) * (ti + 2)) * sol.alloc[f][ti];
    }
  }
  for (std::size_t q = 0; q < sol.winner.size(); ++q) {
    sum += static_cast<double>((q + 1) * sol.winner[q]);
  }
  return sum;
}

// Best of `reps` wall-clock runs of fn, in ms.
template <typename Fn>
double min_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net =
      fast_mode ? topo::build_ibm() : topo::build_fbsynth();
  util::Rng rng(2024);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = fast_mode ? 6 : 8;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.6);
  te::ArrowParams params;
  params.tickets.num_tickets = fast_mode ? 6 : 10;

  const int n_threads = util::default_thread_count();
  util::ThreadPool pool(n_threads);
  util::Rng prep_rng(7);
  const auto prepared = te::prepare_arrow(input, params, prep_rng, pool);

  bench::BenchJson out("phase1_build");
  out.set("topology", net.name);
  out.set("scenarios", static_cast<long long>(scenarios.size()));
  out.set("flows", input.num_flows());
  out.set("tunnels", input.total_tunnels());
  out.set("tickets_per_scenario", params.tickets.num_tickets);
  out.set("threads", n_threads);
  out.set("hardware_concurrency",
          static_cast<long long>(std::thread::hardware_concurrency()));

  bool ok = true;

  // --- build-time measurement ----------------------------------------------
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const te::RestorabilityCache cache(input, prepared, pool);
  // Serial baseline with the cache shared: pure row-generation cost.
  const te::Phase1BuildStats base =
      te::build_phase1_model(input, prepared, params, pool1, &cache);
  out.set("vars", base.vars);
  out.set("rows", base.rows);
  out.set("serial_build_ms", base.build_seconds * 1e3);
  std::printf("serial build: %.1f ms (%d vars, %d rows)\n",
              base.build_seconds * 1e3, base.vars, base.rows);

  // Amortized parallel build: the cache is shared across solves in
  // production (sweep chains, the controller's ladder), so it is built once
  // up front.
  const te::Phase1BuildStats fast =
      te::build_phase1_model(input, prepared, params, pool, &cache);
  out.set("fast_build_ms", fast.build_seconds * 1e3);
  // Cold build: cache construction included (a solve_arrow call with
  // nothing shared pays this).
  const te::Phase1BuildStats cold =
      te::build_phase1_model(input, prepared, params, pool);
  out.set("fast_build_with_cache_build_ms", cold.build_seconds * 1e3);

  const double speedup = fast.build_seconds > 0.0
                             ? base.build_seconds / fast.build_seconds
                             : 0.0;
  const double cold_speedup = cold.build_seconds > 0.0
                                  ? base.build_seconds / cold.build_seconds
                                  : 0.0;
  out.set("build_speedup", speedup);
  out.set("build_speedup_including_cache", cold_speedup);
  std::printf("parallel build: %.1f ms shared cache (%.2fx vs serial), "
              "%.1f ms with cache construction (%.2fx)\n",
              fast.build_seconds * 1e3, speedup, cold.build_seconds * 1e3,
              cold_speedup);

  // --- LP assembly stages after the build ----------------------------------
  {
    solver::Model model;
    te::build_phase1_model(input, prepared, params, pool1, &cache, &model);
    solver::Lp lp;
    const double build_lp_ms = min_ms(5, [&] { lp = model.lp(); });
    const double presolve_ms = min_ms(5, [&] {
      (void)solver::presolve_lp(lp, model.simplex_options());
    });
    const double row_view_ms =
        min_ms(5, [&] { (void)solver::transpose_to_rows(lp.a); });
    const bool noop = solver::presolve_is_noop(lp);
    const solver::Presolved pre =
        solver::presolve_lp(lp, model.simplex_options());
    out.set("lp_rows", lp.a.rows);
    out.set("lp_nnz", lp.a.nnz());
    out.set("build_lp_ms", build_lp_ms);
    out.set("presolve_ms", presolve_ms);
    out.set("presolve_noop", std::string(noop ? "yes" : "no"));
    out.set("presolve_rows_removed", pre.rows_removed);
    out.set("presolve_cols_removed", pre.cols_removed);
    out.set("row_view_ms", row_view_ms);
    std::printf("LP assembly (m=%d, nnz=%d): build_lp %.2f ms, presolve %.2f "
                "ms (no-op exit: %s; %d rows, %d cols removed), row view by "
                "transpose %.2f ms\n",
                lp.a.rows, lp.a.nnz(), build_lp_ms, presolve_ms,
                noop ? "yes" : "no", pre.rows_removed, pre.cols_removed,
                row_view_ms);
  }

  // --- model bit-identity across thread counts and cache sharing ----------
  for (util::ThreadPool* p : {&pool1, &pool2, &pool8}) {
    for (const te::RestorabilityCache* c :
         {static_cast<const te::RestorabilityCache*>(nullptr), &cache}) {
      const te::Phase1BuildStats s =
          te::build_phase1_model(input, prepared, params, *p, c);
      if (s.model_fingerprint != base.model_fingerprint ||
          s.vars != base.vars || s.rows != base.rows) {
        std::fprintf(stderr,
                     "FAIL: build (threads=%d, shared_cache=%d) is not "
                     "bit-identical to the serial baseline model\n",
                     p->threads(), c != nullptr ? 1 : 0);
        ok = false;
      }
    }
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(base.model_fingerprint));
  out.set("model_fingerprint", std::string(fp));
  if (ok) {
    std::printf("model fingerprint %s identical at 1/2/8 threads, cache "
                "shared and rebuilt\n", fp);
  }

  // --- solution bit-identity ----------------------------------------------
  const te::TeSolution sol1 = te::solve_arrow(input, prepared, params, pool1);
  const te::TeSolution sol2 =
      te::solve_arrow(input, prepared, params, pool2, &cache);
  const te::TeSolution sol8 =
      te::solve_arrow(input, prepared, params, pool8, &cache);
  const double checksum = solution_checksum(sol1);
  out.set("solution_checksum", checksum);
  for (const te::TeSolution* s : {&sol2, &sol8}) {
    if (!s->optimal || !sol1.optimal ||
        s->alloc != sol1.alloc || s->winner != sol1.winner ||
        s->objective != sol1.objective) {
      std::fprintf(stderr,
                   "FAIL: TE solution differs across build configurations "
                   "(checksums %.17g vs %.17g)\n",
                   solution_checksum(*s), checksum);
      ok = false;
    }
  }
  if (ok) {
    std::printf("TE solutions identical at 1/2/8 threads "
                "(checksum %.17g)\n", checksum);
  }

  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}
