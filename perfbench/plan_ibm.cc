// plan-ibm: cold TE periods on IBM, one thread.
//
// Each period runs the path `arrowctl te` takes for ARROW: TeInput (tunnel
// selection + demand calibration) -> prepare_arrow (per-scenario RWA +
// LotteryTickets) -> RestorabilityCache -> Phase I -> Phase II ->
// availability evaluation. The traffic matrix comes from a fixed pool of
// diurnal epochs, small enough that a run plans all of it, so runs do the
// same work; the seed picks the order. Every plan is checked against the
// committed reference for its epoch.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/availability.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace ar = arrow;

namespace {

constexpr int kPoolSize = 6;  // about what one run plans
constexpr std::uint64_t kTrafficSeed = 2021;
constexpr std::uint64_t kScenarioSeed = 1;
constexpr std::uint64_t kPrepareSeed = 7;
constexpr double kLoad = 0.6;  // share of the largest satisfiable scale
constexpr int kMinPlans = 3;
constexpr int kSetups = 101;  // sub-millisecond each: many, for a steady median

struct Instance {
  ar::topo::Network net;
  std::vector<ar::scenario::Scenario> scenarios;
  std::vector<ar::traffic::TrafficMatrix> pool;
  ar::te::ArrowParams params;
  ar::te::TunnelParams tunnels;
};

Instance make_instance() {
  Instance inst;
  inst.net = ar::topo::build_ibm();
  ar::util::Rng srng(kScenarioSeed);
  ar::scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  inst.scenarios = ar::scenario::remove_disconnecting(
      inst.net, ar::scenario::generate_scenarios(inst.net, sp, srng).scenarios);
  ar::util::Rng trng(kTrafficSeed);
  ar::traffic::TrafficParams tp;
  tp.num_matrices = kPoolSize;
  inst.pool = ar::traffic::generate_traffic(inst.net, tp, trng);
  inst.params.tickets.num_tickets = 10;
  inst.tunnels.tunnels_per_flow = 8;
  return inst;
}

struct Plan {
  bool optimal = false;
  double phase1_objective = 0.0;
  double phase2_objective = 0.0;
  double availability = 0.0;
  long long phase1_pivots = 0;
  long long phase2_pivots = 0;
  int phase1_rounds = 0;
  int phase1_sub_solves = 0;
  // Wall time per stage and for the whole plan, seconds.
  double input_s = 0, prepare_s = 0, cache_s = 0, phase1_s = 0, phase2_s = 0,
         evaluate_s = 0, total_s = 0;
  // Traced plans only: model builds timed after the plan, and the pivots
  // the solver probe saw inside each phase.
  double phase1_build_s = 0, phase2_build_s = 0;
  long long probe_phase1_pivots = -1, probe_phase2_pivots = -1;
};

template <class F>
auto timed(const char* span, double* seconds, F&& f) {
  Span s(span);
  const double t0 = now_s();
  auto out = f();
  *seconds = now_s() - t0;
  return out;
}

// One cold TE period for pool epoch `epoch`. With `probe`, the solver
// observer is live and the per-phase pivots it saw are recorded.
Plan run_plan(const Instance& inst, int epoch, long long group,
              SolverProbe* probe) {
  ar::util::ThreadPool pool(1);
  Plan plan;
  Span root("bench.plan", group);
  const double t0 = now_s();
  ar::te::TeInput input = timed("te.input", &plan.input_s, [&] {
    ar::te::TeInput in(inst.net, inst.pool[static_cast<std::size_t>(epoch)],
                       inst.scenarios, inst.tunnels);
    in.scale_demands(ar::te::max_satisfiable_scale(in) * kLoad);
    return in;
  });
  const ar::te::ArrowPrepared prepared =
      timed("te.prepare", &plan.prepare_s, [&] {
        ar::util::Rng rng(kPrepareSeed + static_cast<std::uint64_t>(epoch));
        return ar::te::prepare_arrow(input, inst.params, rng, pool);
      });
  std::optional<ar::te::RestorabilityCache> cache;
  {
    Span s("te.cache");
    const double t = now_s();
    cache.emplace(input, prepared, pool);
    plan.cache_s = now_s() - t;
  }
  if (probe != nullptr) probe->take();
  const ar::te::Phase1Result p1 = timed("te.phase1", &plan.phase1_s, [&] {
    return ar::te::solve_phase1(input, prepared, inst.params, pool, &*cache);
  });
  if (probe != nullptr) plan.probe_phase1_pivots = probe->take().pivots;
  plan.phase1_objective = p1.objective;
  plan.phase1_pivots = p1.simplex_iterations;
  plan.phase1_rounds = p1.rounds;
  plan.phase1_sub_solves = p1.sub_solves;
  if (!p1.optimal) return plan;
  const ar::te::TeSolution sol = timed("te.phase2", &plan.phase2_s, [&] {
    return ar::te::solve_arrow_with_winners(input, prepared, p1.winners, pool,
                                            &*cache);
  });
  if (probe != nullptr) plan.probe_phase2_pivots = probe->take().pivots;
  plan.phase2_objective = sol.objective;
  plan.phase2_pivots = sol.simplex_iterations;
  if (!sol.optimal) return plan;
  const ar::sim::Evaluation eval = timed("sim.evaluate", &plan.evaluate_s,
                                         [&] { return ar::sim::evaluate(input, sol); });
  plan.availability = eval.availability;
  plan.optimal = true;
  plan.total_s = now_s() - t0;

  if (probe != nullptr) {
    // Model assembly alone, outside the timed plan.
    plan.phase1_build_s =
        ar::te::build_phase1_model(input, prepared, inst.params, pool, &*cache)
            .build_seconds;
    plan.phase2_build_s = ar::te::build_phase2_model(input, prepared, p1.winners,
                                                     inst.params, pool, &*cache)
                              .build_seconds;
  }
  return plan;
}

// Checks a plan against the reference entry for its epoch.
void check_plan(const Plan& plan, int epoch, const ar::obs::JsonValue& ref,
                Result* result) {
  const std::string tag = "plan-ibm epoch " + std::to_string(epoch);
  if (!plan.optimal) {
    result->op(false, tag + ": a TE solve was not optimal");
    return;
  }
  const ar::obs::JsonValue* entries = ref.find("epochs");
  const ar::obs::JsonValue* want =
      entries != nullptr && entries->is_array() &&
              epoch < static_cast<int>(entries->array.size())
          ? &entries->array[static_cast<std::size_t>(epoch)]
          : nullptr;
  if (want == nullptr) {
    result->op(false, tag + ": no reference entry");
    return;
  }
  const bool ok = matches(plan.phase1_objective, want->num("phase1_objective")) &&
                  matches(plan.phase2_objective, want->num("phase2_objective")) &&
                  matches(plan.availability, want->num("availability"));
  char why[256];
  std::snprintf(why, sizeof(why),
                "%s: got phase1 %.9g phase2 %.9g availability %.9g, "
                "reference %.9g %.9g %.9g",
                tag.c_str(), plan.phase1_objective, plan.phase2_objective,
                plan.availability, want->num("phase1_objective"),
                want->num("phase2_objective"), want->num("availability"));
  result->op(ok, why);
}

void make_reference(const Instance& inst) {
  std::printf("{\"workload\": \"plan-ibm\", \"epochs\": [");
  for (int e = 0; e < kPoolSize; ++e) {
    const Plan plan = run_plan(inst, e, e, nullptr);
    std::printf("%s\n  {\"epoch\": %d, \"optimal\": %s, \"phase1_objective\": %s, "
                "\"phase2_objective\": %s, \"availability\": %s}",
                e == 0 ? "" : ",", e, plan.optimal ? "true" : "false",
                ar::obs::format_double(plan.phase1_objective).c_str(),
                ar::obs::format_double(plan.phase2_objective).c_str(),
                ar::obs::format_double(plan.availability).c_str());
    std::fflush(stdout);
  }
  std::printf("\n]}\n");
}

}  // namespace

void run_plan_ibm(const Options& options, Result* result) {
  // Set-up: topology, scenario set, traffic pool and reference, repeated so
  // the reported set-up time is a median.
  std::vector<double> setup_s;
  Instance inst;
  ar::obs::JsonValue ref;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    inst = make_instance();
    if (!options.make_reference &&
        !read_json(options.reference_dir + "/plan_ibm.json", &ref)) {
      result->check(false, "plan-ibm: reference missing");
      return;
    }
    setup_s.push_back(now_s() - t0);
  }
  if (options.make_reference) {
    make_reference(inst);
    return;
  }

  const std::vector<int> order = permutation(kPoolSize, options.seed);
  std::vector<double> plan_ms;
  std::vector<double> availability;
  std::vector<Plan> traced;
  std::vector<double> traced_ms;
  SolverTally probe_total;
  const double start = now_s();
  for (int k = 0;; ++k) {
    const int epoch = order[static_cast<std::size_t>(k % kPoolSize)];
    if (!options.trace) {
      const Plan plan = run_plan(inst, epoch, k, nullptr);
      std::fprintf(stderr, "plan-ibm: epoch %d: %.1f ms, %lld TE pivots\n", epoch,
                   plan.total_s * 1e3, plan.phase1_pivots + plan.phase2_pivots);
      check_plan(plan, epoch, ref, result);
      plan_ms.push_back(plan.total_s * 1e3);
      availability.push_back(plan.availability);
    } else {
      // Traced run: the same epoch untraced and traced, alternating which
      // goes first; the two must agree exactly.
      Plan plain, with;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (k % 2 == 0)) {
          plain = run_plan(inst, epoch, k, nullptr);
        } else {
          Tracer::global().set_enabled(true);
          SolverProbe probe;
          with = run_plan(inst, epoch, k, &probe);
          probe_total.merge(probe.tally());
          Tracer::global().set_enabled(false);
        }
      }
      check_plan(plain, epoch, ref, result);
      result->check(
          plain.phase1_objective == with.phase1_objective &&
              plain.phase2_objective == with.phase2_objective &&
              plain.availability == with.availability &&
              plain.phase1_pivots == with.phase1_pivots &&
              plain.phase2_pivots == with.phase2_pivots,
          "plan-ibm: traced plan differs from the untraced one");
      result->check(with.probe_phase1_pivots == with.phase1_pivots &&
                        with.probe_phase2_pivots == with.phase2_pivots,
                    "plan-ibm: solver probe pivots differ from TE telemetry");
      plan_ms.push_back(plain.total_s * 1e3);
      traced_ms.push_back(with.total_s * 1e3);
      traced.push_back(with);
    }
    const double elapsed = now_s() - start;
    const double per_op = (elapsed / static_cast<double>(k + 1));
    if (k + 1 >= kMinPlans && elapsed + per_op > options.seconds) break;
  }

  const auto ms = [](double s) { return s * 1e3; };
  double availability_sum = 0.0;
  for (double a : availability) availability_sum += a;
  result->metric("setup_s", "s", quantile(setup_s, 0.5));
  result->metric("peak_rss_mb", "MB", peak_rss_mb());
  result->metric("ok_rate", "ratio", result->ok_rate());
  result->metric("op_ms.p50", "ms", quantile(plan_ms, 0.5));
  result->metric("quality", "ratio",
                 availability.empty()
                     ? 0.0
                     : availability_sum / static_cast<double>(availability.size()));
  std::printf("plan-ibm: %zu plans, plan_s.p50 %.4f s, plan_availability %.6f\n",
              plan_ms.size(), quantile(plan_ms, 0.5) / 1e3,
              result->metrics().at("quality").second);
  if (!options.trace) return;

  const auto median = [&](auto field) {
    std::vector<double> v;
    for (const Plan& p : traced) v.push_back(field(p));
    return quantile(v, 0.5);
  };
  result->metric("te.input_ms", "ms", median([&](const Plan& p) { return ms(p.input_s); }));
  result->metric("te.prepare_ms", "ms", median([&](const Plan& p) { return ms(p.prepare_s); }));
  result->metric("te.cache_ms", "ms", median([&](const Plan& p) { return ms(p.cache_s); }));
  result->metric("te.phase1_ms", "ms", median([&](const Plan& p) { return ms(p.phase1_s); }));
  result->metric("te.phase1.build_ms", "ms",
                 median([&](const Plan& p) { return ms(p.phase1_build_s); }));
  result->metric("te.phase1.pivots", "count",
                 median([](const Plan& p) { return static_cast<double>(p.phase1_pivots); }));
  result->metric("te.phase1.rounds", "count",
                 median([](const Plan& p) { return static_cast<double>(p.phase1_rounds); }));
  result->metric("te.phase1.sub_solves", "count",
                 median([](const Plan& p) { return static_cast<double>(p.phase1_sub_solves); }));
  result->metric("te.phase2_ms", "ms", median([&](const Plan& p) { return ms(p.phase2_s); }));
  result->metric("te.phase2.build_ms", "ms",
                 median([&](const Plan& p) { return ms(p.phase2_build_s); }));
  result->metric("te.phase2.pivots", "count",
                 median([](const Plan& p) { return static_cast<double>(p.phase2_pivots); }));
  result->metric("sim.evaluate_ms", "ms",
                 median([&](const Plan& p) { return ms(p.evaluate_s); }));
  const auto n = static_cast<long long>(traced.size());
  emit_solver_metrics(probe_total, n, result);
  const double overhead = quantile(traced_ms, 0.5) - quantile(plan_ms, 0.5);
  result->metric("trace.overhead_ms", "ms", overhead);
  result->metric("trace.overhead_frac", "ratio", overhead / quantile(plan_ms, 0.5));
  emit_trace(options, n, result);
}

}  // namespace perfbench
