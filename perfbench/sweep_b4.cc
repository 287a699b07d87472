// sweep-b4: sim::run_sweep on B4 — the six legacy schemes x 8 demand scales
// x 2 traffic matrices, warm-start chains on, on a pool of two threads.
//
// The matrix pairs come from a fixed pool, small enough that a run sweeps
// all of it, so runs do the same work; the seed picks the order. Every
// sweep's availability curves are checked against the committed reference
// for its pair. The traced run re-drives
// each chain through the public calls run_sweep makes (TeInput, calibration,
// prepare_arrow, RestorabilityCache, then per chain a registry scheme's
// solve + evaluate under a ScopedWarmStartCache), with spans around each,
// and requires the re-driven curves to equal run_sweep's bit for bit.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "schemes/scheme.h"
#include "sim/availability.h"
#include "sim/sweep.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace ar = arrow;

namespace {

constexpr int kPairs = 3;  // about what one run sweeps
constexpr std::uint64_t kTrafficSeed = 2021;
constexpr std::uint64_t kScenarioSeed = 1;
constexpr std::uint64_t kSweepSeed = 11;
constexpr int kThreads = 2;
constexpr int kMinSweeps = 2;
constexpr int kSetups = 101;  // sub-millisecond each: many, for a steady median
constexpr double kTarget = 0.999;  // availability target of the max scale

struct Instance {
  ar::topo::Network net;
  std::vector<ar::scenario::Scenario> scenarios;
  std::vector<ar::traffic::TrafficMatrix> pool;  // pair p = (2p, 2p + 1)
  ar::sim::SweepParams params;
};

Instance make_instance() {
  Instance inst;
  inst.net = ar::topo::build_b4();
  ar::util::Rng srng(kScenarioSeed);
  ar::scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  inst.scenarios = ar::scenario::remove_disconnecting(
      inst.net, ar::scenario::generate_scenarios(inst.net, sp, srng).scenarios);
  ar::util::Rng trng(kTrafficSeed);
  ar::traffic::TrafficParams tp;
  tp.num_matrices = 2 * kPairs;
  inst.pool = ar::traffic::generate_traffic(inst.net, tp, trng);
  inst.params.scales = {0.05, 0.1, 0.15, 0.22, 0.32, 0.45, 0.65, 0.9};
  inst.params.tunnels.tunnels_per_flow = 8;
  inst.params.arrow.tickets.num_tickets = 10;
  inst.params.warm_start = true;
  return inst;
}

std::vector<ar::traffic::TrafficMatrix> pair_matrices(const Instance& inst, int p) {
  return {inst.pool[static_cast<std::size_t>(2 * p)],
          inst.pool[static_cast<std::size_t>(2 * p + 1)]};
}

// The re-driven sweep's curves plus what each chain cost.
struct Redrive {
  ar::sim::SweepResult result;
  double wall_s = 0.0;
  double input_s = 0.0, prepare_s = 0.0, cache_s = 0.0, evaluate_s = 0.0;
  std::vector<std::string> chain_scheme;
  std::vector<double> chain_s;
  std::vector<long long> chain_pivots;
  long long chain_probe_pivots = 0;  // what the chains' solver probes saw
  SolverTally solver;
};

// Mirror of sim::run_sweep built from its public calls, with spans.
Redrive redrive(const Instance& inst, int p, long long group,
                ar::util::ThreadPool& pool) {
  const auto& params = inst.params;
  const auto& registry = ar::schemes::Registry::global();
  Redrive rd;
  SolverProbe probe;  // this thread's LPs; each chain installs its own
  const double t_start = now_s();
  Span root("bench.sweep", group);
  ar::util::Rng rng(kSweepSeed + static_cast<std::uint64_t>(p));
  const auto matrices = pair_matrices(inst, p);
  ar::sim::SweepResult& result = rd.result;
  result.scales = params.scales;
  result.schemes = {"ARROW", "ARROW-Naive", "FFC-1", "FFC-2", "TeaVaR", "ECMP"};
  ar::schemes::SchemeOptions options;
  options.arrow = params.arrow;
  options.teavar = params.teavar;
  options.ffc2_max_double_scenarios = params.ffc2_max_double_scenarios;
  options.reweave = params.reweave;
  options.pxt = params.pxt;
  bool needs_prepared = false;
  for (const auto& s : result.schemes) {
    result.availability[s].assign(params.scales.size(), 0.0);
    result.throughput[s].assign(params.scales.size(), 0.0);
    result.simplex_iterations[s] = 0;
    result.solve_failures[s].assign(params.scales.size(), 0);
    if (registry.capabilities(s).needs_prepared) needs_prepared = true;
  }

  const int M = static_cast<int>(matrices.size());
  std::vector<ar::te::TeInput> inputs;
  std::vector<ar::te::ArrowPrepared> prepared(static_cast<std::size_t>(M));
  std::vector<std::optional<ar::te::RestorabilityCache>> caches(
      static_cast<std::size_t>(M));
  for (int mi = 0; mi < M; ++mi) {
    const auto m = static_cast<std::size_t>(mi);
    double t = now_s();
    std::optional<ar::te::TeInput> input;
    {
      Span s("te.input");
      input.emplace(inst.net, matrices[m], inst.scenarios, params.tunnels);
      input->scale_demands(ar::te::max_satisfiable_scale(*input));
    }
    rd.input_s += now_s() - t;
    if (needs_prepared) {
      t = now_s();
      {
        Span s("te.prepare");
        prepared[m] = ar::te::prepare_arrow(*input, params.arrow, rng, pool);
      }
      rd.prepare_s += now_s() - t;
      t = now_s();
      {
        Span s("te.cache");
        caches[m].emplace(*input, prepared[m], pool);
      }
      rd.cache_s += now_s() - t;
    }
    inputs.push_back(std::move(*input));
  }

  struct ChainOut {
    std::vector<double> availability, throughput;
    std::vector<char> failed;
    long long iterations = 0;
    double seconds = 0.0, evaluate_s = 0.0;
    ar::sim::RepairStats repairs;
    SolverTally solver;
  };
  std::vector<std::pair<int, std::string>> jobs;
  for (int mi = 0; mi < M; ++mi) {
    for (const auto& scheme : result.schemes) jobs.emplace_back(mi, scheme);
  }
  std::vector<ChainOut> outs(jobs.size());
  const int root_id = root.id();
  pool.parallel_for(0, static_cast<int>(jobs.size()), [&](int ji) {
    const auto& [mi, name] = jobs[static_cast<std::size_t>(ji)];
    ChainOut& out = outs[static_cast<std::size_t>(ji)];
    const double t0 = now_s();
    Span chain("bench.chain", group * 100 + ji, root_id);
    SolverProbe chain_probe;
    out.availability.assign(params.scales.size(), 0.0);
    out.throughput.assign(params.scales.size(), 0.0);
    out.failed.assign(params.scales.size(), 0);
    const auto scheme = registry.create(name, options);
    const bool repair_aware = scheme->capabilities().supports_local_repair;
    ar::te::TeInput input = inputs[static_cast<std::size_t>(mi)];
    const ar::te::ArrowPrepared& prep = prepared[static_cast<std::size_t>(mi)];
    const auto& mcache = caches[static_cast<std::size_t>(mi)];
    const ar::te::RestorabilityCache* rcache = mcache ? &*mcache : nullptr;
    ar::util::ThreadPool chain_pool(1);
    ar::solver::ScopedWarmStartCache warm;
    double prev_scale = 1.0;
    for (std::size_t si = 0; si < params.scales.size(); ++si) {
      input.scale_demands(params.scales[si] / prev_scale);
      prev_scale = params.scales[si];
      std::optional<ar::te::TeSolution> sol;
      {
        Span s("schemes.solve");
        sol.emplace(scheme->solve(input, prep, chain_pool, rcache));
      }
      out.iterations += sol->simplex_iterations;
      if (!sol->optimal) {
        out.failed[si] = 1;
        continue;
      }
      const double te0 = now_s();
      Span s("sim.evaluate");
      const ar::sim::Evaluation eval =
          repair_aware
              ? ar::sim::evaluate_with_repairs(input, *sol, *scheme, &out.repairs)
              : ar::sim::evaluate(input, *sol);
      out.evaluate_s += now_s() - te0;
      out.availability[si] = eval.availability;
      out.throughput[si] = eval.throughput;
    }
    out.solver = chain_probe.tally();
    out.seconds = now_s() - t0;
  });

  // Merge in job order, exactly as run_sweep does.
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    const std::string& name = jobs[ji].second;
    const ChainOut& out = outs[ji];
    for (std::size_t si = 0; si < params.scales.size(); ++si) {
      result.availability[name][si] += out.availability[si];
      result.throughput[name][si] += out.throughput[si];
      result.solve_failures[name][si] += out.failed[si];
    }
    result.simplex_iterations[name] += out.iterations;
    rd.chain_scheme.push_back(name);
    rd.chain_s.push_back(out.seconds);
    rd.chain_pivots.push_back(out.iterations);
    rd.evaluate_s += out.evaluate_s;
    rd.chain_probe_pivots += out.solver.pivots;
    rd.solver.merge(out.solver);
  }
  for (auto* curves : {&result.availability, &result.throughput}) {
    for (auto& [scheme, values] : *curves) {
      const auto& fails = result.solve_failures[scheme];
      for (std::size_t si = 0; si < values.size(); ++si) {
        const int ok = M - fails[si];
        values[si] = ok > 0 ? values[si] / ok : 0.0;
      }
    }
  }
  rd.solver.merge(probe.tally());
  rd.wall_s = now_s() - t_start;
  return rd;
}

// Checks one sweep against the reference entry for its pair; every
// (scheme, scale, matrix) solve is one operation.
void check_sweep(const ar::sim::SweepResult& got, int p,
                 const ar::obs::JsonValue& ref, Result* result) {
  const ar::obs::JsonValue* pairs = ref.find("pairs");
  const ar::obs::JsonValue* want =
      pairs != nullptr && pairs->is_array() &&
              p < static_cast<int>(pairs->array.size())
          ? pairs->array[static_cast<std::size_t>(p)].find("availability")
          : nullptr;
  for (const auto& scheme : got.schemes) {
    const auto& curve = got.availability.at(scheme);
    const auto& fails = got.solve_failures.at(scheme);
    const ar::obs::JsonValue* w = want != nullptr ? want->find(scheme) : nullptr;
    for (std::size_t si = 0; si < curve.size(); ++si) {
      const bool match = w != nullptr && w->is_array() &&
                         si < w->array.size() &&
                         matches(curve[si], w->array[si].number);
      for (int mi = 0; mi < 2; ++mi) {
        const bool solved = mi >= fails[si];
        char why[200];
        std::snprintf(why, sizeof(why),
                      "sweep-b4 pair %d %s scale %zu: %s", p, scheme.c_str(),
                      si, solved ? "availability differs from the reference"
                                 : "solve not optimal");
        result->op(solved && match, why);
      }
    }
  }
  result->check(got.total_solve_failures() == 0,
                "sweep-b4: total_solve_failures() != 0");
}

void make_reference(const Instance& inst, ar::util::ThreadPool& pool) {
  std::printf("{\"workload\": \"sweep-b4\", \"pairs\": [");
  for (int p = 0; p < kPairs; ++p) {
    ar::util::Rng rng(kSweepSeed + static_cast<std::uint64_t>(p));
    const auto res = ar::sim::run_sweep(inst.net, pair_matrices(inst, p),
                                        inst.scenarios, inst.params, rng, pool);
    std::printf("%s\n  {\"pair\": %d, \"failures\": %lld, "
                "\"arrow_max_scale\": %s, \"availability\": {",
                p == 0 ? "" : ",", p, res.total_solve_failures(),
                ar::obs::format_double(res.max_scale_at("ARROW", kTarget)).c_str());
    bool first = true;
    for (const auto& scheme : res.schemes) {
      std::printf("%s\"%s\": [", first ? "" : ", ", scheme.c_str());
      first = false;
      const auto& curve = res.availability.at(scheme);
      for (std::size_t si = 0; si < curve.size(); ++si) {
        std::printf("%s%s", si == 0 ? "" : ", ",
                    ar::obs::format_double(curve[si]).c_str());
      }
      std::printf("]");
    }
    std::printf("}}");
    std::fflush(stdout);
  }
  std::printf("\n]}\n");
}

}  // namespace

void run_sweep_b4(const Options& options, Result* result) {
  std::vector<double> setup_s;
  Instance inst;
  ar::obs::JsonValue ref;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    inst = make_instance();
    if (!options.make_reference &&
        !read_json(options.reference_dir + "/sweep_b4.json", &ref)) {
      result->check(false, "sweep-b4: reference missing");
      return;
    }
    setup_s.push_back(now_s() - t0);
  }
  ar::util::ThreadPool pool(kThreads);
  if (options.make_reference) {
    make_reference(inst, pool);
    return;
  }

  const std::vector<int> order = permutation(kPairs, options.seed);
  std::vector<double> sweep_ms, traced_ms, max_scale;
  std::vector<Redrive> traced;
  const double start = now_s();
  for (int k = 0;; ++k) {
    const int p = order[static_cast<std::size_t>(k % kPairs)];
    // Traced runs re-drive the same pair too, alternating which goes first.
    std::optional<Redrive> rd;
    const auto traced_side = [&] {
      Tracer::global().set_enabled(true);
      rd.emplace(redrive(inst, p, k, pool));
      Tracer::global().set_enabled(false);
    };
    if (options.trace && k % 2 == 1) traced_side();
    ar::util::Rng rng(kSweepSeed + static_cast<std::uint64_t>(p));
    const double t0 = now_s();
    const ar::sim::SweepResult res = ar::sim::run_sweep(
        inst.net, pair_matrices(inst, p), inst.scenarios, inst.params, rng, pool);
    sweep_ms.push_back((now_s() - t0) * 1e3);
    std::fprintf(stderr, "sweep-b4: pair %d swept in %.1f ms\n", p, sweep_ms.back());
    check_sweep(res, p, ref, result);
    max_scale.push_back(res.max_scale_at("ARROW", kTarget));
    if (options.trace) {
      if (k % 2 == 0) traced_side();
      result->check(rd->result.availability == res.availability &&
                        rd->result.throughput == res.throughput &&
                        rd->result.solve_failures == res.solve_failures &&
                        rd->result.simplex_iterations == res.simplex_iterations,
                    "sweep-b4: re-driven chains differ from run_sweep");
      long long sweep_pivots = 0;
      for (const auto& [scheme, n] : res.simplex_iterations) sweep_pivots += n;
      result->check(rd->chain_probe_pivots == sweep_pivots,
                    "sweep-b4: solver probe pivots differ from run_sweep's");
      traced_ms.push_back(rd->wall_s * 1e3);
      traced.push_back(std::move(*rd));
    }
    const double elapsed = now_s() - start;
    const double per_op = elapsed / static_cast<double>(k + 1);
    if (k + 1 >= kMinSweeps && elapsed + per_op > options.seconds) break;
  }

  double scale_sum = 0.0;
  for (double s : max_scale) scale_sum += s;
  result->metric("setup_s", "s", quantile(setup_s, 0.5));
  result->metric("peak_rss_mb", "MB", peak_rss_mb());
  result->metric("ok_rate", "ratio", result->ok_rate());
  result->metric("op_ms.p50", "ms", quantile(sweep_ms, 0.5));
  result->metric("quality", "ratio", scale_sum / static_cast<double>(max_scale.size()));
  std::printf("sweep-b4: %zu sweeps, sweep_s %.4f s, arrow_max_scale.99.9 %.5f\n",
              sweep_ms.size(), quantile(sweep_ms, 0.5) / 1e3,
              result->metrics().at("quality").second);
  if (!options.trace) return;

  // Per-layer metrics, per sweep (medians over the traced sweeps).
  const auto median = [&](auto field) {
    std::vector<double> v;
    for (const Redrive& rd : traced) v.push_back(field(rd));
    return quantile(v, 0.5);
  };
  result->metric("te.input_ms", "ms", median([](const Redrive& r) { return r.input_s * 1e3; }));
  result->metric("te.prepare_ms", "ms", median([](const Redrive& r) { return r.prepare_s * 1e3; }));
  result->metric("te.cache_ms", "ms", median([](const Redrive& r) { return r.cache_s * 1e3; }));
  result->metric("sim.evaluate_ms", "ms",
                 median([](const Redrive& r) { return r.evaluate_s * 1e3; }));
  for (const auto& scheme : traced.front().result.schemes) {
    const auto sum = [&](const Redrive& r, bool pivots) {
      double total = 0.0;
      for (std::size_t c = 0; c < r.chain_scheme.size(); ++c) {
        if (r.chain_scheme[c] != scheme) continue;
        total += pivots ? static_cast<double>(r.chain_pivots[c]) : r.chain_s[c] * 1e3;
      }
      return total;
    };
    result->metric("schemes." + scheme + ".chain_ms", "ms",
                   median([&](const Redrive& r) { return sum(r, false); }));
    result->metric("schemes." + scheme + ".pivots", "count",
                   median([&](const Redrive& r) { return sum(r, true); }));
  }
  result->metric("sim.sweep.chain_ms.max", "ms", median([](const Redrive& r) {
                   return quantile(r.chain_s, 1.0) * 1e3;
                 }));
  result->metric("sim.sweep.parallel_eff", "ratio", median([](const Redrive& r) {
                   double total = 0.0;
                   for (double s : r.chain_s) total += s;
                   return total / (kThreads * r.wall_s);
                 }));
  SolverTally solver;
  for (const Redrive& rd : traced) solver.merge(rd.solver);
  const auto n = static_cast<long long>(traced.size());
  emit_solver_metrics(solver, n, result);
  const double overhead = quantile(traced_ms, 0.5) - quantile(sweep_ms, 0.5);
  result->metric("trace.overhead_ms", "ms", overhead);
  result->metric("trace.overhead_frac", "ratio", overhead / quantile(sweep_ms, 0.5));
  emit_trace(options, n, result);
}

}  // namespace perfbench
