// Reproduces Fig. 15: ARROW TE optimization runtime (Phase I + Phase II
// solve time, model-build excluded) as a function of the number of
// LotteryTickets, per topology. Paper: grows with |Z|; the Facebook topology
// with 120 tickets solves in 104 s on a 32-core EPYC — comfortably inside
// the 5-minute TE deadline. Our absolute numbers differ (our own simplex on
// one laptop core, smaller |Z| grid); the growth trend is the reproduction.
//
// Uses google-benchmark for the timing harness; the per-configuration solve
// times are additionally written to BENCH_fig15_runtime.json (bench_json.h).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;

namespace {

// (key, solve ms) per benchmark configuration, in run order.
std::vector<std::pair<std::string, double>>& json_rows() {
  static std::vector<std::pair<std::string, double>> rows;
  return rows;
}

struct Setup {
  std::unique_ptr<te::TeInput> input;
  te::ArrowParams params;
  te::ArrowPrepared prepared;
};

std::unique_ptr<Setup> make_setup(const topo::Network& net, double cutoff,
                                  int tunnels, int tickets) {
  auto setup = std::make_unique<Setup>();
  util::Rng rng(99);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = cutoff;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = tunnels;
  setup->input = std::make_unique<te::TeInput>(net, ms[0], scenarios, tun);
  setup->input->scale_demands(te::max_satisfiable_scale(*setup->input) * 0.6);
  setup->params.tickets.num_tickets = tickets;
  setup->prepared = te::prepare_arrow(*setup->input, setup->params, rng);
  return setup;
}

void report(benchmark::State& state, const Setup& setup, const char* topo) {
  double solve_seconds = 0.0;
  for (auto _ : state) {
    const auto sol =
        te::solve_arrow(*setup.input, setup.prepared, setup.params);
    benchmark::DoNotOptimize(sol.objective);
    solve_seconds = sol.solve_seconds;  // Phase I + II solve time only
    state.SetIterationTime(sol.solve_seconds);
  }
  state.counters["solve_s"] = solve_seconds;
  json_rows().emplace_back(
      std::string(topo) + "_z" + std::to_string(state.range(0)) + "_solve_ms",
      solve_seconds * 1000.0);
}

void BM_ArrowTe_B4(benchmark::State& state) {
  static const topo::Network net = topo::build_b4();
  const auto setup =
      make_setup(net, 0.001, 8, static_cast<int>(state.range(0)));
  report(state, *setup, "b4");
}

void BM_ArrowTe_IBM(benchmark::State& state) {
  static const topo::Network net = topo::build_ibm();
  const auto setup =
      make_setup(net, 0.001, 8, static_cast<int>(state.range(0)));
  report(state, *setup, "ibm");
}

void BM_ArrowTe_FBsynth(benchmark::State& state) {
  static const topo::Network net = topo::build_fbsynth();
  const auto setup =
      make_setup(net, 0.002, 6, static_cast<int>(state.range(0)));
  report(state, *setup, "fbsynth");
}

}  // namespace

BENCHMARK(BM_ArrowTe_B4)->Arg(1)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_ArrowTe_IBM)->Arg(1)->Arg(5)->Arg(10)->Arg(20)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_ArrowTe_FBsynth)->Arg(1)->Arg(5)->Arg(10)->Arg(120)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::BenchJson out("fig15_runtime");
  out.set("threads", util::default_thread_count());
  for (const auto& [key, ms] : json_rows()) out.set(key, ms);
  out.write();
  return 0;
}
