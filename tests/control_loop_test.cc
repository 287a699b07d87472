// The two control loops over one planning core (ctest label: controller).
//
// run_controller and serve::TickEngine share ctrl::PlanningCore: the
// offline stage, journal, basis store, calibration and the per-period
// degradation ladder. These tests pin that sharing down:
//
//   * a run_controller pin — B4, fixed trace and seed, five schemes — on
//     rung counts, per-matrix pivots, restoration latencies and the bits of
//     availability and lost Gbps-seconds (constants recorded before the
//     core was factored out, so the refactor is byte-identical);
//   * controller/daemon agreement: same seed, no budget, store or journal —
//     every matrix's rung and pivots equal the matching tick's;
//   * every registered scheme runs through both loops and is named in the
//     RunReport;
//   * the drain merges into a shared basis file (save_shared), so a sibling
//     process's entries written mid-run survive.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "schemes/scheme.h"
#include "serve/engine.h"
#include "solver/basis_store.h"
#include "topo/builders.h"
#include "traffic/traffic.h"

namespace arrow {
namespace {

ctrl::ControllerConfig pin_config() {
  ctrl::ControllerConfig config;
  config.horizon_s = 2.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.scenarios.probability_cutoff = 0.002;
  config.demand_scale = 0.5;
  return config;
}

std::vector<traffic::TrafficMatrix> matrices(const topo::Network& net,
                                             int count) {
  util::Rng rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = count;
  return traffic::generate_traffic(net, tp, rng);
}

// The pins describe runs without persistent state from the environment.
void clear_state_env() {
  unsetenv("ARROW_BASIS_DIR");
  unsetenv("ARROW_JOURNAL_DIR");
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct ControllerPin {
  const char* scheme;
  std::array<int, ctrl::kNumRungs> fallback_counts;
  std::vector<long long> pivots_by_matrix;
  std::uint64_t availability_bits;
  std::uint64_t lost_bits;
  std::vector<std::uint64_t> restoration_latency_bits;
  int cuts_with_plan;
};

TEST(ControlLoopPin, RunControllerOutputIsPinned) {
  clear_state_env();
  const topo::Network net = topo::build_b4();
  const auto tms = matrices(net, 2);
  util::Rng trace_rng(2);
  const auto trace =
      ctrl::sample_failure_trace(net, 2.0 * 3600.0, 48.0, trace_rng);
  // avail 0.998657437 / 0.779606283 / 0.845075881 / 0.903668285; 3 cuts.
  const ControllerPin pins[] = {
      {"ARROW", {2, 0, 0, 0, 0}, {786, 806}, 0x3feff500710a9a7dULL,
       0x40eaa072c12de226ULL, {0x4042c66666666666ULL, 0x402900be5c2e0378ULL},
       2},
      {"ARROW-Naive", {2, 0, 0, 0, 0}, {356, 336}, 0x3feff500710a9a7dULL,
       0x40eaa072c12de226ULL, {0x4042c66666666666ULL, 0x402900be5c2e0378ULL},
       2},
      {"FFC-1", {2, 0, 0, 0, 0}, {658, 675}, 0x3fe8f288e0662475ULL,
       0x4161130501eaf8a4ULL, {}, 0},
      {"TeaVaR", {2, 0, 0, 0, 0}, {2237, 2499}, 0x3feb0adc9313af24ULL,
       0x41580126b39c63d4ULL, {}, 0},
      {"ECMP", {2, 0, 0, 0, 0}, {0, 0}, 0x3fecead9c02fcdbfULL,
       0x414dda1a1806a1eaULL, {}, 0},
  };
  for (const ControllerPin& pin : pins) {
    ctrl::ControllerConfig config = pin_config();
    config.scheme = pin.scheme;
    util::Rng rng(3);
    const auto r = ctrl::run_controller(net, tms, trace, config, rng);
    EXPECT_EQ(r.fallback_counts, pin.fallback_counts) << pin.scheme;
    EXPECT_EQ(r.simplex_iterations_by_matrix, pin.pivots_by_matrix)
        << pin.scheme;
    EXPECT_EQ(bits(r.availability()), pin.availability_bits)
        << pin.scheme << " availability " << r.availability();
    EXPECT_EQ(bits(r.lost_gbps_seconds), pin.lost_bits)
        << pin.scheme << " lost " << r.lost_gbps_seconds;
    std::vector<std::uint64_t> latency_bits;
    for (double s : r.restoration_latency_s) latency_bits.push_back(bits(s));
    EXPECT_EQ(latency_bits, pin.restoration_latency_bits) << pin.scheme;
    EXPECT_EQ(r.cuts_with_plan, pin.cuts_with_plan) << pin.scheme;
    EXPECT_EQ(r.run_report.scheme, pin.scheme);
  }
}

// Both loops solve each period through the same core, so with the same
// seed and no wall-clock budget, basis store or journal, matrix m of
// run_controller and tick m+1 of the daemon must land on the same rung with
// the same pivots. The pivots were recorded on the loops before they shared
// a core (B4, seed 11): agreement is what both always did, not an accident
// of sharing code.
TEST(ControlLoopAgreement, ControllerAndDaemonSolveEachMatrixAlike) {
  clear_state_env();
  const topo::Network net = topo::build_b4();
  const auto tms = matrices(net, 3);
  const std::pair<const char*, std::vector<long long>> recorded[] = {
      {"ARROW", {764, 736, 772}},   {"ARROW-Naive", {339, 312, 315}},
      {"FFC-1", {680, 682, 689}},   {"TeaVaR", {2037, 1455, 2234}},
      {"ECMP", {0, 0, 0}},
  };
  for (const auto& [scheme, pivots] : recorded) {
    ctrl::ControllerConfig config = pin_config();
    config.scheme = scheme;
    config.te_budget_s = 0.0;
    util::Rng rng(11);
    const auto r = ctrl::run_controller(net, tms, {}, config, rng);
    EXPECT_EQ(r.simplex_iterations_by_matrix, pivots) << scheme;
    ASSERT_EQ(r.rung_by_matrix.size(), tms.size());

    serve::EngineConfig engine_config;
    engine_config.ctrl = config;
    engine_config.seed = 11;
    serve::TickEngine engine(engine_config);
    ASSERT_TRUE(engine.set_topology(net).ok);
    long long pivots_before = 0;
    for (std::size_t m = 0; m < tms.size(); ++m) {
      const auto tick = engine.tick(tms[m]);
      ASSERT_TRUE(tick.ok) << tick.error;
      const long long pivots_now = engine.report().simplex_iterations;
      EXPECT_EQ(tick.rung, r.rung_by_matrix[m]) << scheme << " matrix " << m;
      EXPECT_EQ(pivots_now - pivots_before, r.simplex_iterations_by_matrix[m])
          << scheme << " matrix " << m;
      pivots_before = pivots_now;
    }
    engine.drain();
  }
}

// Every registered scheme — FFC-2, PXT and ReWeave-Local included — runs
// through both loops, lands every period on a rung, and names itself in
// the RunReport.
TEST(ControlLoopSchemes, EveryRegisteredSchemeRunsThroughBothLoops) {
  clear_state_env();
  const topo::Network net = topo::build_b4();
  const auto tms = matrices(net, 2);
  util::Rng trace_rng(5);
  const auto trace =
      ctrl::sample_failure_trace(net, 2.0 * 3600.0, 24.0, trace_rng);
  for (const std::string& scheme : schemes::Registry::global().names()) {
    ctrl::ControllerConfig config = pin_config();
    config.scheme = scheme;
    util::Rng rng(3);
    const auto r = ctrl::run_controller(net, tms, trace, config, rng);
    int landed = 0;
    for (int count : r.fallback_counts) landed += count;
    EXPECT_EQ(r.te_runs, static_cast<int>(tms.size())) << scheme;
    EXPECT_EQ(landed, r.te_runs) << scheme;
    EXPECT_EQ(r.run_report.scheme, scheme);

    serve::EngineConfig engine_config;
    engine_config.ctrl = config;
    serve::TickEngine engine(engine_config);
    ASSERT_TRUE(engine.set_topology(net).ok) << scheme;
    for (const auto& tm : tms) {
      const auto tick = engine.tick(tm);
      ASSERT_TRUE(tick.ok) << scheme << ": " << tick.error;
    }
    ASSERT_TRUE(engine.cut(0).ok) << scheme;
    const obs::RunReport rr = engine.report();
    EXPECT_EQ(rr.scheme, scheme);
    EXPECT_EQ(rr.te_runs, static_cast<int>(tms.size())) << scheme;
    int ticks_landed = 0;
    for (const auto& [rung, count] : rr.ladder) ticks_landed += count;
    EXPECT_EQ(ticks_landed, rr.te_runs) << scheme;
    EXPECT_EQ(rr.cuts_handled, 1) << scheme;
    engine.drain();
  }
}

TEST(ControlLoopSchemes, UnknownSchemeListsTheRegisteredNames) {
  clear_state_env();
  const topo::Network net = topo::build_testbed();
  ctrl::ControllerConfig config = pin_config();
  config.scheme = "B4-TE";
  util::Rng rng(3);
  try {
    ctrl::run_controller(net, matrices(net, 1), {}, config, rng);
    FAIL() << "unknown scheme accepted";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              schemes::Registry::global().unknown_message("B4-TE"));
  }
}

// Regression: run_controller used to write its basis file with plain
// BasisStore::save, so two processes sharing one basis_dir dropped each
// other's entries (last writer wins). A sibling's save_shared lands mid-run
// here (from the cancel poll, which runs once per matrix); the drain must
// merge around it.
TEST(ControlLoopStore, SiblingBasisEntriesSurviveTheDrain) {
  clear_state_env();
  const std::string dir =
      ::testing::TempDir() + "arrow_control_loop_sibling_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string file = solver::BasisStore::file_in(dir);
  const topo::Network net = topo::build_b4();

  ctrl::ControllerConfig config = pin_config();
  config.scheme = "FFC-1";
  config.basis_dir = dir;
  const solver::BasisStore::Key sibling_key{0xdeadULL, 0xbeefULL, 3, 3};
  bool sibling_saved = false;
  config.cancel = [&] {
    if (!sibling_saved) {
      solver::BasisStore sibling;
      solver::Basis basis;
      basis.status.assign(3, solver::BasisStatus::kBasic);
      sibling.store(sibling_key, basis);
      EXPECT_TRUE(sibling.save_shared(file));
      sibling_saved = true;
    }
    return false;
  };
  util::Rng rng(3);
  const auto r = ctrl::run_controller(net, matrices(net, 2), {}, config, rng);
  ASSERT_TRUE(sibling_saved);
  EXPECT_GT(r.basis_absorbed, 0);
  EXPECT_EQ(r.basis_save_errors, 0);

  solver::BasisStore after;
  ASSERT_TRUE(after.load(file));
  solver::Basis out;
  EXPECT_TRUE(after.load(sibling_key, &out)) << "sibling entry dropped";
  EXPECT_GT(after.size(), 1u);  // and the run's own bases landed too
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace arrow
