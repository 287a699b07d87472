// Benchmark entry point: runs one workload for a fixed time, checks its outputs,
// prints every metric by name with its unit, and ends with one JSON result
// line.
//
//   perfbench --workload plan-ibm|serve-b4|sweep-b4 --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--make-reference]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. Exit status is 0 only when every
// operation succeeded and every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/json.h"

namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;  // name, unit

// Must list exactly BENCHMARK.json's end_to_end names (run.py checks).
const Catalog kEndToEnd = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"ok_rate", "ratio"},
    {"op_ms.p50", "ms"},  {"quality", "ratio"},
};

// Must list exactly BENCHMARK.json's per_layer names. A layer a workload
// does not exercise reports 0.
Catalog per_layer() {
  Catalog c = {
      {"te.input_ms", "ms"},
      {"te.prepare_ms", "ms"},
      {"te.cache_ms", "ms"},
      {"te.phase1_ms", "ms"},
      {"te.phase1.build_ms", "ms"},
      {"te.phase1.pivots", "count"},
      {"te.phase1.rounds", "count"},
      {"te.phase1.sub_solves", "count"},
      {"te.phase2_ms", "ms"},
      {"te.phase2.build_ms", "ms"},
      {"te.phase2.pivots", "count"},
      {"solver.lps", "count"},
      {"solver.pivots", "count"},
      {"solver.ms_per_pivot", "ms"},
      {"solver.refactorizations", "count"},
      {"solver.feasibility_ms", "ms"},
      {"solver.optimality_ms", "ms"},
      {"solver.warm_frac", "ratio"},
      {"solver.pricing_per_pivot", "count"},
      {"solver.presolve_rows_removed", "count"},
      {"serve.tick_ms.p90", "ms"},
      {"serve.engine_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.query_ms", "ms"},
      {"serve.metrics_ms", "ms"},
      {"serve.read_ms", "ms"},
      {"serve.cut_ms", "ms"},
      {"serve.tick_pivots", "count"},
      {"ctrl.rung.primary", "count"},
      {"ctrl.rung.relaxed-retry", "count"},
      {"ctrl.rung.ffc-fallback", "count"},
      {"ctrl.rung.carry-forward", "count"},
      {"ctrl.rung.ecmp", "count"},
      {"ctrl.solver_timeouts", "count"},
      {"ctrl.journal_writes", "count"},
  };
  for (const char* scheme :
       {"ARROW", "ARROW-Naive", "FFC-1", "FFC-2", "TeaVaR", "ECMP"}) {
    c.emplace_back(std::string("schemes.") + scheme + ".chain_ms", "ms");
    c.emplace_back(std::string("schemes.") + scheme + ".pivots", "count");
  }
  const Catalog tail = {
      {"sim.evaluate_ms", "ms"},
      {"sim.sweep.chain_ms.max", "ms"},
      {"sim.sweep.parallel_eff", "ratio"},
      {"layer.bench.self_ms", "ms"},
      {"layer.te.self_ms", "ms"},
      {"layer.solver.self_ms", "ms"},
      {"layer.schemes.self_ms", "ms"},
      {"layer.sim.self_ms", "ms"},
      {"layer.serve.self_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  c.insert(c.end(), tail.begin(), tail.end());
  return c;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan-ibm|serve-b4|sweep-b4 "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--make-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--make-reference") {
      options.make_reference = true;
    } else {
      return usage();
    }
  }

  // The library reads these at first use: one pool thread (plan-ibm and
  // serve-b4 run single-threaded; sweep-b4 brings its own pool), and none
  // of the journal / basis-store / observability overrides a caller's
  // environment might carry.
  setenv("ARROW_THREADS", "1", 1);
  for (const char* name :
       {"ARROW_JOURNAL_DIR", "ARROW_BASIS_DIR", "ARROW_OBS_DIR", "ARROW_TRACE"}) {
    unsetenv(name);
  }
  std::filesystem::create_directories(options.work_dir);

  perfbench::Result result;
  if (options.workload == "plan-ibm") {
    perfbench::run_plan_ibm(options, &result);
  } else if (options.workload == "serve-b4") {
    perfbench::run_serve_b4(options, &result);
  } else if (options.workload == "sweep-b4") {
    perfbench::run_sweep_b4(options, &result);
  } else {
    return usage();
  }
  if (options.make_reference) return result.correct() ? 0 : 1;

  const Catalog catalog = options.trace ? per_layer() : kEndToEnd;
  arrow::obs::JsonValue metrics;
  metrics.type = arrow::obs::JsonValue::Type::kObject;
  bool complete = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = result.metrics().find(name);
    if (it == result.metrics().end() && !options.trace) complete = false;
    const double value = it == result.metrics().end() ? 0.0 : it->second.second;
    if (it != result.metrics().end() && it->second.first != unit) {
      std::fprintf(stderr, "metric %s: unit %s, catalog says %s\n",
                   name.c_str(), it->second.first.c_str(), unit.c_str());
      complete = false;
    }
    std::printf("  %-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
    arrow::obs::JsonValue entry;
    entry.type = arrow::obs::JsonValue::Type::kObject;
    entry.object["value"].type = arrow::obs::JsonValue::Type::kNumber;
    entry.object["value"].number = value;
    entry.object["unit"].type = arrow::obs::JsonValue::Type::kString;
    entry.object["unit"].str = unit;
    metrics.object[name] = std::move(entry);
  }
  const Catalog layers = per_layer();
  for (const auto& [name, unit_value] : result.metrics()) {
    bool known = false;
    for (const Catalog* c : {&kEndToEnd, &layers}) {
      for (const auto& entry : *c) known = known || entry.first == name;
    }
    if (!known) {
      std::fprintf(stderr, "metric %s is not in the catalog\n", name.c_str());
      complete = false;
    }
  }
  const bool correct = result.correct() && complete && result.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", result.attempted(), result.failed(),
              arrow::obs::json_emit(metrics).c_str());
  return correct ? 0 : 1;
}
