#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  arrow::util::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

// ---- Tracer -----------------------------------------------------------------

namespace {

struct OpenSpan {
  int id;
  long long group;
};

thread_local std::vector<OpenSpan> t_open;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::current() { return t_open.empty() ? -1 : t_open.back().id; }

long long Tracer::current_group() {
  return t_open.empty() ? -1 : t_open.back().group;
}

int Tracer::open(const std::string& name, long long group, int parent) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent >= 0 ? parent : current();
  rec.group = group >= 0 ? group : current_group();
  rec.tid = thread_index();
  rec.start_s = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.id = static_cast<int>(spans_.size());
    spans_.push_back(rec);
  }
  t_open.push_back({rec.id, rec.group});
  return rec.id;
}

void Tracer::close(int id) {
  const double t = now_s();
  if (!t_open.empty() && t_open.back().id == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

void Tracer::adopt_remote(int parent, long long group) {
  remote_parent_ = parent;
  remote_group_ = group;
}

void Tracer::record(const std::string& name, double start_s, double end_s) {
  SpanRecord rec;
  rec.name = name;
  rec.start_s = start_s;
  rec.end_s = end_s;
  const bool local = !t_open.empty();
  rec.parent = local ? current() : remote_parent_.load();
  rec.group = local ? current_group() : remote_group_.load();
  rec.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  rec.id = static_cast<int>(spans_.size());
  spans_.push_back(rec);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const auto us = [&](double t) {
      return static_cast<long long>(std::llround((t - epoch_s_) * 1e6));
    };
    out << (i == 0 ? "" : ",") << "\n{\"name\":\""
        << arrow::obs::json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.tid << ",\"ts\":" << us(s.start_s)
        << ",\"dur\":" << us(s.end_s) - us(s.start_s)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::layer_self_s() const {
  const auto all = spans();
  std::vector<std::vector<int>> children(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(s.id);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> cover;
    for (int c : children[static_cast<std::size_t>(s.id)]) {
      const SpanRecord& k = all[static_cast<std::size_t>(c)];
      const double lo = std::max(s.start_s, k.start_s);
      const double hi = std::min(s.end_s, k.end_s);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

Span::Span(const char* name, long long group, int parent) {
  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) id_ = tracer.open(name, group, parent);
}

Span::~Span() {
  if (id_ >= 0) Tracer::global().close(id_);
}

// ---- SolverProbe --------------------------------------------------------------

void SolverTally::add(const arrow::solver::LpSolution& sol) {
  ++lps;
  pivots += sol.iterations;
  refactorizations += sol.refactorizations;
  warm += sol.warm_started ? 1 : 0;
  presolve_rows_removed += sol.presolve_rows_removed;
  pricing_candidates += sol.pricing_candidates;
  feasibility_s += sol.phase1_seconds;
  optimality_s += sol.phase2_seconds;
}

void SolverTally::merge(const SolverTally& o) {
  lps += o.lps;
  pivots += o.pivots;
  refactorizations += o.refactorizations;
  warm += o.warm;
  presolve_rows_removed += o.presolve_rows_removed;
  pricing_candidates += o.pricing_candidates;
  feasibility_s += o.feasibility_s;
  optimality_s += o.optimality_s;
}

SolverProbe::SolverProbe()
    : observer_([this](const arrow::solver::Lp& /*lp*/,
                       const arrow::solver::LpSolution& sol) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          tally_.add(sol);
          since_take_.add(sol);
        }
        Tracer& tracer = Tracer::global();
        if (tracer.enabled()) {
          const double end = now_s();
          tracer.record("solver.lp",
                        end - (sol.phase1_seconds + sol.phase2_seconds), end);
        }
      }) {}

SolverProbe::~SolverProbe() = default;

SolverTally SolverProbe::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

SolverTally SolverProbe::take() {
  std::lock_guard<std::mutex> lock(mu_);
  SolverTally out = since_take_;
  since_take_ = SolverTally{};
  return out;
}

// ---- Result -------------------------------------------------------------------

void Result::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
}

void Result::check(bool ok, const std::string& why) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

void Result::metric(const std::string& name, const std::string& unit,
                    double value) {
  metrics_[name] = {unit, value};
}

double Result::ok_rate() const {
  if (attempted_ == 0) return 1.0;
  return 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void emit_solver_metrics(const SolverTally& t, long long ops, Result* result) {
  const double n = static_cast<double>(std::max(1LL, ops));
  const double pivots = static_cast<double>(std::max(1LL, t.pivots));
  result->metric("solver.lps", "count", static_cast<double>(t.lps) / n);
  result->metric("solver.pivots", "count", static_cast<double>(t.pivots) / n);
  result->metric("solver.ms_per_pivot", "ms",
                 t.pivots > 0
                     ? (t.feasibility_s + t.optimality_s) * 1e3 / pivots
                     : 0.0);
  result->metric("solver.refactorizations", "count",
                 static_cast<double>(t.refactorizations) / n);
  result->metric("solver.feasibility_ms", "ms", t.feasibility_s * 1e3 / n);
  result->metric("solver.optimality_ms", "ms", t.optimality_s * 1e3 / n);
  result->metric("solver.warm_frac", "ratio",
                 t.lps > 0 ? static_cast<double>(t.warm) /
                                 static_cast<double>(t.lps)
                           : 0.0);
  result->metric("solver.pricing_per_pivot", "count",
                 t.pivots > 0 ? static_cast<double>(t.pricing_candidates) /
                                    pivots
                              : 0.0);
  result->metric("solver.presolve_rows_removed", "count",
                 static_cast<double>(t.presolve_rows_removed) / n);
}

void emit_trace(const Options& options, long long ops, Result* result) {
  const Tracer& tracer = Tracer::global();
  const double n = static_cast<double>(std::max(1LL, ops));
  const auto self = tracer.layer_self_s();
  for (const char* layer : {"bench", "te", "solver", "schemes", "sim", "serve"}) {
    const auto it = self.find(layer);
    result->metric(std::string("layer.") + layer + ".self_ms", "ms",
                   it == self.end() ? 0.0 : it->second * 1e3 / n);
  }
  result->metric("trace.spans", "count",
                 static_cast<double>(tracer.spans().size()));
  const std::string path =
      options.work_dir + "/trace_" + options.workload + ".json";
  if (tracer.write_chrome(path)) {
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "trace: could not write %s\n", path.c_str());
  }
}

bool matches(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool read_json(const std::string& path, arrow::obs::JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!arrow::obs::json_parse(buf.str(), out, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
