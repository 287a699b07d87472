// serve-b4: the resident daemon (`arrowctl serve`) on B4, driven closed-loop
// over its Unix socket by one client connection.
//
// The server runs in-process on its own thread (global pool of one thread,
// so two threads in all). Set-up loads the topology and sends the first
// tick, which pays for the engine's offline stage. The measured stream then
// sends NDJSON ticks over a cycle of diurnal matrices;
// after each tick come 4 `query` reads and 1 `metrics` read, and every 10
// ticks a `cut`/`repair` pair. The journal and the basis store are on, and
// the per-tick budget is generous, so every tick should land on the primary
// rung.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/report.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "topo/builders.h"
#include "topo/io.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace perfbench {

namespace ar = arrow;

namespace {

constexpr double kBudgetS = 20.0;  // primary rung gets half
constexpr std::uint64_t kTrafficSeed = 2021;
constexpr int kDiurnalEpochs = 6;
constexpr int kQueriesPerTick = 4;
constexpr int kCutEvery = 10;
constexpr int kSetups = 3;
constexpr int kMinTicks = 5;

// One NDJSON connection: send a line, read the reply line.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_to(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  // Sends `line` (newline appended) and returns the reply without its
  // newline; empty when the connection failed.
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return {};
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Reply {
  bool ok = false;
  ar::obs::JsonValue body;
  double rtt_s = 0.0;
};

// A daemon instance: engine, server thread, one client connection.
class Session {
 public:
  Session(const Options& options, int index, bool traced) : traced_(traced) {
    const std::string base = options.work_dir + "/serve-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(index);
    state_dir_ = base + "-state";
    socket_path_ = base + ".sock";
    std::filesystem::remove_all(state_dir_);
    std::filesystem::create_directories(state_dir_);
  }

  ~Session() {
    stop();
    std::filesystem::remove_all(state_dir_);
  }

  bool start() {
    ar::serve::EngineConfig config;
    config.ctrl.te_budget_s = kBudgetS;
    // `arrowctl serve --journal DIR --basis DIR`: crash journal on, and
    // each tick warm-starts from the previous tick's bases. The directory
    // is fresh, so every session starts cold.
    config.ctrl.journal_dir = state_dir_;
    config.ctrl.basis_dir = state_dir_;
    engine_ = std::make_unique<ar::serve::TickEngine>(config);
    ar::serve::ServerConfig sc;
    sc.unix_path = socket_path_;
    server_ = std::make_unique<ar::serve::Server>(*engine_, sc);
    if (!server_->start()) {
      std::fprintf(stderr, "serve-b4: %s\n", server_->error().c_str());
      return false;
    }
    std::promise<SolverProbe*> ready;
    std::future<SolverProbe*> probe = ready.get_future();
    thread_ = std::thread([this, ready = std::move(ready)]() mutable {
      // The probe must live on the thread that runs the solves.
      std::optional<SolverProbe> local;
      if (traced_) local.emplace();
      ready.set_value(local ? &*local : nullptr);
      try {
        server_->run();
      } catch (const std::exception& e) {
        // The client sees the dropped connection as failed requests.
        std::fprintf(stderr, "serve-b4: server stopped: %s\n", e.what());
      }
    });
    probe_ = probe.get();
    running_ = true;
    return client_.connect_to(socket_path_);
  }

  Reply call(const std::string& line, const char* span, long long group) {
    Reply r;
    Span s(span, group);
    if (s.id() >= 0) Tracer::global().adopt_remote(s.id(), group);
    const double t0 = now_s();
    const std::string text = client_.call(line);
    r.rtt_s = now_s() - t0;
    if (s.id() >= 0) Tracer::global().adopt_remote(-1, -1);
    r.ok = !text.empty() && ar::obs::json_parse(text, &r.body) &&
           r.body.find("ok") != nullptr && r.body.find("ok")->boolean;
    return r;
  }

  // Sends shutdown and waits for the drain.
  void stop() {
    if (!running_) return;
    client_.call("{\"op\": \"shutdown\"}");
    server_->request_stop();  // in case the connection is gone
    thread_.join();
    running_ = false;
  }

  ar::serve::TickEngine& engine() { return *engine_; }
  SolverProbe* probe() { return probe_; }

 private:
  bool traced_;
  std::string state_dir_;  // journal and basis store
  std::string socket_path_;
  std::unique_ptr<ar::serve::TickEngine> engine_;
  std::unique_ptr<ar::serve::Server> server_;
  std::thread thread_;
  bool running_ = false;
  SolverProbe* probe_ = nullptr;
  Client client_;
};

std::string tick_line(const ar::traffic::TrafficMatrix& tm) {
  std::string line = "{\"op\": \"tick\", \"demands\": [";
  for (std::size_t i = 0; i < tm.demands.size(); ++i) {
    const auto& d = tm.demands[i];
    line += (i == 0 ? "[" : ", [") + std::to_string(d.src) + ", " +
            std::to_string(d.dst) + ", " + ar::obs::format_double(d.gbps) + "]";
  }
  return line + "]}";
}

// The diurnal cycle is fixed; the seed picks where in the cycle the
// measured stream starts and the order in which fibers are cut. The set-up
// tick is always epoch 0, so demand calibration is the same in every run.
struct Inputs {
  std::string topology_line;
  std::vector<std::string> ticks;  // one request line per diurnal epoch
  int first_epoch = 1;             // epoch of the first measured tick
  std::vector<int> fibers;         // cut order
};

// What one measured stream produced.
struct Stream {
  int ticks = 0;  // measured ticks (the set-up tick not included)
  std::vector<double> tick_ms, engine_ms, overhead_ms, query_ms, metrics_ms,
      read_ms, cut_ms, tick_pivots;
  SolverTally solver;  // what the probe saw during the measured ticks
  std::vector<std::string> rungs;
  int primary = 0;
  ar::obs::RunReport report;
};

// Starts a session and sends hello, topology and the first tick.
bool set_up(Session& session, const Inputs& in, Result* result) {
  if (!session.start()) {
    result->check(false, "serve-b4: server did not start");
    return false;
  }
  const std::string hello = "{\"op\": \"hello\"}";
  for (const std::string* line : {&hello, &in.topology_line, &in.ticks[0]}) {
    const Reply r = session.call(*line, "serve.setup", -1);
    if (!r.ok) {
      result->check(false, "serve-b4: set-up request failed");
      return false;
    }
  }
  return true;
}

// Runs the measured request stream: until `seconds` pass, or exactly
// `fixed_ticks` ticks when that is positive.
Stream drive(Session& session, const Inputs& in, double seconds,
             int fixed_ticks, Result* result) {
  Stream st;
  const std::string query = "{\"op\": \"query\"}";
  const std::string metrics = "{\"op\": \"metrics\"}";
  const double start = now_s();
  int cuts = 0;
  for (int t = 0;; ++t) {
    const double elapsed = now_s() - start;
    if (fixed_ticks > 0 ? t >= fixed_ticks
                        : t >= kMinTicks && elapsed + elapsed / t > seconds) {
      break;
    }
    const long long group = t;
    if (session.probe() != nullptr) session.probe()->take();
    const Reply tick = session.call(
        in.ticks[static_cast<std::size_t>((in.first_epoch + t) % kDiurnalEpochs)],
        "serve.tick", group);
    ++st.ticks;
    const bool overrun = tick.ok && tick.body.find("deadline_overrun") != nullptr &&
                         tick.body.find("deadline_overrun")->boolean;
    result->op(tick.ok && !overrun,
               "serve-b4: tick " + std::to_string(t) +
                   (tick.ok ? " overran its deadline" : " failed"));
    const double engine_s = tick.body.num("seconds");
    st.tick_ms.push_back(tick.rtt_s * 1e3);
    std::fprintf(stderr, "serve-b4: tick %d (epoch %d): %.1f ms\n", t,
                 (in.first_epoch + t) % kDiurnalEpochs, st.tick_ms.back());
    st.engine_ms.push_back(engine_s * 1e3);
    st.overhead_ms.push_back((tick.rtt_s - engine_s) * 1e3);
    st.rungs.push_back(tick.body.text("rung"));
    if (st.rungs.back() == "primary") ++st.primary;
    if (session.probe() != nullptr) {
      const SolverTally lp = session.probe()->take();
      st.tick_pivots.push_back(static_cast<double>(lp.pivots));
      st.solver.merge(lp);
    }
    for (int q = 0; q < kQueriesPerTick; ++q) {
      const Reply r = session.call(query, "serve.query", group);
      result->op(r.ok && r.body.num("ticks") == t + 2,
                 "serve-b4: query after tick " + std::to_string(t));
      st.query_ms.push_back(r.rtt_s * 1e3);
      st.read_ms.push_back(r.rtt_s * 1e3);
    }
    const Reply m = session.call(metrics, "serve.metrics", group);
    result->op(m.ok, "serve-b4: metrics read");
    st.metrics_ms.push_back(m.rtt_s * 1e3);
    st.read_ms.push_back(m.rtt_s * 1e3);
    if ((t + 1) % kCutEvery == 0) {
      const std::string fiber = std::to_string(
          in.fibers[static_cast<std::size_t>(cuts++) % in.fibers.size()]);
      for (const char* op : {"cut", "repair"}) {
        const Reply r = session.call(
            std::string("{\"op\": \"") + op + "\", \"fiber\": " + fiber + "}",
            "serve.cut", group);
        result->op(r.ok, std::string("serve-b4: ") + op + " fiber " + fiber);
        st.cut_ms.push_back(r.rtt_s * 1e3);
      }
    }
  }
  return st;
}

// Stops the session and checks the engine's accounting: every tick served
// and attributed to exactly one rung, none over its deadline.
void finish(Session& session, Stream* st, Result* result) {
  session.stop();
  st->report = session.engine().report();
  const ar::obs::RunReport& rep = st->report;
  const int sent = st->ticks + 1;  // the set-up tick too
  int rung_sum = 0;
  for (const auto& [rung, count] : rep.ladder) rung_sum += count;
  result->check(session.engine().ticks() == sent && rep.te_runs == sent &&
                    rung_sum == sent,
                "serve-b4: ticks sent " + std::to_string(sent) + ", served " +
                    std::to_string(session.engine().ticks()) + ", plans " +
                    std::to_string(rep.te_runs) + ", rung sum " +
                    std::to_string(rung_sum));
  result->check(rep.deadline_overruns == 0, "serve-b4: deadline overruns");
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const ar::topo::Network net = ar::topo::build_b4();
  std::ostringstream text;
  ar::topo::save_network(net, text);
  in.topology_line = "{\"op\": \"topology\", \"text\": \"" +
                     ar::obs::json_escape(text.str()) + "\"}";
  ar::util::Rng rng(kTrafficSeed);
  ar::traffic::TrafficParams tp;
  tp.num_matrices = kDiurnalEpochs;
  for (const auto& tm : ar::traffic::generate_traffic(net, tp, rng)) {
    in.ticks.push_back(tick_line(tm));
  }
  in.first_epoch = static_cast<int>(1 + seed % (kDiurnalEpochs - 1));
  in.fibers = permutation(static_cast<int>(net.optical.fibers.size()), seed);
  return in;
}

double ms_median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace

void run_serve_b4(const Options& options, Result* result) {
  if (options.make_reference) {
    std::fprintf(stderr, "serve-b4 checks invariants; it has no reference\n");
    return;
  }
  const Inputs in = make_inputs(options.seed);

  if (!options.trace) {
    // Set-up several times; the last session is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetups; ++i) {
      if (session) {
        Stream none;
        finish(*session, &none, result);
      }
      session = std::make_unique<Session>(options, i, false);
      const double t0 = now_s();
      if (!set_up(*session, in, result)) return;
      setup_s.push_back(now_s() - t0);
    }
    Stream st = drive(*session, in, options.seconds, 0, result);
    finish(*session, &st, result);
    result->metric("setup_s", "s", quantile(setup_s, 0.5));
    result->metric("peak_rss_mb", "MB", peak_rss_mb());
    result->metric("ok_rate", "ratio", result->ok_rate());
    result->metric("op_ms.p50", "ms", ms_median(st.tick_ms));
      result->metric("quality", "ratio",
                   static_cast<double>(st.primary) / std::max(1, st.ticks));
    std::printf("serve-b4: %d ticks, tick_ms.p50 %.3f ms, tick_ms.p90 %.3f ms, "
                "read_ms.p50 %.4f ms, cut_ms.p50 %.4f ms, primary_frac %.4f\n",
                st.ticks, ms_median(st.tick_ms), quantile(st.tick_ms, 0.9),
                ms_median(st.read_ms), ms_median(st.cut_ms),
                result->metrics().at("quality").second);
    return;
  }

  // Traced run: the same stream twice, untraced then traced, each on a
  // fresh daemon; the two must serve identical rungs and pivots.
  Stream plain, traced;
  {
    Session session(options, 0, false);
    if (!set_up(session, in, result)) return;
    plain = drive(session, in, options.seconds / 2, 0, result);
    finish(session, &plain, result);
  }
  double setup_pivots = 0.0;
  {
    Tracer::global().set_enabled(true);
    Session session(options, 1, true);
    if (!set_up(session, in, result)) return;
    // Pivots the set-up tick spent, so the measured ticks can be matched
    // against the RunReport's running total.
    const Reply rep = session.call("{\"op\": \"report\"}", "serve.setup", -1);
    const ar::obs::JsonValue* body = rep.body.find("report");
    setup_pivots = body != nullptr ? body->num("simplex_iterations") : -1.0;
    traced = drive(session, in, 0.0, plain.ticks, result);
    finish(session, &traced, result);
    Tracer::global().set_enabled(false);
  }
  char why[256];
  std::snprintf(why, sizeof(why),
                "serve-b4: traced stream differs from the untraced one "
                "(rungs %s, pivots %lld vs %lld, availability %.17g vs %.17g)",
                plain.rungs == traced.rungs ? "equal" : "differ",
                plain.report.simplex_iterations, traced.report.simplex_iterations,
                plain.report.availability, traced.report.availability);
  result->check(plain.rungs == traced.rungs &&
                    plain.report.simplex_iterations ==
                        traced.report.simplex_iterations &&
                    plain.report.availability == traced.report.availability,
                why);
  result->check(static_cast<double>(traced.solver.pivots) + setup_pivots ==
                    static_cast<double>(traced.report.simplex_iterations),
                "serve-b4: solver probe pivots differ from the RunReport");

  result->metric("serve.tick_ms.p90", "ms", quantile(traced.tick_ms, 0.9));
  result->metric("serve.engine_ms", "ms", ms_median(traced.engine_ms));
  result->metric("serve.overhead_ms", "ms", ms_median(traced.overhead_ms));
  result->metric("serve.query_ms", "ms", ms_median(traced.query_ms));
  result->metric("serve.metrics_ms", "ms", ms_median(traced.metrics_ms));
  result->metric("serve.read_ms", "ms", ms_median(traced.read_ms));
  result->metric("serve.cut_ms", "ms", ms_median(traced.cut_ms));
  result->metric("serve.tick_pivots", "count", ms_median(traced.tick_pivots));
  for (const auto& [rung, count] : traced.report.ladder) {
    result->metric("ctrl.rung." + rung, "count", count);
  }
  result->metric("ctrl.solver_timeouts", "count", traced.report.solver_timeouts);
  result->metric("ctrl.journal_writes", "count", traced.report.journal_writes);
  emit_solver_metrics(traced.solver, traced.ticks, result);
  const double overhead = ms_median(traced.tick_ms) - ms_median(plain.tick_ms);
  result->metric("trace.overhead_ms", "ms", overhead);
  result->metric("trace.overhead_frac", "ratio", overhead / ms_median(plain.tick_ms));
  emit_trace(options, traced.ticks, result);
}

}  // namespace perfbench
