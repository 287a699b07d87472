// Daemon suite for arrowctl serve (ctest label: serve): wire protocol
// units, TickEngine lifecycle, the socket front end, and two drills —
// SIGTERM drain (self-exec child daemon, parent signals, journal + final
// RunReport must land) and restart recovery (a faulted successor engine
// adopts the journaled plan via carry-forward).
//
// This file supplies its own main(): the drain drill needs argv[0] and an
// environment-variable child mode, which gtest_main cannot provide.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "controller/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "resilience/chaos.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "solver/lp.h"
#include "topo/builders.h"
#include "topo/io.h"
#include "traffic/traffic.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/rng.h"

namespace arrow {
namespace {

const char* g_argv0 = "";

// Child-mode marker: directory for the child daemon's socket/journal/obs.
constexpr const char* kServeChildEnv = "ARROW_SERVE_CHILD";

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

topo::Network test_net() { return topo::build_testbed(); }

traffic::TrafficMatrix test_tm(const topo::Network& net, std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  return traffic::generate_traffic(net, tp, rng)[0];
}

serve::EngineConfig test_config() {
  serve::EngineConfig config;
  config.ctrl.te_budget_s = 5.0;  // generous: sanitizer builds are slow
  config.ctrl.tunnels.tunnels_per_flow = 4;
  config.ctrl.arrow.tickets.num_tickets = 4;
  config.ctrl.scenarios.probability_cutoff = 0.002;
  return config;
}

// --- protocol units ---------------------------------------------------------

TEST(ServeProtocol, ParseRequestValidatesShapeAndOp) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::parse_request("not json", &v, &err));
  EXPECT_FALSE(serve::parse_request("[1,2]", &v, &err));
  EXPECT_FALSE(serve::parse_request("{\"x\": 1}", &v, &err));  // no op
  EXPECT_TRUE(serve::parse_request("{\"op\": \"hello\"}", &v, &err)) << err;
  EXPECT_EQ(v.text("op"), "hello");
}

TEST(ServeProtocol, ReplyLinesAreSingleLineJsonWithOkField) {
  obs::JsonValue fields;
  fields.object["n"] = serve::jnum(2.5);
  const std::string ok = serve::ok_line(std::move(fields));
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back(), '\n');
  EXPECT_EQ(ok.find('\n'), ok.size() - 1);  // exactly one: NDJSON framing
  obs::JsonValue back;
  ASSERT_TRUE(obs::json_parse(ok.substr(0, ok.size() - 1), &back));
  EXPECT_TRUE(back.find("ok")->boolean);
  EXPECT_DOUBLE_EQ(back.find("n")->number, 2.5);

  const std::string err = serve::error_line("boom \"quoted\"");
  ASSERT_TRUE(obs::json_parse(err.substr(0, err.size() - 1), &back));
  EXPECT_FALSE(back.find("ok")->boolean);
  EXPECT_EQ(back.text("error"), "boom \"quoted\"");
}

TEST(ServeProtocol, ParseDemandsValidates) {
  traffic::TrafficMatrix tm;
  std::string err;
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse("[[0, 1, 10.5], [1, 2, 0]]", &v));
  ASSERT_TRUE(serve::parse_demands(v, &tm, &err)) << err;
  ASSERT_EQ(tm.demands.size(), 2u);
  EXPECT_EQ(tm.demands[0].src, 0);
  EXPECT_EQ(tm.demands[0].dst, 1);
  EXPECT_DOUBLE_EQ(tm.demands[0].gbps, 10.5);

  for (const char* bad : {"{}", "[[0, 1]]", "[[0, 0, 5]]", "[[-1, 1, 5]]",
                          "[[0, 1, -5]]", "[[0, 1, \"x\"]]"}) {
    ASSERT_TRUE(obs::json_parse(bad, &v)) << bad;
    EXPECT_FALSE(serve::parse_demands(v, &tm, &err)) << bad;
  }
}

TEST(ServeProtocol, HttpGetDetectionAndResponseFraming) {
  std::string target;
  EXPECT_TRUE(serve::is_http_get("GET /metrics HTTP/1.1\r", &target));
  EXPECT_EQ(target, "/metrics");
  EXPECT_TRUE(serve::is_http_get("GET /report", &target));
  EXPECT_EQ(target, "/report");
  EXPECT_FALSE(serve::is_http_get("{\"op\": \"hello\"}", &target));
  EXPECT_FALSE(serve::is_http_get("GET ", &target));

  const std::string resp = serve::http_response("body", "text/plain");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 4), "body");
}

// --- engine lifecycle -------------------------------------------------------

TEST(ServeEngine, TickCutRepairAndReport) {
  const topo::Network net = test_net();
  serve::TickEngine engine(test_config());
  EXPECT_FALSE(engine.has_topology());

  const auto topo_res = engine.set_topology(net);
  ASSERT_TRUE(topo_res.ok) << topo_res.error;
  EXPECT_EQ(topo_res.sites, net.num_sites);
  EXPECT_EQ(topo_res.fibers, static_cast<int>(net.optical.fibers.size()));
  EXPECT_GT(topo_res.scenarios, 0);

  const auto tm = test_tm(net, 7);
  const auto t1 = engine.tick(tm);
  ASSERT_TRUE(t1.ok) << t1.error;
  EXPECT_EQ(t1.tick, 1);
  EXPECT_FALSE(t1.rung_regression);  // first tick can't regress
  EXPECT_GT(t1.seconds, 0.0);

  const auto t2 = engine.tick(tm);
  ASSERT_TRUE(t2.ok) << t2.error;
  EXPECT_EQ(t2.tick, 2);
  EXPECT_EQ(engine.ticks(), 2);
  EXPECT_GT(engine.tick_p99_s(), 0.0);
  EXPECT_GE(engine.tick_p99_s(), engine.tick_p50_s());

  const auto cut = engine.cut(0);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_EQ(engine.active_cuts(), 1);
  EXPECT_FALSE(engine.cut(0).ok);  // already cut
  EXPECT_TRUE(engine.repair(0));
  EXPECT_EQ(engine.active_cuts(), 0);
  EXPECT_FALSE(engine.repair(0));  // not cut

  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.te_runs, 2);
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_GT(report.availability, 0.0);

  engine.drain();
  EXPECT_TRUE(engine.drained());
  EXPECT_FALSE(engine.tick(tm).ok);  // drained engines refuse work
  engine.drain();  // idempotent
}

// Cut fast-path drill: with a scheme whose registry capabilities advertise
// supports_local_repair, a cut must be answered by weaving the installed
// plan around the failure (or an honest global fallback) — never by the
// unplanned-cut path — and the repair telemetry must land in the RunReport.
TEST(ServeEngine, ReWeaveCutFastPathDrill) {
  serve::EngineConfig config = test_config();
  config.ctrl.scheme = "ReWeave-Local";
  serve::TickEngine engine(config);

  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  const auto tm = test_tm(test_net(), 7);
  const auto t1 = engine.tick(tm);
  ASSERT_TRUE(t1.ok) << t1.error;

  const auto cut = engine.cut(0);
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_FALSE(cut.planned);  // ReWeave precomputes nothing optical
  EXPECT_TRUE(cut.local_repair || cut.fell_back_global);
  if (cut.local_repair) {
    // Detection + repair solve + rebalance: strictly positive, and far
    // below an optical restoration's ROADM reconfiguration budget.
    EXPECT_GT(cut.latency_s, 0.0);
  }

  const obs::RunReport report = engine.report();
  EXPECT_EQ(report.cuts_handled, 1);
  EXPECT_EQ(report.local_repairs + report.local_repair_fallbacks, 1);
  EXPECT_GE(report.local_repair_seconds, 0.0);
  if (report.local_repairs == 1) {
    EXPECT_GT(report.restoration_p99_s, 0.0);
  }

  // The next tick re-solves from scratch and must stay healthy with the
  // fiber still dark.
  const auto t2 = engine.tick(tm);
  ASSERT_TRUE(t2.ok) << t2.error;
  EXPECT_TRUE(engine.repair(0));
  engine.drain();
}

// The scheme is a registry name: an unknown one fails at construction with
// the registry's diagnostic, which lists what is registered.
TEST(ServeEngine, UnknownSchemeNamesTheRegisteredOnes) {
  serve::EngineConfig config = test_config();
  config.ctrl.scheme = "nope";
  try {
    serve::TickEngine engine(config);
    FAIL() << "unknown scheme accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scheme 'nope'"), std::string::npos) << what;
    EXPECT_NE(what.find("PXT"), std::string::npos) << what;
  }
}

TEST(ServeEngine, RefusesOutOfOrderRequests) {
  serve::TickEngine engine(test_config());
  EXPECT_FALSE(engine.tick(test_tm(test_net(), 7)).ok);  // no topology
  EXPECT_FALSE(engine.cut(0).ok);

  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  EXPECT_FALSE(engine.cut(0).ok);  // no plan yet: tick first
  EXPECT_FALSE(engine.tick(traffic::TrafficMatrix{}).ok);  // empty matrix
  ASSERT_TRUE(engine.tick(test_tm(test_net(), 7)).ok);
  EXPECT_FALSE(engine.cut(999).ok);  // no such fiber
}

// --- handle_line (socket-free server dispatch) ------------------------------

class ServeDispatch : public ::testing::Test {
 protected:
  ServeDispatch() : engine_(test_config()), server_(engine_, {}) {}

  obs::JsonValue call(const std::string& line) {
    bool close_conn = false;
    bool stop_server = false;
    const std::string reply = server_.handle_line(line, &close_conn,
                                                  &stop_server);
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::json_parse(reply, &v, &err))
        << err << " in reply: " << reply;
    return v;
  }

  serve::TickEngine engine_;
  serve::Server server_;
};

TEST_F(ServeDispatch, FullSessionOverDispatch) {
  EXPECT_TRUE(call("{\"op\": \"hello\"}").find("ok")->boolean);
  EXPECT_FALSE(call("{\"op\": \"wat\"}").find("ok")->boolean);
  EXPECT_FALSE(call("garbage").find("ok")->boolean);

  // Topology via inline text: daemons on remote hosts don't share a
  // filesystem with their clients.
  const std::string topo_path = temp_dir("arrow_serve_dispatch") + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  const auto text = util::read_file(topo_path);
  ASSERT_TRUE(text.has_value());
  obs::JsonValue req;
  req.type = obs::JsonValue::Type::kObject;
  req.object["op"] = serve::jstr("topology");
  req.object["text"] = serve::jstr(*text);
  const auto topo_reply = call(obs::json_emit(req));
  ASSERT_TRUE(topo_reply.find("ok")->boolean)
      << topo_reply.text("error");
  EXPECT_EQ(topo_reply.find("sites")->number, test_net().num_sites);

  // Tick with inline demands built from the generated matrix.
  obs::JsonValue demands;
  demands.type = obs::JsonValue::Type::kArray;
  for (const auto& d : test_tm(test_net(), 7).demands) {
    obs::JsonValue row;
    row.type = obs::JsonValue::Type::kArray;
    row.array = {serve::jnum(d.src), serve::jnum(d.dst), serve::jnum(d.gbps)};
    demands.array.push_back(std::move(row));
  }
  obs::JsonValue tick_req;
  tick_req.type = obs::JsonValue::Type::kObject;
  tick_req.object["op"] = serve::jstr("tick");
  tick_req.object["demands"] = std::move(demands);
  const auto tick_reply = call(obs::json_emit(tick_req));
  ASSERT_TRUE(tick_reply.find("ok")->boolean) << tick_reply.text("error");
  EXPECT_EQ(tick_reply.find("tick")->number, 1.0);

  const auto cut_reply = call("{\"op\": \"cut\", \"fiber\": 0}");
  ASSERT_TRUE(cut_reply.find("ok")->boolean) << cut_reply.text("error");
  EXPECT_TRUE(call("{\"op\": \"repair\", \"fiber\": 0}").find("ok")->boolean);

  const auto query = call("{\"op\": \"query\"}");
  EXPECT_TRUE(query.find("topology")->boolean);
  EXPECT_EQ(query.find("ticks")->number, 1.0);

  const auto report = call("{\"op\": \"report\"}");
  ASSERT_TRUE(report.find("ok")->boolean);
  EXPECT_EQ(report.find("report")->find("te_runs")->number, 1.0);

  const auto metrics = call("{\"op\": \"metrics\"}");
  ASSERT_TRUE(metrics.find("ok")->boolean);
  EXPECT_NE(metrics.text("metrics").find("arrow_serve_ticks_total"),
            std::string::npos);
}

TEST_F(ServeDispatch, HttpScrapesAndShutdown) {
  bool close_conn = false;
  bool stop_server = false;
  const std::string metrics =
      server_.handle_line("GET /metrics HTTP/1.1", &close_conn, &stop_server);
  EXPECT_TRUE(close_conn);
  EXPECT_FALSE(stop_server);
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("arrow_serve_requests_total"), std::string::npos);

  const std::string report =
      server_.handle_line("GET /report", &close_conn, &stop_server);
  EXPECT_TRUE(close_conn);
  EXPECT_NE(report.find("application/json"), std::string::npos);

  const std::string missing =
      server_.handle_line("GET /nope", &close_conn, &stop_server);
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);

  server_.handle_line("{\"op\": \"shutdown\"}", &close_conn, &stop_server);
  EXPECT_TRUE(stop_server);
}

// --- socket round trip ------------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one NDJSON request and reads one reply line.
std::string round_trip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), 0) !=
      static_cast<ssize_t>(out.size())) {
    return "";
  }
  std::string reply;
  char ch = 0;
  while (::recv(fd, &ch, 1, 0) == 1) {
    if (ch == '\n') break;
    reply.push_back(ch);
  }
  return reply;
}

TEST(ServeSocket, TickCutQueryShutdownOverUnixSocket) {
  const std::string dir = temp_dir("arrow_serve_socket");
  const std::string sock = dir + "/daemon.sock";
  const std::string topo_path = dir + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  const std::string tm_path = dir + "/traffic.tm";
  topo::save_traffic_file(test_tm(test_net(), 7), tm_path);

  serve::TickEngine engine(test_config());
  serve::ServerConfig sc;
  sc.unix_path = sock;
  serve::Server server(engine, sc);
  ASSERT_TRUE(server.start()) << server.error();
  std::thread loop([&server] { server.run(); });

  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"topology\", \"path\": \"" + topo_path +
                         "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");

  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"tick\", \"path\": \"" + tm_path + "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");
  EXPECT_EQ(v.find("tick")->number, 1.0);

  ASSERT_TRUE(obs::json_parse(
      round_trip(fd, "{\"op\": \"cut\", \"fiber\": 0}"), &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");

  // A second client sees the same engine state.
  const int fd2 = connect_unix(sock);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(obs::json_parse(round_trip(fd2, "{\"op\": \"query\"}"), &v));
  EXPECT_EQ(v.find("ticks")->number, 1.0);
  EXPECT_EQ(v.find("active_cuts")->number, 1.0);
  ::close(fd2);

  ASSERT_TRUE(obs::json_parse(round_trip(fd, "{\"op\": \"shutdown\"}"), &v));
  EXPECT_TRUE(v.find("draining")->boolean);
  loop.join();
  ::close(fd);
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.report().te_runs, 1);
}

// A client that never sends '\n' must not grow the daemon's input buffer
// without bound: past kMaxRequestLineBytes it gets one error line and the
// connection closes, while other clients keep being served.
TEST(ServeSocket, OversizedLineIsRejectedAndOnlyThatClientIsClosed) {
  const std::string dir = temp_dir("arrow_serve_oversize");
  const std::string sock = dir + "/daemon.sock";
  const std::string topo_path = dir + "/net.topo";
  topo::save_network_file(test_net(), topo_path);
  const std::string tm_path = dir + "/traffic.tm";
  topo::save_traffic_file(test_tm(test_net(), 7), tm_path);

  serve::TickEngine engine(test_config());
  serve::ServerConfig sc;
  sc.unix_path = sock;
  serve::Server server(engine, sc);
  ASSERT_TRUE(server.start()) << server.error();
  // Stops and joins the loop on every exit path, a failed ASSERT included.
  struct Loop {
    serve::Server& server;
    std::thread thread;
    ~Loop() {
      server.request_stop();
      thread.join();
    }
  } loop{server, std::thread([&server] { server.run(); })};
  obs::Counter& rejected =
      obs::Registry::global().counter("arrow_serve_rejected_lines_total");
  const std::uint64_t rejected_before = rejected.value();

  const int bad = connect_unix(sock);
  ASSERT_GE(bad, 0);
  // A daemon without the cap never answers: fail on a timeout, not a hang.
  timeval timeout{};
  timeout.tv_sec = 20;
  ::setsockopt(bad, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // 2x the cap, no newline. The daemon closes the connection part way
  // through, so a send may fail (EPIPE/ECONNRESET); that ends the flood.
  const std::string chunk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent < 2 * serve::kMaxRequestLineBytes) {
    const ssize_t n = ::send(bad, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_GT(sent, serve::kMaxRequestLineBytes);
  std::string reply;
  char ch = 0;
  while (::recv(bad, &ch, 1, 0) == 1 && ch != '\n') reply.push_back(ch);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(reply, &v)) << reply;
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_NE(v.text("error").find("exceeds"), std::string::npos) << reply;
  // Closed: end of stream (or a reset) follows the one error line.
  EXPECT_LE(::recv(bad, &ch, 1, 0), 0);
  ::close(bad);
  EXPECT_EQ(rejected.value(), rejected_before + 1);

  const int good = connect_unix(sock);
  ASSERT_GE(good, 0);
  ASSERT_TRUE(obs::json_parse(
      round_trip(good, "{\"op\": \"topology\", \"path\": \"" + topo_path +
                           "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");
  ASSERT_TRUE(obs::json_parse(
      round_trip(good, "{\"op\": \"tick\", \"path\": \"" + tm_path + "\"}"),
      &v));
  ASSERT_TRUE(v.find("ok")->boolean) << v.text("error");
  EXPECT_EQ(v.find("tick")->number, 1.0);
  ::close(good);
}

// --- SIGTERM drain drill -----------------------------------------------------

volatile std::sig_atomic_t g_child_stop = 0;
void child_stop_handler(int) { g_child_stop = 1; }

// Child role: a real daemon — journal + obs enabled, topology loaded, one
// tick served — listening on dir/daemon.sock until SIGTERM, then draining
// through the normal exit path.
int serve_child(const std::string& dir) {
  serve::EngineConfig config = test_config();
  config.ctrl.journal_dir = dir;
  config.ctrl.obs.enabled = true;
  config.ctrl.obs.dir = dir;
  config.ctrl.obs.run_id = "drill";
  serve::TickEngine engine(config);
  if (!engine.set_topology(test_net()).ok) return 3;
  if (!engine.tick(test_tm(test_net(), 7)).ok) return 3;

  std::signal(SIGTERM, child_stop_handler);
  serve::ServerConfig sc;
  sc.unix_path = dir + "/daemon.sock";
  sc.stop_check = [] { return g_child_stop != 0; };
  serve::Server server(engine, sc);
  if (!server.start()) return 3;
  if (!util::write_file_atomic(dir + "/ready", "ok")) return 3;
  server.run();
  return engine.drained() ? 0 : 4;
}

bool wait_for_file(const std::string& path, double timeout_s) {
  for (double waited = 0.0; waited < timeout_s; waited += 0.01) {
    if (std::filesystem::exists(path)) return true;
    util::sleep_s(0.01);
  }
  return false;
}

TEST(ServeChaos, SigtermDrainsJournalAndFinalRunReport) {
  const std::string dir = temp_dir("arrow_serve_drain");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int pid = resilience::spawn_self(g_argv0, {{kServeChildEnv, dir}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_file(dir + "/ready", 120.0));

  // The daemon is live: prove it serves, then deliver SIGTERM.
  const int fd = connect_unix(dir + "/daemon.sock");
  ASSERT_GE(fd, 0);
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(round_trip(fd, "{\"op\": \"query\"}"), &v));
  EXPECT_EQ(v.find("ticks")->number, 1.0);
  ::close(fd);

  ASSERT_TRUE(resilience::kill_child(pid, /*delay_s=*/0.0, SIGTERM));
  const auto exit = resilience::wait_child(pid);
  EXPECT_FALSE(exit.signaled);  // handled, not killed
  EXPECT_EQ(exit.code, 0);

  // The drain's three artifacts: journal closed cleanly with the plan
  // intact, and the final RunReport written.
  const ctrl::JournalState state =
      ctrl::StateJournal(ctrl::StateJournal::file_in(dir)).load();
  EXPECT_FALSE(state.in_flight);
  EXPECT_TRUE(state.has_plan);
  obs::RunReport report;
  const auto report_text = util::read_file(dir + "/report_drill.json");
  ASSERT_TRUE(report_text.has_value());
  ASSERT_TRUE(obs::RunReport::from_json(*report_text, &report));
  EXPECT_EQ(report.te_runs, 1);
}

// --- restart recovery --------------------------------------------------------

TEST(ServeChaos, RestartedEngineRecoversJournaledPlanIntoCarryForward) {
  const std::string dir = temp_dir("arrow_serve_recover");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  serve::EngineConfig config = test_config();
  config.ctrl.journal_dir = dir;

  // Daemon 1: serves one tick and drains cleanly — its plan stays journaled.
  {
    serve::TickEngine engine(config);
    ASSERT_TRUE(engine.set_topology(test_net()).ok);
    ASSERT_TRUE(engine.tick(test_tm(test_net(), 7)).ok);
    engine.drain();
  }

  // Daemon 2: same journal dir, every LP solve faulted. Its first tick must
  // adopt daemon 1's journaled plan and serve it via carry-forward — not
  // cold ECMP.
  solver::ScopedSolveObserver storm(
      [](const solver::Lp&, solver::LpSolution& solution) {
        solution.status = solver::LpStatus::kNumericalError;
      });
  serve::TickEngine engine(config);
  ASSERT_TRUE(engine.set_topology(test_net()).ok);
  const auto res = engine.tick(test_tm(test_net(), 7));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.journal_recovered);
  EXPECT_EQ(res.rung, ctrl::Rung::kCarryForward);
}

}  // namespace
}  // namespace arrow

int main(int argc, char** argv) {
  if (const char* dir = std::getenv(arrow::kServeChildEnv)) {
    return arrow::serve_child(dir);
  }
  arrow::g_argv0 = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
