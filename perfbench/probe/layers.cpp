// Per-layer timings of the scoring path, which every workload's traced run
// takes on its detector and held-out traffic, by calling each module's
// public functions from outside, or read from the counters the program
// already exports.
//
//   layers --dir=D
//     The pipe path's layers on D/replay.ndjson and D/detector.bin at one
//     thread, with misusedet_serve's pipe loop rebuilt in-process (a pump
//     every 256 events): serve::parse_event, ScoringServer enqueue + pump
//     (minus the monitor, read from the monitor.observe_seconds histogram,
//     and minus rendering), render_step_record / render_report_record,
//     OnlineAssignment::push (all k OC-SVMs) and step_cluster_into (one
//     cluster model). Also the RSS growth per open session, the archive
//     load time, and what the per-event clocks cost: the loop on the
//     trace's first kOverheadEvents events with and without them.
//
//   live-layers --dir=D --in=EVENTS
//     The live path's layers on the first events of EVENTS: OnlineMonitor::
//     observe per event, and ScoringServer::submit_sync with a WAL
//     directory minus without (the two servers take turns per event).
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "probe.hpp"
#include "serve/event.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using misuse::core::MisuseDetector;
using misuse::core::OnlineMonitor;
using misuse::serve::Event;
using misuse::serve::OutputRecord;
using misuse::serve::ScoringServer;

constexpr std::size_t kPipeBatch = 256;       // misusedet_serve --batch default
constexpr std::size_t kRenderSample = 4000;   // step results kept for render timing
constexpr std::size_t kStepSample = 3000;     // events stepped per cluster model
constexpr std::size_t kLiveSample = 2000;     // live events timed per layer
constexpr std::size_t kOverheadEvents = 4096; // events of each clock-cost loop

double histogram_sum(const std::string& name) {
  const auto snap = misuse::metrics().snapshot();
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

std::vector<Event> parse_all(const std::vector<std::string>& lines) {
  std::vector<Event> events(lines.size());
  std::string error;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!misuse::serve::parse_event(lines[i], events[i], error)) {
      throw std::runtime_error("unparseable event: " + error);
    }
  }
  return events;
}

/// misusedet_serve's pipe loop (src/serve/main.cpp run_pipe) without I/O;
/// when `traced`, with clocks around each event's parsing and around its
/// enqueue + pump.
struct LoopTimes {
  double parse_s = 0.0;
  double server_s = 0.0;
  double total_s = 0.0;
  std::size_t steps = 0;
  std::size_t reports = 0;
  std::size_t open_rss_kb = 0;  // RSS with every session open
};

LoopTimes pipe_loop(ScoringServer& server, const std::vector<std::string>& lines, bool traced) {
  LoopTimes times;
  std::vector<OutputRecord> out;
  const auto count = [&times](std::vector<OutputRecord>& records) {
    for (const auto& r : records) {
      if (r.line.compare(0, 15, "{\"type\":\"step\"") == 0) {
        ++times.steps;
      } else {
        ++times.reports;
      }
    }
    records.clear();
  };
  std::string error;
  std::size_t batched = 0;
  const double t0 = now_s();
  for (const auto& line : lines) {
    Event event;
    const double a = traced ? now_s() : 0.0;
    misuse::serve::parse_event(line, event, error);
    const double b = traced ? now_s() : 0.0;
    while (server.enqueue(event, out) == ScoringServer::Enqueue::kQueueFull) server.pump(out);
    if (++batched >= kPipeBatch) {
      server.pump(out);
      server.sweep(out);
      batched = 0;
    }
    if (traced) {
      times.parse_s += b - a;
      times.server_s += now_s() - b;
    }
    count(out);
  }
  const double a = now_s();
  server.pump(out);
  times.open_rss_kb = rss_kb();
  server.shutdown(out);
  times.server_s += now_s() - a;
  count(out);
  times.total_s = now_s() - t0;
  return times;
}

}  // namespace

int cmd_layers(const misuse::CliArgs& args) {
  misuse::set_global_threads(1);
  const std::string dir = args.str("dir");
  const auto lines = read_lines(dir + "/replay.ndjson");
  const double t_load = now_s();
  const auto detector = MisuseDetector::load_file(dir + "/detector.bin");
  const double load_s = now_s() - t_load;
  const auto events = parse_all(lines);
  std::map<std::string, int> sessions;
  for (const auto& e : events) sessions.emplace(misuse::serve::session_key(e), 0);

  // The timed loop; the observers keep a sample of results to render.
  misuse::serve::ServeConfig config;  // misusedet_serve's defaults
  ScoringServer server(detector, config);
  std::vector<std::pair<Event, OnlineMonitor::StepResult>> steps;
  std::vector<std::pair<Event, misuse::core::SessionMonitorReport>> reports;
  server.set_step_observer([&steps](const Event& e, const OnlineMonitor::StepResult& r) {
    if (steps.size() < kRenderSample) steps.emplace_back(e, r);
  });
  server.set_report_observer([&reports](std::string_view user, std::string_view session,
                                        misuse::serve::ReportReason,
                                        const misuse::core::SessionMonitorReport& r) {
    if (reports.size() < kRenderSample) {
      Event e;
      e.user_id = user;
      e.session_id = session;
      reports.emplace_back(e, r);
    }
  });
  const std::size_t rss0 = rss_kb();
  const double monitor0 = histogram_sum("monitor.observe_seconds");
  const LoopTimes timed = pipe_loop(server, lines, true);
  const double monitor_s = histogram_sum("monitor.observe_seconds") - monitor0;

  // The cost of the per-event clocks: the loop on the trace's first events
  // with and without them, each on a fresh server, in the order with,
  // without, without, with, so that a steady drift of the host's speed
  // weighs on both alike.
  const std::vector<std::string> head(lines.begin(),
                                      lines.begin() + std::min(kOverheadEvents, lines.size()));
  double with_clocks_s = 0.0;
  double without_clocks_s = 0.0;
  for (const bool traced : {true, false, false, true}) {
    ScoringServer fresh(detector, config);
    (traced ? with_clocks_s : without_clocks_s) += pipe_loop(fresh, head, traced).total_s;
  }

  // Rendering, on the sampled results (repeated for a stable clock).
  double render_s = 0.0;
  std::size_t rendered = 0;
  std::size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t = now_s();
    for (const auto& [e, r] : steps) bytes += misuse::serve::render_step_record(e, r).size();
    for (const auto& [e, r] : reports) {
      bytes += misuse::serve::render_report_record(
                   e.user_id, e.session_id, misuse::serve::ReportReason::kShutdown, r)
                   .size();
    }
    render_s += now_s() - t;
    rendered += steps.size() + reports.size();
  }
  const double render_us = 1e6 * render_s / static_cast<double>(rendered);
  const double records = static_cast<double>(timed.steps + timed.reports);

  // OC-SVM routing: every event of the trace, one online assignment per session.
  std::map<std::string, misuse::cluster::ClusterAssigner::OnlineAssignment> routes;
  double route_s = 0.0;
  for (const auto& e : events) {
    const int action = misuse::serve::resolve_action_id(detector.vocab(), e.action);
    auto it = routes.try_emplace(misuse::serve::session_key(e), detector.assigner()).first;
    const double t = now_s();
    bytes += it->second.push(action).size();
    route_s += now_s() - t;
  }

  // One cluster model step, over the first events of the trace and every cluster.
  double step_s = 0.0;
  std::size_t stepped = 0;
  std::vector<float> dist;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    std::map<std::string, MisuseDetector::ClusterState> states;
    for (std::size_t i = 0; i < std::min(kStepSample, events.size()); ++i) {
      const int action = misuse::serve::resolve_action_id(detector.vocab(), events[i].action);
      auto it = states.find(misuse::serve::session_key(events[i]));
      if (it == states.end()) {
        it = states.emplace(misuse::serve::session_key(events[i]), detector.make_cluster_state(c))
                 .first;
      }
      const double t = now_s();
      detector.step_cluster_into(c, it->second, action, dist);
      step_s += now_s() - t;
      ++stepped;
    }
  }

  const double n = static_cast<double>(events.size());
  Result result;
  result.set("events", n);
  result.set("records", records);
  result.set("sessions", static_cast<double>(sessions.size()));
  result.set("load_s", load_s);
  result.set("serve.parse_us", 1e6 * timed.parse_s / n);
  result.set("serve.server_us", 1e6 * (timed.server_s - monitor_s - records * render_us * 1e-6) / n);
  result.set("serve.render_us", render_us);
  result.set("core.observe_batch_us", 1e6 * monitor_s / n);
  result.set("nn.cluster_step_us", 1e6 * step_s / static_cast<double>(stepped));
  result.set("cluster.route_us", 1e6 * route_s / n);
  result.set("serve.session_kb",
             static_cast<double>(timed.open_rss_kb - std::min(timed.open_rss_kb, rss0)) /
                 static_cast<double>(sessions.size()));
  result.set("loop_s", timed.total_s);
  result.set("trace.overhead_frac", with_clocks_s / without_clocks_s - 1.0);
  result.set("checksum_bytes", static_cast<double>(bytes));
  result.print();
  return 0;
}

int cmd_live_layers(const misuse::CliArgs& args) {
  const std::string dir = args.str("dir");
  auto lines = read_lines(args.str("in"));
  if (lines.size() > kLiveSample) lines.resize(kLiveSample);
  const auto detector = MisuseDetector::load_file(dir + "/detector.bin");
  const auto events = parse_all(lines);
  const double n = static_cast<double>(events.size());

  // OnlineMonitor::observe, one monitor per session, one event at a time.
  misuse::core::MonitorConfig monitor_config;
  std::map<std::string, std::unique_ptr<OnlineMonitor>> monitors;
  double observe_s = 0.0;
  for (const auto& e : events) {
    auto& monitor = monitors[misuse::serve::session_key(e)];
    if (!monitor) monitor = std::make_unique<OnlineMonitor>(detector, monitor_config);
    const int action = misuse::serve::resolve_action_id(detector.vocab(), e.action);
    const double t = now_s();
    monitor->observe(action);
    observe_s += now_s() - t;
  }

  // submit_sync with and without a WAL, alternating which server goes first.
  const std::string wal_dir = dir + "/live_layers_wal";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  misuse::serve::ServeConfig plain_config;
  misuse::serve::ServeConfig wal_config;
  wal_config.wal_dir = wal_dir;
  ScoringServer plain(detector, plain_config);
  ScoringServer logged(detector, wal_config);
  std::vector<OutputRecord> out;
  double plain_s = 0.0;
  double logged_s = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (int turn = 0; turn < 2; ++turn) {
      const bool wal_turn = (turn == 0) == (i % 2 == 0);
      const double t = now_s();
      (wal_turn ? logged : plain).submit_sync(events[i], out);
      (wal_turn ? logged_s : plain_s) += now_s() - t;
      out.clear();
    }
  }
  plain.shutdown(out);
  logged.shutdown(out);
  std::filesystem::remove_all(wal_dir);

  Result result;
  result.set("events", n);
  result.set("core.observe_us", 1e6 * observe_s / n);
  result.set("serve.wal_us", 1e6 * (logged_s - plain_s) / n);
  result.set("serve.submit_sync_us", 1e6 * plain_s / n);
  result.print();
  return 0;
}

}  // namespace perfbench
