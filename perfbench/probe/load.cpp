// The live_tcp traffic generator: one process, one thread, an open loop.
//
//   load --in=EVENTS --port=P --rate=R [--conns=C] [--out=FILE] [--abort-ms=X]
//     Sends event i of EVENTS at t0 + i/R over C connections to
//     127.0.0.1:P. Each line of EVENTS is "<step><TAB><NDJSON event>", in
//     arrival order; <step> numbers the event within its session, which
//     may have started in an earlier run of the generator. Every session
//     stays on one connection (hash of its key). Each verdict that comes
//     back is matched to the event it answers (its session and step), and its
//     latency is timed from that event's due time, so a stall also counts
//     against the events queued behind it. The generator reports how late
//     it sent (send time minus due time). Latency percentiles are
//     taken per window of kWindowEvents consecutive events and reported as
//     the median over the windows. Sending stops for good once the oldest
//     unanswered event is --abort-ms overdue; the generator waits at most
//     kDrainSeconds past the last due time for the rest of the verdicts.
//     With --out, every verdict line is written as
//     "<connection><TAB><line>" for run.py's checks.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "probe.hpp"
#include "serve/event.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWindowEvents = 1000;  // events per latency window
constexpr double kDrainSeconds = 10.0;       // wait for verdicts past the last due time

/// Value of a top-level string or number member of a flat JSON line
/// (the fields the generator needs; run.py's checks parse fully).
std::string_view field(std::string_view line, std::string_view name) {
  std::string needle(1, '"');
  needle.append(name).append("\":");
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    const auto end = line.find('"', begin + 1);
    return end == std::string_view::npos ? std::string_view{} : line.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// One client connection; closes its socket when destroyed.
struct Connection {
  int fd = -1;
  std::string out;  // bytes queued, not yet accepted by the kernel
  std::string in;   // partial reply line
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

int cmd_load(const misuse::CliArgs& args) {
  std::vector<std::string> lines;
  std::vector<std::string> steps;
  for (auto& line : read_lines(args.str("in"))) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) throw std::runtime_error("event line without a step number");
    steps.push_back(line.substr(0, tab));
    lines.push_back(line.substr(tab + 1));
  }
  const auto port = static_cast<std::uint16_t>(args.integer("port", 0));
  const double rate = args.real("rate", 0.0);
  const auto conns = static_cast<std::size_t>(std::max<std::int64_t>(1, args.integer("conns", 4)));
  const double abort_s = args.real("abort-ms", 1e9) / 1e3;
  const std::string out_path = args.str("out");
  if (lines.empty() || port == 0 || rate <= 0.0) throw std::runtime_error("need --in, --port, --rate");

  // Per event: its connection; per (session key, step): the event.
  std::vector<std::size_t> conn_of(lines.size());
  std::unordered_map<std::string, std::size_t> event_of;
  std::unordered_set<std::string> sessions;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string key =
        misuse::serve::session_key(field(lines[i], "user_id"), field(lines[i], "session_id"));
    conn_of[i] = misuse::serve::session_shard_hash(key) % conns;
    event_of[key + '#' + steps[i]] = i;
    sessions.insert(key);
  }

  std::vector<Connection> connections(conns);
  for (auto& c : connections) c.fd = connect_local(port);
  std::ofstream out;
  if (!out_path.empty()) out.open(out_path);

  std::vector<double> due(lines.size());
  std::vector<double> late(lines.size(), 0.0);
  std::vector<double> latency(lines.size(), -1.0);
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t duplicates = 0;
  std::size_t unmatched = 0;
  std::size_t errors = 0;
  const double t0 = now_s() + 0.05;
  for (std::size_t i = 0; i < lines.size(); ++i) due[i] = t0 + static_cast<double>(i) / rate;
  double finished_at = 0.0;
  std::size_t oldest = 0;  // every event before it has been answered
  bool aborted = false;

  std::vector<pollfd> fds(conns);
  char buf[65536];
  for (;;) {
    const double now = now_s();
    while (oldest < sent && latency[oldest] >= 0.0) ++oldest;
    if (!aborted && oldest < sent && now - due[oldest] > abort_s) aborted = true;
    while (!aborted && sent < lines.size() && due[sent] <= now) {
      Connection& c = connections[conn_of[sent]];
      c.out += lines[sent];
      c.out += '\n';
      late[sent] = now - due[sent];
      ++sent;
    }
    for (auto& c : connections) {
      while (!c.out.empty()) {
        const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          c.out.erase(0, static_cast<std::size_t>(n));
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
          }
          break;
        }
      }
    }
    if (answered == sent && (aborted || sent == lines.size())) {
      finished_at = now_s();
      break;
    }
    if ((aborted || sent == lines.size()) && now > due[sent - 1] + kDrainSeconds) break;

    const double wait = sent < lines.size() && !aborted ? due[sent] - now_s() : 0.05;
    for (std::size_t k = 0; k < conns; ++k) {
      fds[k].fd = connections[k].fd;
      fds[k].events = POLLIN | (connections[k].out.empty() ? 0 : POLLOUT);
      fds[k].revents = 0;
    }
    const double wait_ns = std::max(0.0, wait) * 1e9;
    const timespec timeout{static_cast<time_t>(wait_ns / 1e9),
                           static_cast<long>(std::fmod(wait_ns, 1e9))};
    ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    for (std::size_t k = 0; k < conns; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = connections[k];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
            throw std::runtime_error("connection closed by the server");
          }
          break;
        }
        const double t = now_s();
        c.in.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
          const std::string_view line(c.in.data() + start, nl - start);
          if (out.is_open()) out << k << '\t' << line << '\n';
          if (field(line, "type") != "step") {
            ++errors;
            continue;
          }
          const std::string key =
              misuse::serve::session_key(field(line, "user_id"), field(line, "session_id"));
          const auto it = event_of.find(key + '#' + std::string(field(line, "step")));
          if (it == event_of.end()) {
            ++unmatched;
            continue;
          }
          const std::size_t event = it->second;
          if (latency[event] >= 0.0) {
            ++duplicates;
            continue;
          }
          latency[event] = t - due[event];
          ++answered;
        }
        c.in.erase(0, start);
      }
    }
  }

  std::vector<double> answered_ms;
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  std::vector<double> window_p99;
  const std::size_t windows = std::max<std::size_t>(1, sent / kWindowEvents);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> in_window;
    for (std::size_t i = w * sent / windows; i < (w + 1) * sent / windows; ++i) {
      if (latency[i] >= 0.0) in_window.push_back(latency[i] * 1e3);
    }
    window_p50.push_back(quantile(in_window, 0.50));
    window_p90.push_back(quantile(in_window, 0.90));
    window_p99.push_back(quantile(in_window, 0.99));
    answered_ms.insert(answered_ms.end(), in_window.begin(), in_window.end());
  }
  std::vector<double> late_ms;
  for (const double l : late) late_ms.push_back(l * 1e3);

  Result result;
  result.set("events", static_cast<double>(lines.size()));
  result.set("sessions", static_cast<double>(sessions.size()));
  result.set("sent", static_cast<double>(sent));
  result.set("aborted", aborted ? 1.0 : 0.0);
  result.set("answered", static_cast<double>(answered));
  result.set("duplicates", static_cast<double>(duplicates));
  result.set("unmatched", static_cast<double>(unmatched));
  result.set("errors", static_cast<double>(errors));
  result.set("rate", rate);
  result.set("send_seconds", due[sent - 1] - t0);
  result.set("span_s", (finished_at > 0.0 ? finished_at : now_s()) - t0);
  result.set("drain_ms", finished_at > 0.0 ? (finished_at - due[sent - 1]) * 1e3 : kDrainSeconds * 1e3);
  result.set("first_ms", quantile(answered_ms, 0.0));
  result.set("p50_ms", quantile(window_p50, 0.50));
  result.set("p90_ms", quantile(window_p90, 0.50));
  result.set("p99_ms", quantile(window_p99, 0.50));
  result.set("worst_window_p99_ms", quantile(window_p99, 1.0));
  result.set("run_p50_ms", quantile(answered_ms, 0.50));
  result.set("run_p99_ms", quantile(answered_ms, 0.99));
  result.set("max_ms", quantile(answered_ms, 1.0));
  result.set("late_p99_ms", quantile(late_ms, 0.99));
  result.set("late_max_ms", quantile(late_ms, 1.0));
  result.print();
  return 0;
}

}  // namespace perfbench
