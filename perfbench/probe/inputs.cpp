// Inputs of the serving workloads, and the independent recomputation the
// replay check compares against.
//
//   setup --seed=S --dir=D
//     Trains a paper-shape detector on a kHistorySessions history of a
//     fixed portal, reports the training's layer times
//     (set_training_layers), and writes into D:
//       detector.bin   the archive misusedet_serve loads,
//       vocab.txt      action names in id order,
//       sessions.tsv   the traffic pool, drawn from the seed: normal
//                      sessions of the same portal held out from training,
//                      injected misuses (Portal::make_misuse) and §IV-D
//                      random sessions,
//       replay.ndjson  the pool as one interleaved multi-user trace.
//
//   reference --dir=D --in=F
//     F holds sampled sessions with their served verdicts ("session
//     id<TAB>action ids<TAB>voted clusters<TAB>likelihoods", '-' for the
//     unscored first step). Recomputes each likelihood with the
//     reference LSTM forward (nn/lstm.cpp via ActionLanguageModel::step,
//     not the packed inference engine) and reports the largest gap.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "probe.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using misuse::SessionStore;

std::string event_line(const TrafficSession& s, const std::string& action, double timestamp) {
  std::ostringstream out;
  {
    misuse::JsonWriter json(out);
    json.begin_object();
    json.member("user_id", s.user_id);
    json.member("session_id", s.session_id);
    json.member("action", action);
    json.member("timestamp", timestamp);
    json.end_object();
  }
  return out.str();
}

/// "<prefix><n>", an id of the generated traffic.
std::string id(char prefix, std::size_t n) {
  std::string s(1, prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace

std::size_t write_trace(const std::string& path, const std::vector<TrafficSession>& pool,
                        const misuse::ActionVocab& vocab, misuse::Rng& rng) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < pool.size(); ++i) order.insert(order.end(), pool[i].actions.size(), i);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.uniform_index(i)]);
  std::ofstream out(path);
  std::vector<std::size_t> cursor(pool.size(), 0);
  std::size_t events = 0;
  for (const std::size_t i : order) {
    const int action = pool[i].actions[cursor[i]++];
    out << event_line(pool[i], vocab.name(action), 0.01 * static_cast<double>(events++)) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
  return events;
}

int cmd_setup(const misuse::CliArgs& args) {
  const double t0 = now_s();
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const std::string dir = args.str("dir");
  if (dir.empty()) throw std::runtime_error("--dir is required");

  // The deployed detector's training history is fixed, so every run
  // trains and serves the same detector (k = 13 clusters); the workload
  // seed draws the traffic: fresh sessions of the same portal, held out
  // from training by construction.
  const misuse::synth::Portal portal = make_portal(kHistorySessions);
  const SessionStore history = portal.generate();
  misuse::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<TrafficSession> pool;
  for (auto& s : draw_sessions(portal, rng, kNormalSessions)) {
    pool.push_back({id('u', s.user), "", "normal", std::move(s.actions)});
  }
  for (std::size_t i = 0; i < kMisuseSessions; ++i) {
    const auto kind = static_cast<misuse::synth::MisuseKind>(
        i % static_cast<std::size_t>(misuse::synth::MisuseKind::kCount));
    pool.push_back({id('x', i), "", "misuse", portal.make_misuse(kind, rng).actions});
  }
  const SessionStore randoms = portal.generate_random_sessions(kRandomSessions, seed + 5);
  for (std::size_t i = 0; i < randoms.size(); ++i) {
    pool.push_back({id('z', i), "", "random", randoms.at(i).actions});
  }
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i].session_id = id('s', i);
  const double corpus_s = now_s() - t0;

  const auto before = misuse::metrics().snapshot();
  const double t_train = now_s();
  const auto detector = misuse::core::MisuseDetector::train(
      history, paper_detector_config(portal.config().seed, kHistorySessions));
  const double train_s = now_s() - t_train;
  const auto after = misuse::metrics().snapshot();
  {
    std::ofstream out(dir + "/detector.bin", std::ios::binary);
    misuse::BinaryWriter writer(out);
    detector.save(writer);
    if (!out) throw std::runtime_error("cannot write " + dir + "/detector.bin");
  }

  const auto& vocab = history.vocab();
  {
    std::ofstream out(dir + "/vocab.txt");
    for (const auto& name : vocab.names()) out << name << '\n';
  }
  std::vector<double> lengths;
  {
    std::ofstream out(dir + "/sessions.tsv");
    for (const auto& s : pool) {
      out << s.user_id << '\t' << s.session_id << '\t' << s.kind << '\t';
      for (std::size_t j = 0; j < s.actions.size(); ++j) out << (j ? " " : "") << s.actions[j];
      out << '\n';
      lengths.push_back(static_cast<double>(s.actions.size()));
    }
  }
  const std::size_t events = write_trace(dir + "/replay.ndjson", pool, vocab, rng);

  std::sort(lengths.begin(), lengths.end());
  Result result;
  result.set("clusters", static_cast<double>(detector.cluster_count()));
  result.set("vocab", static_cast<double>(vocab.size()));
  result.set("train_sessions", static_cast<double>(history.size()));
  result.set("sessions", static_cast<double>(pool.size()));
  result.set("events", static_cast<double>(events));
  result.set("mean_len", static_cast<double>(events) / static_cast<double>(pool.size()));
  result.set("p98_len", lengths[static_cast<std::size_t>(0.98 * static_cast<double>(lengths.size() - 1))]);
  result.set("max_len", lengths.back());
  result.set("synth.corpus_s", corpus_s);
  result.set("train_s", train_s);
  set_training_layers(result, before, after, misuse::trace_snapshot(), train_s);
  result.set("total_s", now_s() - t0);
  result.set("threads", static_cast<double>(misuse::global_pool().size()));
  result.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0);
  result.print();
  return 0;
}

int cmd_reference(const misuse::CliArgs& args) {
  const std::string dir = args.str("dir");
  const auto detector = misuse::core::MisuseDetector::load_file(dir + "/detector.bin");
  double max_gap = 0.0;
  std::size_t steps = 0;
  std::size_t sessions = 0;
  for (const auto& line : read_lines(args.str("in"))) {
    const auto fields = misuse::split(line, '\t');
    if (fields.size() != 4) throw std::runtime_error("bad reference line: " + line);
    std::vector<int> actions;
    std::vector<std::size_t> clusters;
    for (const auto& a : misuse::split(fields[1], ' ')) actions.push_back(std::stoi(a));
    for (const auto& c : misuse::split(fields[2], ' ')) clusters.push_back(std::stoul(c));
    const auto served = misuse::split(fields[3], ' ');
    if (clusters.size() != actions.size() || served.size() != actions.size()) {
      throw std::runtime_error("length mismatch for session " + fields[0]);
    }
    // One reference forward per distinct voted cluster of the session.
    std::vector<std::size_t> distinct = clusters;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    for (const std::size_t c : distinct) {
      if (c >= detector.cluster_count()) throw std::runtime_error("cluster out of range");
      const auto& model = detector.model(c);
      auto state = model.make_state();
      std::vector<float> dist;
      for (std::size_t t = 0; t < actions.size(); ++t) {
        if (t > 0 && clusters[t] == c) {
          const double expected = dist.at(static_cast<std::size_t>(actions[t]));
          max_gap = std::max(max_gap, std::abs(expected - std::stod(served[t])));
          ++steps;
        }
        dist = model.step(state, actions[t]);
      }
    }
    ++sessions;
  }
  Result result;
  result.set("sessions", static_cast<double>(sessions));
  result.set("steps", static_cast<double>(steps));
  result.set("max_abs_gap", max_gap);
  result.print();
  return 0;
}

}  // namespace perfbench
