// The train_pipeline workload: the whole offline pipeline at the paper's
// shape, the retraining experts rerun on drift (§III).
//
//   train --seed=S
//     Draws a fixed kTrainSessions corpus from the portal, runs MisuseDetector::train
//     (LDA ensemble -> expert policy -> per-cluster OC-SVM -> per-cluster
//     LSTM) and checks what it learned: cluster purity and NMI against the
//     portal's hidden archetypes, the validation loss (every cluster's final
//     epoch, weighted by its validation sessions) against the uniform
//     baseline ln V, and the AUC of held-out normal sessions
//     over §IV-D random sessions. Stage times come from the program's own
//     spans and counters (set_training_layers).
//
//   train --seed=S --dir=D
//     The same, and writes the retrained detector to D/detector.bin and its
//     held-out traffic (each cluster's test split and the random sessions)
//     to D/replay.ndjson as one interleaved trace.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "probe.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace perfbench {
namespace {


/// Share of (positive, negative) pairs the score ranks the right way round.
double auc(const std::vector<double>& positive, const std::vector<double>& negative) {
  double wins = 0.0;
  for (const double p : positive) {
    for (const double n : negative) wins += p > n ? 1.0 : (p == n ? 0.5 : 0.0);
  }
  return wins / (static_cast<double>(positive.size()) * static_cast<double>(negative.size()));
}

double span_total(const misuse::TraceStats& root, const char* name) {
  const auto* node = misuse::find_span(root, name);
  return node == nullptr ? 0.0 : node->total_seconds;
}

double counter(const misuse::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : it->second;
}

}  // namespace

void set_training_layers(Result& result, const misuse::MetricsSnapshot& before,
                         const misuse::MetricsSnapshot& after, const misuse::TraceStats& trace,
                         double train_s) {
  double busy_nanos = 0.0;
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("pool.worker", 0) == 0) busy_nanos += value - counter(before, name);
  }
  const double gemm_nanos = counter(after, "gemm.nanos") - counter(before, "gemm.nanos");
  const double gemm_flops = counter(after, "gemm.flops") - counter(before, "gemm.flops");
  const auto* cluster_fit = misuse::find_span(trace, "lm.cluster_fit");
  result.set("topics.lda_s", span_total(trace, "lda.ensemble"));
  result.set("cluster.expert_s", span_total(trace, "expert.cluster"));
  result.set("ocsvm.train_s", span_total(trace, "ocsvm.train"));
  result.set("lm.train_s", span_total(trace, "lm.train"));
  result.set("lm.critical_cluster_s", cluster_fit == nullptr ? 0.0 : cluster_fit->max_seconds);
  result.set("tensor.gemm_gflops", gemm_nanos > 0.0 ? gemm_flops / gemm_nanos : 0.0);
  result.set("util.train_pool_busy_frac",
             busy_nanos / (1e9 * train_s * static_cast<double>(misuse::global_pool().size())));
}

int cmd_train(const misuse::CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));

  // The corpus is a fixed history of the portal, so every seed retrains
  // on the same sessions (a seeded corpus moved k between 11 and 13 and the
  // training time by ~25%); the seed draws the held-out random sessions
  // and the order of the traced run's trace.
  const double t_corpus = now_s();
  const misuse::synth::Portal portal = make_portal(kTrainSessions);
  misuse::Rng corpus_rng(29);
  misuse::SessionStore store(portal.vocab());
  for (auto& s : draw_sessions(portal, corpus_rng, kTrainSessions)) store.add(std::move(s));
  const double corpus_s = now_s() - t_corpus;
  misuse::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);

  const auto before = misuse::metrics().snapshot();
  const double t_train = now_s();
  const auto detector = misuse::core::MisuseDetector::train(
      store, paper_detector_config(portal.config().seed, kTrainSessions));
  const double train_s = now_s() - t_train;
  const double train_peak_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  const auto after = misuse::metrics().snapshot();
  const auto trace = misuse::trace_snapshot();

  // Cluster quality against the hidden archetypes (never seen by training).
  std::map<std::pair<std::size_t, int>, double> joint;
  std::map<std::size_t, double> by_cluster;
  std::map<int, double> by_archetype;
  double members = 0.0;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    for (const std::size_t i : detector.cluster(c).members) {
      const int a = store.at(i).archetype;
      joint[{c, a}] += 1.0;
      by_cluster[c] += 1.0;
      by_archetype[a] += 1.0;
      members += 1.0;
    }
  }
  std::map<std::size_t, double> cluster_max;
  double mutual = 0.0;
  for (const auto& [key, n] : joint) {
    cluster_max[key.first] = std::max(cluster_max[key.first], n);
    mutual += n / members * std::log(n * members / (by_cluster[key.first] * by_archetype[key.second]));
  }
  double purity = 0.0;
  for (const auto& [c, n] : cluster_max) purity += n / members;
  const auto entropy = [members](const auto& counts) {
    double h = 0.0;
    for (const auto& [key, n] : counts) h -= n / members * std::log(n / members);
    return h;
  };
  const double nmi = 2.0 * mutual / (entropy(by_cluster) + entropy(by_archetype));

  // Validation loss of every cluster's final epoch, against ln V.
  double worst_valid_loss = 0.0;
  double loss_sum = 0.0;
  double valid_sessions = 0.0;
  bool finite = true;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    const auto& epochs_run = detector.train_report(c).epochs;
    if (epochs_run.empty()) throw std::runtime_error("cluster without a training epoch");
    const double loss = epochs_run.back().valid_loss;
    const auto n = static_cast<double>(detector.cluster(c).valid.size());
    finite = finite && std::isfinite(loss);
    worst_valid_loss = std::max(worst_valid_loss, loss);
    loss_sum += n * loss;
    valid_sessions += n;
  }

  // Held-out normal sessions (each cluster's test split) against random ones.
  std::vector<double> normal;
  for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
    for (const std::size_t i : detector.cluster(c).test) {
      normal.push_back(detector.predict(store.at(i).view()).score.avg_likelihood());
    }
  }
  std::vector<double> random;
  const auto randoms = portal.generate_random_sessions(500, seed + 5);
  for (const auto& s : randoms.all()) random.push_back(detector.predict(s.view()).score.avg_likelihood());

  // The retrained detector and its held-out traffic, for the per-layer
  // timings of serving it (the layers subcommands).
  const std::string dir = args.str("dir");
  if (!dir.empty()) {
    {
      std::ofstream out(dir + "/detector.bin", std::ios::binary);
      misuse::BinaryWriter writer(out);
      detector.save(writer);
      if (!out) throw std::runtime_error("cannot write " + dir + "/detector.bin");
    }
    const auto id = [](char prefix, std::size_t n) {
      std::string s(1, prefix);
      s += std::to_string(n);
      return s;
    };
    std::vector<TrafficSession> pool;
    for (std::size_t c = 0; c < detector.cluster_count(); ++c) {
      for (const std::size_t i : detector.cluster(c).test) {
        pool.push_back({id('u', store.at(i).user), id('s', i), "normal", store.at(i).actions});
      }
    }
    for (std::size_t i = 0; i < randoms.size(); ++i) {
      pool.push_back({id('z', i), id('r', i), "random", randoms.at(i).actions});
    }
    write_trace(dir + "/replay.ndjson", pool, store.vocab(), rng);
  }

  Result result;
  result.set("clusters", static_cast<double>(detector.cluster_count()));
  result.set("sessions", static_cast<double>(store.size()));
  result.set("vocab", static_cast<double>(store.vocab().size()));
  result.set("train_start_s", t_train);  // monotonic clock, as run.py's time.monotonic()
  result.set("train_s", train_s);
  result.set("train_peak_rss_mb", train_peak_mb);
  result.set("purity", purity);
  result.set("nmi", nmi);
  result.set("valid_loss_finite", finite ? 1.0 : 0.0);
  result.set("valid_loss", loss_sum / valid_sessions);
  result.set("worst_valid_loss", worst_valid_loss);
  result.set("ln_vocab", std::log(static_cast<double>(store.vocab().size())));
  result.set("auc_normal_vs_random", auc(normal, random));
  result.set("synth.corpus_s", corpus_s);
  set_training_layers(result, before, after, trace, train_s);
  result.print();
  return 0;
}

}  // namespace perfbench
