// perfbench_probe: the compiled half of the benchmark (see
// perfbench/README.md). Usage: perfbench_probe <subcommand> [--flags];
// every subcommand prints its results as the last stdout line, one flat
// JSON object.
#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace perfbench {

misuse::core::DetectorConfig paper_detector_config(std::uint64_t seed, std::size_t corpus_sessions) {
  misuse::core::DetectorConfig config;
  config.ensemble.topic_counts = {10, 13, 16, 20};
  config.ensemble.iterations = 150;
  config.ensemble.seed = seed + 1;
  config.expert.target_clusters = 13;
  config.expert.min_cluster_sessions = std::max<std::size_t>(20, corpus_sessions / 150);
  config.assigner.vote_actions = 15;
  config.assigner.svm.nu = 0.1;
  config.assigner.svm.max_training_points = 2000;
  config.lm.hidden = 256;
  config.lm.layers = 1;
  config.lm.embedding_dim = 0;
  config.lm.dropout = 0.4f;
  // Full-sequence batching with the learning rate the repository's
  // experiments pair with it (core/experiment.cpp).
  config.lm.batching.mode = misuse::lm::BatchingMode::kFullSequence;
  config.lm.batching.window = 100;
  config.lm.batching.batch_size = 8;
  config.lm.learning_rate = 1e-2f;
  config.lm.epochs = 1;
  config.seed = seed + 2;
  return config;
}

misuse::synth::Portal make_portal(std::size_t sessions) {
  misuse::synth::PortalConfig config;
  config.sessions = sessions;
  // The paper's ratio: ~1,400 users for ~15,000 sessions.
  config.users = std::max<std::size_t>(10, sessions * 1400 / 15000);
  config.action_count = 300;
  config.seed = 1;
  return misuse::synth::Portal(config);
}

std::vector<misuse::Session> draw_sessions(const misuse::synth::Portal& portal, misuse::Rng& rng,
                                           std::size_t count) {
  // Archetype counts in proportion to prevalence (largest remainder), in
  // a random order.
  const auto& weights = portal.archetype_weights();
  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<std::size_t> archetypes;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t a = 0; a < weights.size(); ++a) {
    const double exact = weights[a] / total * static_cast<double>(count);
    archetypes.insert(archetypes.end(), static_cast<std::size_t>(exact), a);
    remainders.emplace_back(exact - std::floor(exact), a);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (std::size_t i = 0; archetypes.size() < count; ++i) archetypes.push_back(remainders[i].second);
  for (std::size_t i = count; i > 1; --i) std::swap(archetypes[i - 1], archetypes[rng.uniform_index(i)]);

  std::vector<misuse::Session> sessions(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t a = archetypes[i];
    sessions[i].id = i + 1;
    sessions[i].user = static_cast<std::uint32_t>(rng.uniform_index(portal.config().users));
    sessions[i].archetype = static_cast<int>(a);
    sessions[i].actions = portal.archetypes()[a].generate(rng);
  }
  return sessions;
}

namespace {
std::size_t status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stoul(line.substr(prefix.size()));
  }
  return 0;
}
}  // namespace

std::size_t rss_kb() { return status_kb("VmRSS"); }
std::size_t peak_rss_kb() { return status_kb("VmHWM"); }

void Result::print() const {
  std::ostringstream out;
  {
    misuse::JsonWriter json(out);
    json.begin_object();
    for (const auto& [name, value] : values_) {
      json.key(name);
      // Full precision: run.py reports measured values with all digits.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      json.raw_value(buf);
    }
    json.end_object();
  }
  std::cout << out.str() << std::endl;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const misuse::CliArgs args(argc, argv);
  const std::string command = args.positional().empty() ? "" : args.positional()[0];
  misuse::set_log_level(misuse::LogLevel::kWarn);
  try {
    if (command == "setup") return perfbench::cmd_setup(args);
    if (command == "reference") return perfbench::cmd_reference(args);
    if (command == "layers") return perfbench::cmd_layers(args);
    if (command == "live-layers") return perfbench::cmd_live_layers(args);
    if (command == "load") return perfbench::cmd_load(args);
    if (command == "train") return perfbench::cmd_train(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_probe setup|reference|layers|live-layers|load|train [--flags]\n";
  return 2;
}
