// Shared pieces of the benchmark probe (perfbench_probe): the paper-shape
// detector configuration, the portal that generates every input, and
// small helpers for files, clocks, memory readings and the one-line JSON
// results perfbench/run.py parses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "sessions/vocab.hpp"
#include "synth/portal.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace perfbench {

/// Sizes of the generated inputs (perfbench/README.md, "Inputs and seeds").
constexpr std::size_t kHistorySessions = 3000;  // the serving detector's training history
constexpr std::size_t kNormalSessions = 1900;   // held-out normal sessions of the traffic pool
constexpr std::size_t kMisuseSessions = 60;     // Portal::make_misuse injections
constexpr std::size_t kRandomSessions = 40;     // §IV-D random sessions
constexpr std::size_t kTrainSessions = 4500;    // train_pipeline's corpus

/// The paper's deployment shape (§IV-A/§IV-C): ~300 actions, one-hot
/// input, 256 LSTM units, a 100-action training window, a 15-action vote
/// and a 13-cluster expert target, trained for one LSTM epoch on a corpus
/// of `corpus_sessions` (clusters under corpus_sessions / 150, at least
/// 20, are merged).
misuse::core::DetectorConfig paper_detector_config(std::uint64_t seed, std::size_t corpus_sessions);

/// The simulated administrative portal (§IV-A length law, 13 hidden
/// archetypes). Every workload uses the same one: its archetype grammars
/// are fixed, and the workload seed only draws sessions from it.
misuse::synth::Portal make_portal(std::size_t sessions);

/// `count` fresh sessions of the portal, drawn with `rng`: each archetype
/// in proportion to its prevalence (the same mix for every seed), in a
/// random order, each session from the archetype's own length law and
/// grammar. Each carries its archetype as hidden ground truth.
std::vector<misuse::Session> draw_sessions(const misuse::synth::Portal& portal, misuse::Rng& rng,
                                           std::size_t count);

/// One session of generated traffic.
struct TrafficSession {
  std::string user_id;
  std::string session_id;
  std::string kind;  // "normal" (held out from training), "misuse" or "random"
  std::vector<int> actions;
};

/// Writes `pool` to `path` as one multi-user NDJSON trace, a random merge
/// of whole sessions (every ordering that keeps each session's own order
/// is equally likely, so all sessions are open at once and interleave
/// throughout). Returns the number of events written.
std::size_t write_trace(const std::string& path, const std::vector<TrafficSession>& pool,
                        const misuse::ActionVocab& vocab, misuse::Rng& rng);

/// Monotonic seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// VmRSS / VmHWM of this process in KiB (0 when /proc is unreadable).
std::size_t rss_kb();
std::size_t peak_rss_kb();

/// Flat JSON object of named numbers, printed as one line on stdout.
class Result {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void print() const;

 private:
  std::map<std::string, double> values_;
};

/// Sets the training layers of the one MisuseDetector::train call that ran
/// between the `before` and `after` snapshots and took `train_s`: stage
/// times from the program's spans (lda.ensemble, expert.cluster,
/// ocsvm.train, lm.train, lm.cluster_fit) and the gemm rate and worker
/// pool busy share from its counters (gemm.*, pool.worker*.busy_nanos).
void set_training_layers(Result& result, const misuse::MetricsSnapshot& before,
                         const misuse::MetricsSnapshot& after, const misuse::TraceStats& trace,
                         double train_s);

/// Reads a whole file into lines (without newlines).
std::vector<std::string> read_lines(const std::string& path);

// Subcommands (argv[1]); each returns the process exit code.
int cmd_setup(const misuse::CliArgs& args);
int cmd_reference(const misuse::CliArgs& args);
int cmd_layers(const misuse::CliArgs& args);
int cmd_live_layers(const misuse::CliArgs& args);
int cmd_load(const misuse::CliArgs& args);
int cmd_train(const misuse::CliArgs& args);

}  // namespace perfbench
