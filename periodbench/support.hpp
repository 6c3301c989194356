// Shared pieces of the period benchmark: the operating-point set-up, the
// re-track classifier, nearest-rank percentiles, the span recorder, the
// process resource guard, and the run report.
//
// Every number comes from timing public calls from outside the library
// (EdgeBol, FleetEngine, GpRegressor, NonRtRicNode, Testbed, FleetSim); the
// benchmark reads no library-internal statistics struct.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <edgebol/edgebol.hpp>

namespace pb {

using namespace edgebol;

// ---------------------------------------------------------------- timing

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty set.
double percentile(std::vector<double> xs, double p);

/// Samples strictly above the nearest-rank p-th percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);

/// Whether a p-th percentile over n samples has at least ten samples beyond
/// it (the rule for reporting that percentile as a tail latency).
inline bool tail_is_resolved(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// The tail percentile reported for n samples: the highest of p99, p98,
/// p95 and p90 that leaves kTailBeyond samples beyond it (p90 when none
/// does). Twenty rather than ten: on a shared host a burst of contention
/// slows about ten consecutive periods, which alone would move a percentile
/// with ten samples beyond it.
inline constexpr std::size_t kTailBeyond = 20;
double tail_percentile(std::size_t n);

// ------------------------------------------------------- operating point

/// The paper's operating point (ROADMAP, "Performance"): full 11^4 grid,
/// three surrogates, observation budget 200, default tracking tolerance,
/// Fig. 13 weights and constraints.
inline constexpr std::size_t kBudget = 200;
// setup_s is the median of repeated set-ups: at least kSetupMinReps and at
// least kSetupMinSeconds in total (cheap set-ups repeat more), at most
// kSetupMaxReps.
inline constexpr std::size_t kSetupMinReps = 3;
inline constexpr std::size_t kSetupMaxReps = 15;
inline constexpr double kSetupMinSeconds = 2.0;

core::EdgeBolConfig op_config(std::size_t num_threads);

/// Seeded pre-production sweep (§4.2): kBudget uniformly drawn grid policies
/// run on `env`, fed to the learner as prior observations. `Env` is anything
/// with context() and step(policy) (Testbed, NonRtRicNode).
template <typename Env>
void preproduction_sweep(core::EdgeBol& agent, Env& env, Rng rng) {
  const env::ControlGrid& grid = agent.grid();
  for (std::size_t i = 0; i < kBudget; ++i) {
    const env::Context c = env.context();
    const env::ControlPolicy& p = grid.policy(rng.uniform_index(grid.size()));
    const env::Measurement m = env.step(p);
    agent.add_prior_observation(c, p, m);
  }
}

/// The whole operating-point set-up of one learner: sweep, then the first
/// select (the initial full track). Returns that first decision.
template <typename Env>
core::Decision warm_start(core::EdgeBol& agent, Env& env, Rng rng) {
  preproduction_sweep(agent, env, rng);
  return agent.select(env.context());
}

/// Stream ids under the workload seed (Rng::derive_stream entity ids).
inline constexpr std::uint64_t kTestbedStream = 1;
inline constexpr std::uint64_t kSweepStream = 1000;  // + cell id

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t stream);

/// Mirrors EdgeBol's documented re-track rule: select() rebuilds the tracked
/// caches when no context is tracked yet or when any normalized context
/// feature (Context::to_features) moved by more than tracking_tolerance
/// from the context tracked last.
class RetrackClassifier {
 public:
  explicit RetrackClassifier(double tolerance) : tol_(tolerance) {}
  /// Classify the next select() at `c`, advancing the tracked context.
  bool next(const env::Context& c);

 private:
  double tol_;
  std::optional<linalg::Vector> tracked_;
};

/// Whether all four KPIs of a period arrived (a lost sample reads NaN).
bool kpis_arrived(const env::Measurement& m);

/// Realised objective of one period (eq. 1) and its constraint check.
double period_cost(const core::EdgeBol& agent, const env::Measurement& m);
bool period_violates(const core::EdgeBol& agent, const env::Measurement& m);

/// One period of a trajectory, for the bit-for-bit replay check.
struct StepRecord {
  std::size_t policy_index = 0;
  std::size_t safe_set_size = 0;
  double delay_s = 0.0, map = 0.0, server_power_w = 0.0, bs_power_w = 0.0;
  bool operator==(const StepRecord&) const = default;
};
StepRecord record_step(const core::Decision& d, const env::Measurement& m);

/// Periods of `got` that differ from `ref` (missing ones count).
std::size_t replay_mismatches(const std::vector<StepRecord>& ref,
                              const std::vector<StepRecord>& got);

// ------------------------------------------------------------------ spans

/// In-memory span log. When disabled every record() is a no-op, so the
/// untraced runs carry only the period clock reads.
class Spans {
 public:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    std::int64_t period;  // parent period (-1: set-up / probe)
    bool retrack;         // core.select only
  };

  void enable(bool on) {
    on_ = on;
    if (on) log_.reserve(1 << 18);
  }
  void record(const char* name, double start_ms, double end_ms,
              std::int64_t period, bool retrack = false) {
    if (on_) log_.push_back(Span{name, start_ms, end_ms, period, retrack});
  }
  /// Durations (ms) of every span named `name`; `retrack` filters
  /// core.select spans when set.
  std::vector<double> durations(const std::string& name,
                                std::optional<bool> retrack = {}) const;
  /// Write the log as JSON lines. Returns false on an I/O failure.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> log_;
};

// ------------------------------------------------------------- resources

std::size_t nproc();
std::size_t thread_count();       // entries of /proc/self/task
std::size_t connection_count();   // TCP connections this process dialed
double peak_rss_mb();             // VmHWM
double cpu_seconds();             // user + system, getrusage

/// Peak thread and connection counts, sampled by the workloads at set-up,
/// during the loop and around the probes, checked against nproc.
class ResourceGuard {
 public:
  void sample();
  std::size_t peak_threads() const { return threads_; }
  std::size_t peak_connections() const { return conns_; }
  bool within(std::size_t limit) const {
    return threads_ <= limit && conns_ <= limit;
  }

 private:
  std::size_t threads_ = 0;
  std::size_t conns_ = 0;
};

// ---------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: a human table, then one JSON line.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;     // emitted in the JSON line
  std::map<std::string, Metric> extra;       // printed, not emitted
  std::map<std::string, std::string> notes;  // human table only
  std::vector<std::string> not_applicable;   // per-layer rows with no samples

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  void print() const;
};

/// Names and units of the metrics a run emits: untraced runs the end-to-end
/// list, traced runs the per-layer one (kept equal to BENCHMARK.json; run.py
/// and the self-test check it). period_p99_ms, violation_rate and
/// failed_frac are end-to-end in meaning but sit in the per-layer list: a
/// run leaves fewer than ten samples beyond p99 (period_tail_ms is the
/// gated tail), and the other two count a handful of events (failed_frac is
/// 0 on a healthy build), so no spread bound can hold for them across
/// seeds. Every run prints them.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace pb
