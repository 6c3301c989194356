// The workload interface period_bench.cpp runs, and the closed cell loop
// the two single-cell workloads share.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support.hpp"

namespace pb {

/// Loop units per second of --seconds, per workload: a unit is a period for
/// a cell and a batch for the fleet. A pass runs a fixed number of units,
/// not a time window, so every run of a seed measures the same slice of the
/// trajectory (a window would hold fewer re-tracks or heavy batches on a
/// slower host). The rates size that work to about --seconds on the
/// reference host (4-vCPU Xeon, README).
inline std::size_t units_for(double seconds, double units_per_second,
                             std::size_t at_least) {
  const auto n = static_cast<std::size_t>(seconds * units_per_second + 0.5);
  return n > at_least ? n : at_least;
}

/// What one pass of a workload's loop measured.
struct PassStats {
  std::vector<double> period_ms;  // one sample per (cell-)period
  std::size_t units = 0;          // loop iterations
  std::size_t periods = 0;        // (cell-)periods completed
  std::size_t failed = 0;         // periods without policy/KPIs
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Fixed-length prefix (the first periods of every cell): deterministic
  // per seed, independent of machine speed.
  double cost_sum = 0.0;
  std::size_t prefix_periods = 0;
  std::size_t violations = 0;
  std::size_t retracks = 0;
  std::size_t s0_fallbacks = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads of each learner's pool (counting the caller).
  virtual std::size_t learner_threads() const = 0;
  /// Learners alive during the loop (for the computed A-cache size).
  virtual std::size_t learners() const = 0;

  /// Build env(s) and learner(s) at the operating point, replacing any
  /// previous instance (so repeated set-ups never hold two at once).
  virtual void setup(Spans& spans, ResourceGuard& guard) = 0;
  /// Loop units one pass runs for `seconds` of measurement.
  virtual std::size_t units(double seconds) const = 0;
  /// Run `units` loop units (the fleet also finishes its quality prefix).
  virtual PassStats run(std::size_t units, Spans& spans,
                        ResourceGuard& guard) = 0;
  /// Release the live instance, recording its end-of-run counters.
  virtual void teardown(Report& report) = 0;
  /// Serial in-process replay of the recorded trajectory prefix; returns
  /// the number of periods that do not match bit for bit.
  virtual std::size_t replay(Spans& spans) = 0;
  /// Time GpRegressor calls on a standalone regressor rebuilt from the
  /// learner's exported observations (traced runs only).
  virtual void probe(Spans& spans, ResourceGuard& guard) = 0;
};

std::unique_ptr<Workload> make_cell_fig13(std::uint64_t seed);
std::unique_ptr<Workload> make_cell_static_mux(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_fullgrid(std::uint64_t seed);

/// Rows a probe rebuilds its regressor from, plus the context it tracks.
struct ProbeInput {
  std::vector<core::PseudoObservation> rows;
  double cost_scale = 1.0;
  env::Context context{};
};
ProbeInput probe_input(const core::EdgeBol& agent, const env::Context& c);
void run_gp_probe(const ProbeInput& in, std::size_t threads, Spans& spans,
                  ResourceGuard& guard);

/// The closed loop of one cell: the env returns the KPIs of the pending
/// decision, the learner updates, and the next decision is selected. Over
/// the plane (`plane_in_period`) the env step is the wire round trip and
/// counts in the period; in-process it is the simulator and does not.
/// `failed(m)` flags a period whose KPIs never arrived.
template <typename Env, typename Failed>
PassStats run_cell_loop(core::EdgeBol& agent, Env& env, core::Decision& d,
                        env::Context& c, RetrackClassifier& classifier,
                        std::size_t units, std::size_t prefix,
                        std::size_t replay_len, bool plane_in_period,
                        const char* step_span, Failed failed, Spans& spans,
                        ResourceGuard& guard,
                        std::vector<StepRecord>* trajectory) {
  PassStats st;
  const double t_begin = now_ms();
  const double cpu_begin = cpu_seconds();
  while (st.units < units) {
    const auto period = static_cast<std::int64_t>(st.units);
    const double t0 = now_ms();
    const env::Measurement m = env.step(d.policy);
    const double t1 = now_ms();
    spans.record(step_span, t0, t1, period);
    const bool lost = failed(m);
    if (trajectory && trajectory->size() < replay_len)
      trajectory->push_back(record_step(d, m));
    if (st.units < prefix) {
      st.cost_sum += period_cost(agent, m);
      st.violations += period_violates(agent, m);
      ++st.prefix_periods;
    }
    agent.update(c, d.policy_index, m);
    const double t2 = now_ms();
    spans.record("core.update", t1, t2, period);
    c = env.context();
    const bool retrack = classifier.next(c);
    d = agent.select(c);
    const double t3 = now_ms();
    spans.record("core.select", t2, t3, period, retrack);
    spans.record("period", plane_in_period ? t0 : t1, t3, period);
    st.period_ms.push_back(t3 - (plane_in_period ? t0 : t1));
    if (st.units < prefix) {
      st.retracks += retrack;
      st.s0_fallbacks += d.fell_back_to_s0;
    }
    st.failed += lost;
    ++st.units;
    ++st.periods;
    if (st.units % 64 == 0) guard.sample();
  }
  st.wall_s = (now_ms() - t_begin) / 1000.0;
  st.cpu_s = cpu_seconds() - cpu_begin;
  guard.sample();
  return st;
}

/// Serial in-process replay of a cell: the same sweep and first track on a
/// fresh env and a one-thread learner, then `len` periods. Its env steps are
/// timed (the plane workload has no other in-process Testbed::step).
template <typename Env>
std::vector<StepRecord> replay_cell(Env& env, std::uint64_t seed,
                                    std::size_t len, Spans& spans) {
  core::EdgeBol agent(env::ControlGrid{}, op_config(1));
  core::Decision d =
      warm_start(agent, env, Rng::derive_stream(seed, kSweepStream));
  std::vector<StepRecord> out;
  env::Context c = env.context();
  for (std::size_t t = 0; t < len; ++t) {
    const double t0 = now_ms();
    const env::Measurement m = env.step(d.policy);
    spans.record("env.step", t0, now_ms(), -1);
    out.push_back(record_step(d, m));
    agent.update(c, d.policy_index, m);
    c = env.context();
    d = agent.select(c);
  }
  return out;
}

}  // namespace pb
