// fleet-fullgrid: 16 heterogeneous FleetSim cells (base SNR U[18, 38] dB,
// 1-4 users) on one FleetEngine whose pool has every core. Each learner is
// serial and the parallelism runs across the cells of a due batch; a tick of
// 0.25 s makes batches hold several cells, so one multi-user cell's serial
// re-track holds up its whole batch. Memory is the 16 learners' A-caches.

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "workload.hpp"

namespace pb {
namespace {

constexpr std::size_t kCells = 16;
constexpr double kTickS = 0.25;
constexpr std::size_t kPrefix = 8;  // periods per cell
constexpr std::size_t kReplay = 8;  // periods of cell 0
constexpr double kBatchesPerSecond = 1.9;
// The deployment (each cell's SNR, users, period and channel streams) is part
// of the workload, not of the seed: with 16 cells, which cells a seed draws
// multi-user or low-SNR sets the fleet's load, and that would swamp the
// run-to-run spread. The workload seed drives every cell's pre-production
// sweep, and through it the whole learning trajectory.
constexpr std::uint64_t kDeploymentSeed = 1;

env::FleetScenario fleet_scenario(std::size_t cells) {
  env::FleetScenario sc;
  sc.num_cells = cells;
  sc.seed = kDeploymentSeed;
  sc.tick_s = kTickS;
  return sc;
}

class FleetFullgrid final : public Workload {
 public:
  explicit FleetFullgrid(std::uint64_t seed) : seed_(seed) {}

  std::size_t learner_threads() const override { return 1; }
  std::size_t learners() const override { return kCells; }

  void setup(Spans&, ResourceGuard& guard) override {
    live_.reset();
    live_ = std::make_unique<Live>();
    Live& l = *live_;
    l.sim = std::make_unique<env::FleetSim>(fleet_scenario(kCells));
    core::FleetEngineConfig ec;
    ec.num_threads = nproc();
    ec.cell = op_config(1);
    l.engine = std::make_unique<core::FleetEngine>(env::ControlGrid{}, ec);
    std::vector<std::function<void()>> sweeps;
    for (std::size_t i = 0; i < kCells; ++i) {
      l.engine->add_cell();
      // sync: each task touches only cell i's learner and testbed.
      sweeps.push_back([&l, i, this] {
        preproduction_sweep(l.engine->cell(i), l.sim->testbed(i),
                            Rng::derive_stream(seed_, kSweepStream + i));
      });
    }
    if (common::ThreadPool* pool = l.engine->pool()) {
      pool->run_tasks(sweeps);
    } else {
      for (auto& s : sweeps) s();
    }
    // The first track of every cell, as one batched decision.
    std::vector<std::size_t> ids(kCells);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    l.context.resize(kCells);
    l.decision.resize(kCells);
    for (std::size_t i = 0; i < kCells; ++i)
      l.context[i] = l.sim->testbed(i).context();
    l.engine->decide_batch(ids, l.context, l.decision);
    l.classifier.assign(kCells,
                        RetrackClassifier(op_config(1).tracking_tolerance));
    for (std::size_t i = 0; i < kCells; ++i) l.classifier[i].next(l.context[i]);
    guard.sample();
  }

  std::size_t units(double seconds) const override {
    return units_for(seconds, kBatchesPerSecond, 1);
  }

  PassStats run(std::size_t units, Spans& spans,
                ResourceGuard& guard) override {
    Live& l = *live_;
    PassStats st;
    trajectory_.clear();
    std::vector<std::size_t> done(kCells, 0), due;
    std::vector<env::Context> ctx, next_ctx;
    std::vector<core::Decision> dec, next_dec;
    std::vector<env::ControlPolicy> policies;
    std::vector<env::Measurement> meas;
    const double t_begin = now_ms();
    const double cpu_begin = cpu_seconds();
    for (;;) {
      const std::size_t least = *std::min_element(done.begin(), done.end());
      if (st.units >= units && least >= kPrefix) break;
      const auto batch = static_cast<std::int64_t>(st.units);
      const auto span = l.sim->next_due();
      due.assign(span.begin(), span.end());
      const std::size_t k = due.size();
      ctx.resize(k);
      dec.resize(k);
      policies.resize(k);
      meas.resize(k);
      next_ctx.resize(k);
      next_dec.resize(k);
      for (std::size_t j = 0; j < k; ++j) {
        ctx[j] = l.context[due[j]];
        dec[j] = l.decision[due[j]];
        policies[j] = dec[j].policy;
      }
      const double t0 = now_ms();
      l.sim->step_due(policies, meas, l.engine->pool());
      const double t1 = now_ms();
      l.engine->update_batch(due, ctx, dec, meas);
      const double t2 = now_ms();
      l.sim->due_contexts(next_ctx);
      l.engine->decide_batch(due, next_ctx, next_dec);
      const double t3 = now_ms();
      spans.record("env.step", t0, t1, batch);
      spans.record("core.fleet_update_batch", t1, t2, batch);
      spans.record("core.fleet_decide_batch", t2, t3, batch);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t cell = due[j];
        const core::EdgeBol& agent = l.engine->cell(cell);
        const bool retrack = l.classifier[cell].next(next_ctx[j]);
        if (done[cell] < kPrefix) {
          st.cost_sum += period_cost(agent, meas[j]);
          st.violations += period_violates(agent, meas[j]);
          st.retracks += retrack;
          st.s0_fallbacks += next_dec[j].fell_back_to_s0;
          ++st.prefix_periods;
        }
        if (cell == 0 && trajectory_.size() < kReplay)
          trajectory_.push_back(record_step(dec[j], meas[j]));
        st.failed += !kpis_arrived(meas[j]);
        l.context[cell] = next_ctx[j];
        l.decision[cell] = next_dec[j];
        ++done[cell];
        st.period_ms.push_back(t3 - t1);
        spans.record("period", t1, t3, batch);
      }
      st.periods += k;
      ++st.units;
      if (st.units % 16 == 0) guard.sample();
    }
    st.wall_s = (now_ms() - t_begin) / 1000.0;
    st.cpu_s = cpu_seconds() - cpu_begin;
    guard.sample();
    return st;
  }

  void teardown(Report&) override {
    probe_ = probe_input(live_->engine->cell(0), live_->context[0]);
    live_.reset();
  }

  // Cell 0 alone: FleetSim cell streams derive from (seed, id), so a
  // one-cell fleet reproduces it; a plain serial EdgeBol learns it. The
  // replay's select/update spans are the fleet's per-cell layer timings.
  std::size_t replay(Spans& spans) override {
    env::FleetSim sim(fleet_scenario(1));
    core::EdgeBol agent(env::ControlGrid{}, op_config(1));
    RetrackClassifier classifier(op_config(1).tracking_tolerance);
    preproduction_sweep(agent, sim.testbed(0),
                        Rng::derive_stream(seed_, kSweepStream));
    env::Context c = sim.testbed(0).context();
    classifier.next(c);
    core::Decision d = agent.select(c);
    std::vector<StepRecord> got;
    std::vector<env::Measurement> m(1);
    std::vector<env::Context> next(1);
    while (got.size() < kReplay) {
      const auto due = sim.next_due();
      if (due.size() != 1 || due[0] != 0) break;
      const env::ControlPolicy policy = d.policy;
      sim.step_due({&policy, 1}, m);
      got.push_back(record_step(d, m[0]));
      const auto period = static_cast<std::int64_t>(got.size() - 1);
      const double t0 = now_ms();
      agent.update(c, d.policy_index, m[0]);
      const double t1 = now_ms();
      sim.due_contexts(next);
      c = next[0];
      const bool retrack = classifier.next(c);
      d = agent.select(c);
      const double t2 = now_ms();
      spans.record("core.update", t0, t1, period);
      spans.record("core.select", t1, t2, period, retrack);
    }
    return replay_mismatches(trajectory_, got);
  }

  void probe(Spans& spans, ResourceGuard& guard) override {
    run_gp_probe(probe_, learner_threads(), spans, guard);
  }

 private:
  struct Live {
    std::unique_ptr<env::FleetSim> sim;
    std::unique_ptr<core::FleetEngine> engine;
    std::vector<RetrackClassifier> classifier;
    std::vector<env::Context> context;     // per cell, of its pending decision
    std::vector<core::Decision> decision;  // per cell, pending
  };

  std::uint64_t seed_;
  std::unique_ptr<Live> live_;
  std::vector<StepRecord> trajectory_;
  ProbeInput probe_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_fullgrid(std::uint64_t seed) {
  return std::make_unique<FleetFullgrid>(seed);
}

}  // namespace pb
