// cell-fig13: one in-process cell on the Fig. 13 testbed, whose mean SNR
// sweeps 5-38 dB, so the context moves and a share of periods re-track. The
// learner pool uses every core; there is no wire.

#include <optional>

#include "workload.hpp"

namespace pb {
namespace {

constexpr std::size_t kPrefix = 192;  // four sweeps of the SNR trace
constexpr std::size_t kReplay = 16;
constexpr double kPeriodsPerSecond = 20.0;

env::Testbed fig13_testbed(std::uint64_t seed) {
  env::TestbedConfig tcfg;
  tcfg.seed = derived_seed(seed, kTestbedStream);
  return env::make_dynamic_testbed(5.0, 38.0, 6, 4, tcfg);
}

class CellFig13 final : public Workload {
 public:
  explicit CellFig13(std::uint64_t seed) : seed_(seed) {}

  std::size_t learner_threads() const override { return nproc(); }
  std::size_t learners() const override { return 1; }

  void setup(Spans&, ResourceGuard& guard) override {
    live_.reset();
    live_.emplace(seed_);
    guard.sample();
  }

  std::size_t units(double seconds) const override {
    return units_for(seconds, kPeriodsPerSecond, kPrefix);
  }

  PassStats run(std::size_t units, Spans& spans,
                ResourceGuard& guard) override {
    Live& l = *live_;
    trajectory_.clear();
    return run_cell_loop(
        l.agent, l.testbed, l.decision, l.context, l.classifier, units,
        kPrefix, kReplay, /*plane_in_period=*/false, "env.step",
        [](const env::Measurement& m) { return !kpis_arrived(m); }, spans,
        guard,
        &trajectory_);
  }

  void teardown(Report&) override {
    probe_ = probe_input(live_->agent, live_->context);
    live_.reset();
  }

  std::size_t replay(Spans& spans) override {
    env::Testbed tb = fig13_testbed(seed_);
    return replay_mismatches(trajectory_,
                             replay_cell(tb, seed_, kReplay, spans));
  }

  void probe(Spans& spans, ResourceGuard& guard) override {
    run_gp_probe(probe_, learner_threads(), spans, guard);
  }

 private:
  struct Live {
    env::Testbed testbed;
    core::EdgeBol agent;
    RetrackClassifier classifier;
    core::Decision decision;
    env::Context context;

    explicit Live(std::uint64_t seed)
        : testbed(fig13_testbed(seed)),
          agent(env::ControlGrid{}, op_config(nproc())),
          classifier(op_config(1).tracking_tolerance) {
      decision = warm_start(agent, testbed,
                            Rng::derive_stream(seed, kSweepStream));
      context = testbed.context();
      classifier.next(context);  // the set-up's first track
    }
  };

  std::uint64_t seed_;
  std::optional<Live> live_;
  std::vector<StepRecord> trajectory_;
  ProbeInput probe_;
};

}  // namespace

std::unique_ptr<Workload> make_cell_fig13(std::uint64_t seed) {
  return std::make_unique<CellFig13>(seed);
}

}  // namespace pb
