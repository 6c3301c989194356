// cell-static-mux: one cell at a steady 35 dB driven through the three-role
// split (NonRtRicNode / NearRtRicNode / EnvNode) over the multiplexed plane
// on loopback: three connections, the envelope codec, and one event-loop
// thread plus two role threads. The learner pool gets the cores left over.
// The context never moves, so periods are update-bound and the wire is a
// visible share of them.

#include <memory>
#include <stdexcept>

#include "plane_harness.hpp"
#include "workload.hpp"

namespace pb {
namespace {

constexpr std::size_t kPrefix = 400;
constexpr std::size_t kReplay = 64;
constexpr double kPeriodsPerSecond = 34.0;
constexpr double kSnrDb = 35.0;
// Threads besides the learner's caller: the event loop and the NearRT and
// Env role threads.
constexpr std::size_t kPlaneThreads = 3;

env::Testbed static_testbed(std::uint64_t seed) {
  env::TestbedConfig tcfg;
  tcfg.seed = derived_seed(seed, kTestbedStream);
  return env::make_static_testbed(kSnrDb, tcfg);
}

class CellStaticMux final : public Workload {
 public:
  explicit CellStaticMux(std::uint64_t seed) : seed_(seed) {}

  std::size_t learner_threads() const override {
    const std::size_t n = nproc();
    return n > kPlaneThreads ? n - kPlaneThreads : 1;
  }
  std::size_t learners() const override { return 1; }

  void setup(Spans& spans, ResourceGuard& guard) override {
    live_.reset();
    live_ = std::make_unique<Live>();
    Live& l = *live_;
    l.plane = std::make_unique<plane::MuxPlane>();
    l.nodes = std::make_unique<plane::PlaneNodes>(l.plane->links(),
                                                  static_testbed(seed_));
    const double h0 = now_ms();
    if (!l.nodes->nonrt.handshake())
      throw std::runtime_error("cell-static-mux: plane handshake failed");
    spans.record("oran.handshake", h0, now_ms(), -1);
    l.agent = std::make_unique<core::EdgeBol>(env::ControlGrid{},
                                              op_config(learner_threads()));
    l.decision = warm_start(*l.agent, l.nodes->nonrt,
                            Rng::derive_stream(seed_, kSweepStream));
    l.context = l.nodes->nonrt.context();
    l.classifier.next(l.context);
    guard.sample();
  }

  std::size_t units(double seconds) const override {
    return units_for(seconds, kPeriodsPerSecond, kPrefix);
  }

  PassStats run(std::size_t units, Spans& spans,
                ResourceGuard& guard) override {
    Live& l = *live_;
    oran::NonRtRicNode& node = l.nodes->nonrt;
    const auto troubles = [&node] {
      return node.kpi_losses() + node.policy_delivery_failures();
    };
    std::size_t seen = troubles();
    const auto failed = [&](const env::Measurement& m) {
      const std::size_t now = troubles();
      const bool bad = now != seen || !kpis_arrived(m);
      seen = now;
      return bad;
    };
    trajectory_.clear();
    return run_cell_loop(*l.agent, node, l.decision, l.context, l.classifier,
                         units, kPrefix, kReplay, /*plane_in_period=*/true,
                         "oran.plane_step", failed, spans, guard,
                         &trajectory_);
  }

  void teardown(Report& report) override {
    Live& l = *live_;
    plane::PlaneNodes& n = *l.nodes;
    // The role counters are read once their threads have stopped.
    n.stop.store(true);
    n.links.nearrt_ready->notify();
    n.links.env_ready->notify();
    n.nearrt_thread.join();
    n.env_thread.join();
    report.set("oran.kpi_losses", static_cast<double>(n.nonrt.kpi_losses()),
               "count");
    report.set("oran.delivery_failures",
               static_cast<double>(n.nonrt.policy_delivery_failures()),
               "count");
    report.set("oran.decode_rejects",
               static_cast<double>(n.nonrt.decode_rejects() +
                                   n.nearrt.decode_rejects() +
                                   n.envnode.decode_rejects()),
               "count");
    probe_ = probe_input(*l.agent, l.context);
    live_.reset();
  }

  std::size_t replay(Spans& spans) override {
    env::Testbed tb = static_testbed(seed_);
    return replay_mismatches(trajectory_,
                             replay_cell(tb, seed_, kReplay, spans));
  }

  void probe(Spans& spans, ResourceGuard& guard) override {
    run_gp_probe(probe_, learner_threads(), spans, guard);
  }

 private:
  // Members destroy in reverse order: learner, roles, then the plane the
  // roles' transports live on.
  struct Live {
    std::unique_ptr<plane::MuxPlane> plane;
    std::unique_ptr<plane::PlaneNodes> nodes;
    std::unique_ptr<core::EdgeBol> agent;
    RetrackClassifier classifier{op_config(1).tracking_tolerance};
    core::Decision decision;
    env::Context context;
  };

  std::uint64_t seed_;
  std::unique_ptr<Live> live_;
  std::vector<StepRecord> trajectory_;
  ProbeInput probe_;
};

}  // namespace

std::unique_ptr<Workload> make_cell_static_mux(std::uint64_t seed) {
  return std::make_unique<CellStaticMux>(seed);
}

}  // namespace pb
