// Period benchmark at the paper's operating point.
//
//   period_bench --workload <cell-fig13|cell-static-mux|fleet-fullgrid>
//                --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// A period runs from the moment the previous period's KPIs reach the
// learner to the moment the next policy is back (update, select and, over
// the plane, every wire hop). Untraced runs (--trace 0) print the
// end-to-end metrics; traced runs (--trace 1) record one span per timed
// call and print the per-layer metrics. Every run replays its first periods
// through the serial in-process path and must match bit for bit; a mismatch
// or a plane failure makes the exit code non-zero. The last stdout line is
// the JSON result.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "workload.hpp"

namespace pb {

ProbeInput probe_input(const core::EdgeBol& agent, const env::Context& c) {
  return ProbeInput{agent.export_observations(kBudget), agent.cost_scale(), c};
}

void run_gp_probe(const ProbeInput& in, std::size_t threads, Spans& spans,
                  ResourceGuard& guard) {
  constexpr int kTracks = 5;
  constexpr int kCycles = 40;
  const gp::GpHyperparams hp = core::default_cost_hyperparams();
  gp::GpRegressor g(hp.make_kernel(), hp.noise_variance);
  for (const core::PseudoObservation& r : in.rows)
    g.add(r.z, r.cost / in.cost_scale);
  std::shared_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_shared<common::ThreadPool>(threads);
  g.set_thread_pool(pool);
  guard.sample();
  const auto cands = std::make_shared<const linalg::Matrix>(
      env::ControlGrid{}.candidate_feature_matrix(in.context));
  for (int k = 0; k < kTracks; ++k) {
    const double t0 = now_ms();
    g.track_candidates(cands);
    spans.record("gp.track", t0, now_ms(), -1);
  }
  for (int k = 0; k < kCycles; ++k) {
    const core::PseudoObservation& r = in.rows[k % in.rows.size()];
    const double t0 = now_ms();
    g.add(r.z, r.cost / in.cost_scale);
    const double t1 = now_ms();
    g.remove_observation(0);
    spans.record("gp.add", t0, t1, -1);
    spans.record("gp.evict_oldest", t1, now_ms(), -1);
  }
  guard.sample();
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "period_bench: %s\nusage: period_bench --workload "
               "<cell-fig13|cell-static-mux|fleet-fullgrid> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      a.workload = value();
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = value() == "1";
    } else if (!std::strcmp(argv[i], "--spans")) {
      a.spans_path = value();
    } else {
      usage("unknown argument");
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "cell-fig13") return make_cell_fig13(a.seed);
  if (a.workload == "cell-static-mux") return make_cell_static_mux(a.seed);
  if (a.workload == "fleet-fullgrid") return make_fleet_fullgrid(a.seed);
  usage("unknown workload");
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  const std::size_t cores = nproc();
  Spans spans;
  ResourceGuard guard;
  Report all;  // every value measured; the JSON line takes one list of them

  std::vector<double> setup_s;
  const auto setup = [&] {
    const double t0 = now_ms();
    w->setup(spans, guard);
    setup_s.push_back((now_ms() - t0) / 1000.0);
  };
  PassStats main_pass;
  if (!a.trace) {
    double spent_s = 0.0;
    while (setup_s.size() < kSetupMaxReps &&
           (setup_s.size() < kSetupMinReps || spent_s < kSetupMinSeconds)) {
      setup();
      spent_s += setup_s.back();
    }
    main_pass = w->run(w->units(a.seconds), spans, guard);
  } else {
    // Untraced then traced over the same periods: the same seed rebuilds the
    // same state, so the two passes run identical trajectories and their
    // period medians give the tracing overhead.
    setup();
    const PassStats untraced = w->run(w->units(a.seconds / 2), spans, guard);
    spans.enable(true);
    setup();
    main_pass = w->run(untraced.units, spans, guard);
    const double base = percentile(untraced.period_ms, 50);
    all.set("proc.trace_overhead_frac",
            base > 0 ? percentile(main_pass.period_ms, 50) / base - 1.0 : 0.0,
            "frac");
    all.set("proc.cpu_util",
            untraced.cpu_s / untraced.wall_s / static_cast<double>(cores),
            "frac");
  }
  all.set("setup_s", median(setup_s), "s");
  w->teardown(all);
  const std::size_t mismatches = w->replay(spans);
  if (a.trace) w->probe(spans, guard);
  guard.sample();

  const PassStats& p = main_pass;
  const std::size_t n = p.period_ms.size();
  all.set("period_p50_ms", percentile(p.period_ms, 50), "ms");
  all.set("period_p99_ms", percentile(p.period_ms, 99), "ms");
  all.set("period_tail_ms", percentile(p.period_ms, tail_percentile(n)), "ms");
  all.set("decisions_per_s", static_cast<double>(p.periods) / p.wall_s, "1/s");
  const double prefix =
      static_cast<double>(std::max<std::size_t>(1, p.prefix_periods));
  all.set("mean_cost", p.cost_sum / prefix, "cost");
  all.set("violation_rate", static_cast<double>(p.violations) / prefix, "frac");
  const std::size_t attempted = p.periods + mismatches;
  const std::size_t failed = p.failed + mismatches;
  all.set("failed_frac",
          attempted ? static_cast<double>(failed) / attempted : 0.0, "frac");
  all.set("peak_rss_mb", peak_rss_mb(), "MB");

  const auto layer = [&](const std::string& metric, const std::string& span,
                         double pct, std::optional<bool> retrack = {}) {
    all.set(metric, percentile(spans.durations(span, retrack), pct), "ms");
  };
  layer("core.select_retrack_p50_ms", "core.select", 50, true);
  layer("core.select_retrack_p99_ms", "core.select", 99, true);
  layer("core.select_steady_p50_ms", "core.select", 50, false);
  layer("core.select_steady_p99_ms", "core.select", 99, false);
  layer("core.update_p50_ms", "core.update", 50);
  layer("core.update_p99_ms", "core.update", 99);
  layer("core.fleet_decide_batch_p50_ms", "core.fleet_decide_batch", 50);
  layer("core.fleet_decide_batch_p99_ms", "core.fleet_decide_batch", 99);
  layer("core.fleet_update_batch_p50_ms", "core.fleet_update_batch", 50);
  layer("core.fleet_update_batch_p99_ms", "core.fleet_update_batch", 99);
  layer("gp.track_p50_ms", "gp.track", 50);
  layer("gp.add_p50_ms", "gp.add", 50);
  layer("gp.evict_oldest_p50_ms", "gp.evict_oldest", 50);
  layer("oran.plane_step_p50_ms", "oran.plane_step", 50);
  layer("oran.plane_step_p99_ms", "oran.plane_step", 99);
  layer("oran.handshake_ms", "oran.handshake", 50);
  layer("env.step_p50_ms", "env.step", 50);
  all.set("core.retracks", static_cast<double>(p.retracks), "count");
  all.set("core.retrack_frac", static_cast<double>(p.retracks) / prefix,
          "frac");
  all.set("core.s0_fallbacks", static_cast<double>(p.s0_fallbacks), "count");
  all.set("core.fleet_batch_cells_mean",
          p.units ? static_cast<double>(p.periods) / p.units : 0.0, "count");
  // Computed, not measured: n x |X| x 8 B per surrogate, three surrogates.
  all.set("gp.acache_mb",
          static_cast<double>(w->learners() * kBudget *
                              env::ControlGrid{}.size() * 8 * 3) /
              (1024.0 * 1024.0),
          "MB");

  Report out;
  out.workload = a.workload;
  out.seed = a.seed;
  out.traced = a.trace;
  out.attempted = attempted;
  out.failed = failed;
  const bool resources_ok = guard.within(cores);
  out.correct = mismatches == 0 && p.failed == 0 && resources_ok;
  const auto& listed = a.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, unit] : listed) {
    auto it = all.metrics.find(name);
    if (it == all.metrics.end()) {
      out.set(name, 0.0, unit.c_str());
      out.not_applicable.push_back(name);
    } else {
      out.metrics[name] = it->second;
      const bool timed = unit == "ms";
      if (timed && it->second.value == 0.0) out.not_applicable.push_back(name);
    }
  }
  for (const auto& [name, m] : all.metrics)
    if (!out.metrics.count(name)) out.extra[name] = m;
  out.note("nproc", std::to_string(cores));
  out.note("learner_threads", std::to_string(w->learner_threads()));
  out.note("build_type", PERIODBENCH_BUILD_TYPE);
  out.note("seed", std::to_string(a.seed));
  out.note("period_samples", std::to_string(n));
  out.note("samples_beyond_p99",
           std::to_string(samples_beyond(n, 99)) +
               (tail_is_resolved(n, 99) ? "" : " (fewer than ten)"));
  out.note("period_tail_ms", "p" + std::to_string(static_cast<int>(
                                       tail_percentile(n))) +
                                 " (highest of p99/p98/p95/p90 with " +
                                 std::to_string(kTailBeyond) +
                                 " samples beyond)");
  out.note("quality_prefix_periods", std::to_string(p.prefix_periods));
  out.note("peak_threads", std::to_string(guard.peak_threads()) + " (limit " +
                               std::to_string(cores) + ")");
  out.note("peak_connections", std::to_string(guard.peak_connections()) +
                                   " (limit " + std::to_string(cores) + ")");
  out.note("replay_mismatches", std::to_string(mismatches));
  out.note("gp.acache_mb", "computed from the shape, not measured");

  if (a.trace && !a.spans_path.empty() && !spans.write(a.spans_path)) {
    std::fprintf(stderr, "period_bench: cannot write spans to %s\n",
                 a.spans_path.c_str());
    return 1;
  }
  if (!resources_ok)
    std::fprintf(stderr,
                 "period_bench: resource guard: %zu threads, %zu connections "
                 "for nproc %zu\n",
                 guard.peak_threads(), guard.peak_connections(), cores);
  if (mismatches)
    std::fprintf(stderr, "period_bench: replay mismatch in %zu periods\n",
                 mismatches);
  out.print();
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large block is freed, so the
  // repeated set-ups would leave later A-caches on the heap and peak RSS
  // would depend on thread interleaving. A fixed threshold keeps every large
  // block mmapped and peak_rss_mb a measure of live data.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const pb::Args args = pb::parse(argc, argv);
  try {
    return pb::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "period_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
