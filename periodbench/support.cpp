#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <sstream>

namespace pb {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t r = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, xs.size());
  return xs[r - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n);
  return n - rank;
}

double tail_percentile(std::size_t n) {
  for (double p : {99.0, 98.0, 95.0})
    if (samples_beyond(n, p) >= kTailBeyond) return p;
  return 90.0;
}

core::EdgeBolConfig op_config(std::size_t num_threads) {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.6, 0.5};
  cfg.gp_budget = kBudget;
  cfg.num_threads = num_threads;
  return cfg;
}

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r = Rng::derive_stream(seed, stream);
  return (static_cast<std::uint64_t>(r()) << 32) | r();
}

bool RetrackClassifier::next(const env::Context& c) {
  const linalg::Vector f = c.to_features();
  bool moved = !tracked_ || tracked_->size() != f.size();
  for (std::size_t i = 0; !moved && i < f.size(); ++i)
    moved = std::abs((*tracked_)[i] - f[i]) > tol_;
  if (moved) tracked_ = f;
  return moved;
}

bool kpis_arrived(const env::Measurement& m) {
  return std::isfinite(m.delay_s) && std::isfinite(m.map) &&
         std::isfinite(m.server_power_w) && std::isfinite(m.bs_power_w);
}

double period_cost(const core::EdgeBol& agent, const env::Measurement& m) {
  return agent.weights().cost(m.server_power_w, m.bs_power_w);
}

bool period_violates(const core::EdgeBol& agent, const env::Measurement& m) {
  return m.delay_s > agent.constraints().d_max_s ||
         m.map < agent.constraints().map_min;
}

StepRecord record_step(const core::Decision& d, const env::Measurement& m) {
  return StepRecord{d.policy_index, d.safe_set_size, m.delay_s,
                    m.map,          m.server_power_w, m.bs_power_w};
}

std::size_t replay_mismatches(const std::vector<StepRecord>& ref,
                              const std::vector<StepRecord>& got) {
  std::size_t bad = ref.size() > got.size() ? ref.size() - got.size() : 0;
  for (std::size_t i = 0; i < std::min(ref.size(), got.size()); ++i)
    bad += !(ref[i] == got[i]);
  return bad;
}

std::vector<double> Spans::durations(const std::string& name,
                                     std::optional<bool> retrack) const {
  std::vector<double> out;
  for (const Span& s : log_) {
    if (name != s.name) continue;
    if (retrack && s.retrack != *retrack) continue;
    out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  for (const Span& s : log_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
       << ",\"end_ms\":" << s.end_ms << ",\"period\":" << s.period;
    if (std::string(s.name) == "core.select")
      os << ",\"retrack\":" << (s.retrack ? "true" : "false");
    os << "}\n";
  }
  return static_cast<bool>(os);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return n;
}

namespace {

// Socket inodes held by this process (/proc/self/fd links "socket:[N]").
std::set<std::string> own_socket_inodes() {
  std::set<std::string> inodes;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    std::error_code lec;
    const std::string target =
        std::filesystem::read_symlink(it->path(), lec).string();
    if (!lec && target.rfind("socket:[", 0) == 0)
      inodes.insert(target.substr(8, target.size() - 9));
  }
  return inodes;
}

}  // namespace

std::size_t connection_count() {
  // A connection this process dialed is an ESTABLISHED socket of ours whose
  // remote port is not one of our own listening ports' (the accepted end of
  // an in-process loopback connection has the listener's local port).
  const std::set<std::string> mine = own_socket_inodes();
  struct Row {
    unsigned local_port, state;
  };
  std::vector<Row> rows;
  for (const char* table : {"/proc/self/net/tcp", "/proc/self/net/tcp6"}) {
    std::ifstream is(table);
    std::string line;
    std::getline(is, line);  // header
    while (std::getline(is, line)) {
      std::istringstream ls(line);
      std::string sl, local, remote, st, queues, timer, retr, uid, timeout,
          inode;
      ls >> sl >> local >> remote >> st >> queues >> timer >> retr >> uid >>
          timeout >> inode;
      if (!mine.count(inode)) continue;
      const auto port = [](const std::string& addr) {
        return static_cast<unsigned>(
            std::stoul(addr.substr(addr.find(':') + 1), nullptr, 16));
      };
      rows.push_back(Row{port(local), static_cast<unsigned>(
                                          std::stoul(st, nullptr, 16))});
    }
  }
  constexpr unsigned kEstablished = 0x01, kListen = 0x0A;
  std::set<unsigned> listening;
  for (const Row& r : rows)
    if (r.state == kListen) listening.insert(r.local_port);
  std::size_t dialed = 0;
  for (const Row& r : rows)
    if (r.state == kEstablished && !listening.count(r.local_port)) ++dialed;
  return dialed;
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

void ResourceGuard::sample() {
  threads_ = std::max(threads_, thread_count());
  conns_ = std::max(conns_, connection_count());
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"period_p50_ms", "ms"},   {"period_tail_ms", "ms"},
      {"decisions_per_s", "1/s"}, {"mean_cost", "cost"},
      {"peak_rss_mb", "MB"},     {"setup_s", "s"}};
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"core.select_retrack_p50_ms", "ms"},
      {"core.select_retrack_p99_ms", "ms"},
      {"core.select_steady_p50_ms", "ms"},
      {"core.select_steady_p99_ms", "ms"},
      {"core.retracks", "count"},
      {"core.retrack_frac", "frac"},
      {"core.update_p50_ms", "ms"},
      {"core.update_p99_ms", "ms"},
      {"core.s0_fallbacks", "count"},
      {"core.fleet_decide_batch_p50_ms", "ms"},
      {"core.fleet_decide_batch_p99_ms", "ms"},
      {"core.fleet_update_batch_p50_ms", "ms"},
      {"core.fleet_update_batch_p99_ms", "ms"},
      {"core.fleet_batch_cells_mean", "count"},
      {"gp.track_p50_ms", "ms"},
      {"gp.add_p50_ms", "ms"},
      {"gp.evict_oldest_p50_ms", "ms"},
      {"gp.acache_mb", "MB"},
      {"oran.plane_step_p50_ms", "ms"},
      {"oran.plane_step_p99_ms", "ms"},
      {"oran.handshake_ms", "ms"},
      {"oran.kpi_losses", "count"},
      {"oran.delivery_failures", "count"},
      {"oran.decode_rejects", "count"},
      {"env.step_p50_ms", "ms"},
      {"proc.cpu_util", "frac"},
      {"proc.trace_overhead_frac", "frac"},
      {"period_p99_ms", "ms"},
      {"violation_rate", "frac"},
      {"failed_frac", "frac"}};
  return m;
}

namespace {

// A non-finite value prints as nan/inf, which is not JSON: run.py then
// rejects the run instead of passing a made-up number.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::printf("period benchmark: workload %s, seed %llu, %s run\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              traced ? "traced" : "untraced");
  for (const auto& [k, v] : notes)
    std::printf("  %-30s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, m] : metrics) {
    const bool na = std::find(not_applicable.begin(), not_applicable.end(),
                              k) != not_applicable.end();
    std::printf("  %-30s %14.6g %-6s%s\n", k.c_str(), m.value, m.unit.c_str(),
                na ? "  (n/a on this workload: no samples)" : "");
  }
  for (const auto& [k, m] : extra)
    std::printf("  %-30s %17.10g %-6s(not in this run's JSON)\n", k.c_str(),
                m.value, m.unit.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + k + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace pb
