// Unit self-tests of the benchmark's own helpers: nearest-rank percentiles,
// the ten-samples-beyond rule, and the re-track classifier at the tolerance
// edge. Exits 0 when every check holds. selftest.py adds the run-level
// checks (same-seed determinism, metric names).

#include <cstdio>
#include <vector>

#include "support.hpp"

namespace {

using namespace edgebol;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  failures += !ok;
}

void test_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  check(pb::percentile(xs, 50) == 50, "p50 of 1..100 is 50");
  check(pb::percentile(xs, 99) == 99, "p99 of 1..100 is 99");
  check(pb::percentile(xs, 100) == 100, "p100 of 1..100 is 100");
  check(pb::percentile({7.0}, 99) == 7.0, "any percentile of one sample");
  check(pb::percentile({}, 50) == 0.0, "empty set reads 0");
  check(pb::percentile({1, 2, 3}, 50) == 2, "p50 of 1,2,3 is 2");
  check(pb::percentile({1, 2, 3, 4}, 50) == 2, "p50 of 1..4 is 2 (rank 2)");
}

void test_ten_beyond() {
  check(pb::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(pb::tail_is_resolved(1000, 99), "p99 resolved at 1000 samples");
  check(!pb::tail_is_resolved(999, 99), "p99 not resolved at 999 samples");
  check(pb::samples_beyond(100, 99) == 1, "100 samples: 1 beyond p99");
  check(pb::tail_is_resolved(200, 95), "p95 resolved at 200 samples");
  check(pb::samples_beyond(0, 99) == 0, "no samples, none beyond");
  check(pb::tail_percentile(2000) == 99, "tail of 2000 samples is p99");
  check(pb::tail_percentile(1000) == 98, "tail of 1000 samples is p98");
  check(pb::tail_percentile(999) == 95, "tail of 999 samples is p95");
  check(pb::tail_percentile(412) == 95, "tail of 412 samples is p95");
  check(pb::tail_percentile(192) == 90, "tail of 192 samples is p90");
  check(pb::tail_percentile(20) == 90, "p90 is the floor");
}

void test_classifier() {
  const double tol = pb::op_config(1).tracking_tolerance;
  check(tol == 0.04, "operating point keeps the default tolerance 0.04");
  pb::RetrackClassifier c(tol);
  // cqi_var / 25 is the third feature: a step of 1.0 is exactly 0.04.
  const env::Context base{1.0, 15.0, 0.0};
  check(c.next(base), "first select always tracks");
  check(!c.next(base), "same context does not re-track");
  check(!c.next({1.0, 15.0, 1.0}), "move of exactly the tolerance stays");
  check(c.next({1.0, 15.0, 1.0 + 1e-9}), "move just past the tolerance "
                                          "re-tracks");
  // The reference is the context tracked last, not the previous select's:
  // two sub-tolerance steps add up.
  pb::RetrackClassifier d(tol);
  d.next(base);
  check(!d.next({1.0, 15.0, 0.75}), "first 0.03 step stays");
  check(d.next({1.0, 15.0, 1.5}), "second 0.03 step (0.06 total) re-tracks");
  check(!d.next({1.0, 15.0, 1.0}), "0.02 back from the new reference stays");
  // Max-abs over features: a user joining moves n_users / 10 by 0.1.
  check(d.next({2.0, 15.0, 1.5}), "a user joining re-tracks");
  // Any feature past the tolerance re-tracks, even with the others still.
  pb::RetrackClassifier e(tol);
  e.next(base);
  check(e.next({1.0, 14.0, 0.0}), "CQI mean step of 1 (0.067) re-tracks");
}

}  // namespace

int main() {
  test_percentile();
  test_ten_beyond();
  test_classifier();
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
