// Tests of the benchmark's output checks: a planted mismatch must be
// counted as a failed cell, and clean runs must pass. Exits non-zero if any
// expectation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/ocean/ocean.h"
#include "checks.h"
#include "spans.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                          \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

using perfbench::CellRun;
using presto::runtime::MachineConfig;
using presto::runtime::ProtocolKind;

presto::apps::OceanParams small_ocean() {
  presto::apps::OceanParams p;
  p.n = 16;
  p.iters = 2;
  return p;
}

CellRun run(ProtocolKind kind, bool traced = false) {
  MachineConfig m = MachineConfig::cm5_blizzard(4, 32);
  m.backend = presto::sim::Backend::kFiber;
  m.trace.enabled = traced;
  const auto r = presto::apps::run_ocean(small_ocean(), m, kind,
                                         kind == ProtocolKind::kPredictive);
  return CellRun{std::string("ocean/") + presto::runtime::protocol_kind_name(kind),
                 "ocean 16x16", r.checksum, r.report};
}

void clean_runs_pass(const CellRun& st, const CellRun& pr) {
  const perfbench::Verdict v = perfbench::check_runs({st, pr, st, pr});
  EXPECT(v.attempted == 4);
  EXPECT(v.failed == 0);
}

void planted_checksum_mismatch_is_counted(const CellRun& st,
                                          const CellRun& pr) {
  CellRun bad = pr;
  bad.checksum *= 1.0 + 1e-12;
  const perfbench::Verdict v = perfbench::check_runs({st, pr, bad});
  EXPECT(v.attempted == 3);
  EXPECT(v.failed == 1);
  EXPECT(v.reasons.size() == 1);
}

void checksum_tolerance_is_four_ulps() {
  double x = 4.6285998054454476;
  double y = x;
  for (int i = 0; i < 4; ++i) y = std::nextafter(y, INFINITY);
  EXPECT(perfbench::checksums_agree(x, y));
  EXPECT(!perfbench::checksums_agree(x, std::nextafter(y, INFINITY)));
  EXPECT(perfbench::checksums_agree(0.0, -0.0));
  EXPECT(!perfbench::checksums_agree(NAN, NAN));
}

void report_drift_between_passes_is_counted(const CellRun& st) {
  CellRun drift = st;
  drift.report.msgs += 1;
  const perfbench::Verdict v = perfbench::check_runs({st, drift});
  EXPECT(v.failed == 1);
  EXPECT(perfbench::simulated_diff(st.report, drift.report) ==
         std::vector<std::string>{"msgs"});
  // Host counters are not simulated results; they may differ.
  CellRun host = st;
  host.report.host.run_wall_s += 1.0;
  EXPECT(perfbench::check_runs({st, host}).failed == 0);
}

void traced_run_checks(const CellRun& pr) {
  const CellRun traced = run(ProtocolKind::kPredictive, /*traced=*/true);
  EXPECT(perfbench::check_traced(traced, pr).empty());
  CellRun dropped = traced;
  dropped.report.trace_dropped = 1;
  EXPECT(perfbench::check_traced(dropped, pr).size() == 1);
  CellRun skew = traced;
  skew.report.miss_latency_total += 1000 * skew.report.nodes;
  EXPECT(perfbench::check_traced(skew, pr).size() == 1);
  CellRun untraced = pr;
  EXPECT(!perfbench::check_traced(untraced, pr).empty());
}

void spans_self_time() {
  perfbench::Spans s;
  const int root = s.begin("bench.root");
  {
    perfbench::Spans::Scope a(s, "apps.x", 0);
    perfbench::Spans::Scope b(s, "sim.y", 0);
  }
  s.end(root);
  EXPECT(s.spans().size() == 3);
  EXPECT(s.spans()[1].parent == 0);
  EXPECT(s.spans()[2].parent == 1);
  double total = 0.0;
  for (const auto& [layer, self] : s.self_seconds_by_layer()) {
    EXPECT(self >= 0.0);
    total += self;
  }
  const double root_s = s.spans()[0].end_s - s.spans()[0].start_s;
  EXPECT(std::fabs(total - root_s) < 1e-9);
}

}  // namespace

int main() {
  const CellRun st = run(ProtocolKind::kStache);
  const CellRun pr = run(ProtocolKind::kPredictive);
  clean_runs_pass(st, pr);
  planted_checksum_mismatch_is_counted(st, pr);
  checksum_tolerance_is_four_ulps();
  report_drift_between_passes_is_counted(st);
  traced_run_checks(pr);
  spans_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
