// Output checks. A cell run fails when its checksum differs from another
// run on the same app input (another protocol, or a repeated pass) by more
// than 4 ulps — the tolerance of the repository's own app tests
// (EXPECT_DOUBLE_EQ), since floating-point reductions may combine in a
// protocol-dependent order — when
// any simulated Report field differs between passes of the same cell, or —
// for a traced run — when the trace dropped events or its miss attribution
// does not reconcile with the protocol counters.
#pragma once

#include <string>
#include <vector>

#include "stats/report.h"

namespace perfbench {

// One execution of one cell, as the checks see it.
struct CellRun {
  std::string cell;   // Cell::name; the same name marks repeated passes
  std::string input;  // Cell::input; equal inputs must give equal checksums
  double checksum = 0.0;
  presto::stats::Report report;
};

struct Verdict {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> reasons;  // one line per failure
};

// Names of the simulated Report fields (everything but label, host
// counters and trace attribution) whose values differ between a and b.
std::vector<std::string> simulated_diff(const presto::stats::Report& a,
                                        const presto::stats::Report& b);

// True when a and b are within 4 ulps of each other (NaN equals nothing).
bool checksums_agree(double a, double b);

// Checks a run set: the first run of each input sets the checksum every
// other run of that input must match, and the first run of each
// cell sets the simulated report every later pass must repeat.
Verdict check_runs(const std::vector<CellRun>& runs);

// Checks a traced run against an untraced run of the same cell: no dropped
// events, Σ miss latency reconciles with the remote-wait counter (the
// Report averages it over nodes, so the reconciliation uses the same
// average), the miss classes add up to faults + merge flushes, and tracing
// left the checksum and every simulated field unchanged. Returns the
// failure reasons.
std::vector<std::string> check_traced(const CellRun& traced,
                                      const CellRun& untraced);

}  // namespace perfbench
