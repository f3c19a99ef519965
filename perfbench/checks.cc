#include "checks.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// Maps a double onto an integer line where adjacent doubles are adjacent
// integers, so ulp distance is a subtraction.
std::int64_t ordered(double d) {
  std::int64_t i = 0;
  std::memcpy(&i, &d, sizeof i);
  return i < 0 ? INT64_MIN - i : i;
}

}  // namespace

bool checksums_agree(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return false;
  const std::int64_t ia = ordered(a), ib = ordered(b);
  const std::uint64_t dist = ia > ib ? static_cast<std::uint64_t>(ia) -
                                           static_cast<std::uint64_t>(ib)
                                     : static_cast<std::uint64_t>(ib) -
                                           static_cast<std::uint64_t>(ia);
  return dist <= 4;
}

std::vector<std::string> simulated_diff(const presto::stats::Report& a,
                                        const presto::stats::Report& b) {
  std::vector<std::string> out;
#define PERFBENCH_FIELD(f) \
  if (a.f != b.f) out.push_back(#f)
  PERFBENCH_FIELD(nodes);
  PERFBENCH_FIELD(block_size);
  PERFBENCH_FIELD(exec);
  PERFBENCH_FIELD(remote_wait);
  PERFBENCH_FIELD(presend);
  PERFBENCH_FIELD(compute_synch);
  PERFBENCH_FIELD(barrier_wait);
  PERFBENCH_FIELD(lock_wait);
  PERFBENCH_FIELD(shared_accesses);
  PERFBENCH_FIELD(faults);
  PERFBENCH_FIELD(local_faults);
  PERFBENCH_FIELD(local_hit_pct);
  PERFBENCH_FIELD(msgs);
  PERFBENCH_FIELD(bytes);
  PERFBENCH_FIELD(presend_blocks);
  PERFBENCH_FIELD(dir_probes);
  PERFBENCH_FIELD(sched_lookups);
  PERFBENCH_FIELD(cc_flushes);
  PERFBENCH_FIELD(cc_entries);
#undef PERFBENCH_FIELD
  return out;
}

Verdict check_runs(const std::vector<CellRun>& runs) {
  Verdict v;
  std::map<std::string, const CellRun*> first_of_input;
  std::map<std::string, const CellRun*> first_of_cell;
  for (const CellRun& r : runs) {
    ++v.attempted;
    std::string why;
    const CellRun*& in = first_of_input[r.input];
    if (in == nullptr) {
      in = &r;
    } else if (!checksums_agree(r.checksum, in->checksum)) {
      why += fmt(" checksum %.17g differs from %.17g", r.checksum,
                 in->checksum) +
             " of " + in->cell + " on " + r.input + ";";
    }
    const CellRun*& c = first_of_cell[r.cell];
    if (c == nullptr) {
      c = &r;
    } else {
      for (const std::string& f : simulated_diff(r.report, c->report))
        why += " " + f + " differs between passes;";
    }
    if (!why.empty()) {
      ++v.failed;
      v.reasons.push_back(r.cell + ":" + why);
    }
  }
  return v;
}

std::vector<std::string> check_traced(const CellRun& traced_run,
                                      const CellRun& untraced_run) {
  const presto::stats::Report& traced = traced_run.report;
  std::vector<std::string> out;
  if (!checksums_agree(traced_run.checksum, untraced_run.checksum))
    out.push_back(fmt("checksum %.17g differs from untraced %.17g",
                      traced_run.checksum, untraced_run.checksum));
  if (!traced.traced) out.push_back("run was not traced");
  if (traced.trace_dropped != 0)
    out.push_back("trace dropped " + std::to_string(traced.trace_dropped) +
                  " events");
  const double nodes = traced.nodes > 0 ? traced.nodes : 1;
  const auto avg_latency = static_cast<presto::sim::Time>(
      static_cast<double>(traced.miss_latency_total) / nodes);
  if (avg_latency != traced.remote_wait)
    out.push_back(fmt("miss latency %.0f ns/node does not reconcile with "
                      "remote_wait %.0f ns",
                      static_cast<double>(avg_latency),
                      static_cast<double>(traced.remote_wait)));
  const std::uint64_t classes = traced.miss_cold + traced.miss_invalidation +
                                traced.miss_presend_waste + traced.miss_merge;
  if (classes != traced.faults + traced.cc_flushes)
    out.push_back(fmt("miss classes sum to %.0f, faults + merge flushes %.0f",
                      static_cast<double>(classes),
                      static_cast<double>(traced.faults + traced.cc_flushes)));
  for (const std::string& f : simulated_diff(traced, untraced_run.report))
    out.push_back(f + " changed under tracing");
  return out;
}

}  // namespace perfbench
